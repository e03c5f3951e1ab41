//! Timed, instrumented runs of the four algorithm variants the paper
//! plots: unoptimized/optimized CMC and CWSC (Figures 5–9).

use scwsc_core::algorithms::{cmc, cwsc, CmcParams};
use scwsc_core::{
    Deadline, EngineError, Fanout, MetricsRecorder, NoopObserver, Observer, SolveOutcome, Stats,
    ThreadPool, Threads,
};
use scwsc_patterns::{enumerate_all, opt_cmc, opt_cwsc, CostFn, PatternSpace, Table};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The four lines of Figures 5–9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algo {
    /// Unoptimized CMC: full-cube enumeration + Fig. 1 over the sets.
    CmcUnopt,
    /// Optimized CMC (Fig. 4).
    CmcOpt,
    /// Unoptimized CWSC: full-cube enumeration + Fig. 2 over the sets.
    CwscUnopt,
    /// Optimized CWSC (Fig. 3).
    CwscOpt,
}

impl Algo {
    /// All four, in the paper's legend order.
    pub const ALL: [Algo; 4] = [Algo::CmcUnopt, Algo::CmcOpt, Algo::CwscUnopt, Algo::CwscOpt];

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Algo::CmcUnopt => "CMC",
            Algo::CmcOpt => "optimized CMC",
            Algo::CwscUnopt => "CWSC",
            Algo::CwscOpt => "optimized CWSC",
        }
    }
}

/// Parameters of one measured run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RunParams {
    /// Solution size bound `k`.
    pub k: usize,
    /// Coverage fraction `ŝ`.
    pub coverage: f64,
    /// CMC budget growth `b`.
    pub b: f64,
    /// CMC size slack `ε` (the ε-level schedule is the paper's default).
    pub eps: f64,
    /// Pattern weight function.
    pub cost_fn: CostFn,
    /// Whether CMC targets the discounted `(1−1/e)·ŝ·n` (Fig. 1 line 06)
    /// or the full `ŝ·n`. The harness defaults to the full target so CMC
    /// and CWSC solve the same task and Tables IV/V compare like for like
    /// (the paper's worked example folds the discount into ŝ itself);
    /// Theorems 4–5 hold either way.
    pub discount: bool,
}

impl Default for RunParams {
    /// The paper's Section VI defaults: `k = 10`, `ŝ = 0.3`, `b = ε = 1`.
    fn default() -> RunParams {
        RunParams {
            k: 10,
            coverage: 0.3,
            b: 1.0,
            eps: 1.0,
            cost_fn: CostFn::Max,
            discount: false,
        }
    }
}

impl RunParams {
    /// The CMC parameter block for these settings.
    pub fn cmc_params(&self) -> CmcParams {
        let mut p = CmcParams::epsilon(self.k, self.coverage, self.b, self.eps);
        p.discount_coverage = self.discount;
        p
    }
}

/// Outcome of one measured run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// Which algorithm ran.
    pub algo: Algo,
    /// Rows in the input table.
    pub rows: usize,
    /// Pattern attributes in the input table.
    pub attrs: usize,
    /// Size bound `k` of the run.
    pub k: usize,
    /// Coverage fraction `ŝ` of the run.
    pub coverage: f64,
    /// Wall-clock seconds (including full-cube enumeration for the
    /// unoptimized variants — computing every pattern's benefit is part of
    /// those algorithms).
    pub seconds: f64,
    /// Patterns considered (the Figure 6 metric).
    pub considered: u64,
    /// CMC budget guesses (1 for CWSC).
    pub guesses: u32,
    /// Solution total cost.
    pub cost: f64,
    /// Solution size (number of patterns).
    pub size: usize,
    /// Records covered.
    pub covered: usize,
    /// Whether the run found a solution.
    pub ok: bool,
}

/// Runs one algorithm variant on `table`, timing it end to end.
pub fn run(algo: Algo, table: &Table, params: &RunParams) -> Measurement {
    run_traced(algo, table, params, &mut NoopObserver).0
}

/// Like [`run`], but also aggregates the solver's telemetry stream into a
/// [`MetricsRecorder`] (per-phase timings, prune counters, histograms) and
/// forwards every event to `extra` — pass a
/// [`JsonlSink`](scwsc_core::JsonlSink) for a trace file, or
/// [`NoopObserver`] for none.
pub fn run_traced(
    algo: Algo,
    table: &Table,
    params: &RunParams,
    extra: &mut dyn Observer,
) -> (Measurement, MetricsRecorder) {
    run_traced_on(
        algo,
        table,
        params,
        &ThreadPool::new(Threads::serial()),
        extra,
    )
}

/// [`run_traced`] with the solver's parallel fan-outs run on `pool`.
///
/// The deterministic counters and the solution are identical to the serial
/// run for any pool size; only wall-clock changes. `CwscOpt` has no
/// parallel variant (the Fig. 3 lattice walk is a single sequential round
/// whose per-step candidate set is too small to chunk profitably) and runs
/// serial regardless of the pool.
pub fn run_traced_on(
    algo: Algo,
    table: &Table,
    params: &RunParams,
    pool: &ThreadPool,
    extra: &mut dyn Observer,
) -> (Measurement, MetricsRecorder) {
    let mut stats = Stats::new();
    let mut metrics = MetricsRecorder::new();
    let deadline = Deadline::unbounded();
    let start = Instant::now();
    let outcome: Option<(f64, usize, usize)> = {
        let mut obs = Fanout::new();
        obs.attach(&mut stats).attach(&mut metrics).attach(extra);
        match algo {
            Algo::CmcUnopt => {
                let m = enumerate_all(table, params.cost_fn);
                completed(cmc(
                    &m.system,
                    &params.cmc_params(),
                    pool,
                    &deadline,
                    &mut obs,
                ))
                .map(|o| {
                    (
                        o.solution.total_cost().value(),
                        o.solution.size(),
                        o.solution.covered(),
                    )
                })
            }
            Algo::CwscUnopt => {
                let m = enumerate_all(table, params.cost_fn);
                completed(cwsc(
                    &m.system,
                    params.k,
                    params.coverage,
                    pool,
                    &deadline,
                    &mut obs,
                ))
                .map(|s| (s.total_cost().value(), s.size(), s.covered()))
            }
            Algo::CmcOpt => {
                let space = PatternSpace::new(table, params.cost_fn);
                completed(opt_cmc(
                    &space,
                    &params.cmc_params(),
                    pool,
                    &deadline,
                    &mut obs,
                ))
                .map(|s| (s.total_cost, s.size(), s.covered))
            }
            Algo::CwscOpt => {
                let space = PatternSpace::new(table, params.cost_fn);
                completed(opt_cwsc(
                    &space,
                    params.k,
                    params.coverage,
                    pool,
                    &deadline,
                    &mut obs,
                ))
                .map(|s| (s.total_cost, s.size(), s.covered))
            }
        }
    };
    let seconds = start.elapsed().as_secs_f64();
    let (cost, size, covered) = outcome.unwrap_or((f64::NAN, 0, 0));
    let measurement = Measurement {
        algo,
        rows: table.num_rows(),
        attrs: table.num_attrs(),
        k: params.k,
        coverage: params.coverage,
        seconds,
        considered: stats.considered,
        guesses: stats.budget_guesses,
        cost,
        size,
        covered,
        ok: outcome.is_some(),
    };
    (measurement, metrics)
}

/// The value of a solve that completed; `None` when it failed (an
/// unbounded deadline never degrades).
fn completed<T>(result: Result<SolveOutcome<T>, EngineError>) -> Option<T> {
    match result {
        Ok(SolveOutcome::Complete(value)) => Some(value),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scwsc_data::lbl::LblConfig;

    fn small_table() -> Table {
        LblConfig {
            rows: 400,
            local_hosts: 15,
            remote_hosts: 20,
            ..LblConfig::default()
        }
        .generate()
    }

    #[test]
    fn all_four_algorithms_produce_valid_solutions() {
        let t = small_table();
        let params = RunParams {
            k: 5,
            ..RunParams::default()
        };
        for algo in Algo::ALL {
            let m = run(algo, &t, &params);
            assert!(m.ok, "{algo:?} failed");
            assert!(m.covered >= 1, "{algo:?} covered nothing");
            assert!(m.cost.is_finite());
            assert!(m.seconds >= 0.0);
            assert!(m.considered > 0);
        }
    }

    #[test]
    fn optimized_considers_fewer_patterns() {
        // Needs a workload where lattice pruning pays off (the Figure 6
        // regime): dense value domains so the coverage floor rem/i prunes
        // whole subtrees. On very sparse toy traces the optimized
        // algorithm's per-iteration re-expansion can touch more patterns
        // than a tiny full cube; the harness-scale relationship is
        // exercised by the fig5/fig6 binaries and EXPERIMENTS.md.
        let t = scwsc_patterns::test_util::skewed_table(800, 4, 6);
        let params = RunParams::default();
        let unopt = run(Algo::CwscUnopt, &t, &params);
        let opt = run(Algo::CwscOpt, &t, &params);
        assert!(
            opt.considered < unopt.considered,
            "opt {} vs unopt {}",
            opt.considered,
            unopt.considered
        );
    }

    #[test]
    fn cwsc_respects_k_and_coverage() {
        let t = small_table();
        let params = RunParams {
            k: 7,
            coverage: 0.4,
            ..RunParams::default()
        };
        let m = run(Algo::CwscOpt, &t, &params);
        assert!(m.size <= 7);
        assert!(m.covered >= (0.4f64 * 400.0).ceil() as usize);
    }

    #[test]
    fn traced_run_aggregates_matching_counters() {
        let t = small_table();
        let params = RunParams {
            k: 5,
            ..RunParams::default()
        };
        for algo in [Algo::CwscOpt, Algo::CmcOpt] {
            let (m, metrics) = run_traced(algo, &t, &params, &mut NoopObserver);
            assert!(m.ok, "{algo:?} failed");
            assert_eq!(metrics.benefits_computed, m.considered, "{algo:?}");
            // CMC also selects during failed budget guesses, so the event
            // count can exceed the final solution size; CWSC is one round.
            match algo {
                Algo::CwscOpt => assert_eq!(metrics.selections as usize, m.size),
                _ => assert!(metrics.selections as usize >= m.size),
            }
            assert_eq!(metrics.guesses, u64::from(m.guesses), "{algo:?}");
            let total = metrics
                .phase_seconds(scwsc_core::PHASE_TOTAL)
                .expect("solver records a total phase");
            assert!(total >= 0.0 && total <= m.seconds);
        }
    }

    #[test]
    fn pooled_run_matches_serial_measurement_and_counters() {
        use scwsc_core::Threads;
        let t = small_table();
        let params = RunParams {
            k: 5,
            ..RunParams::default()
        };
        let pool = ThreadPool::new(Threads::new(4));
        for algo in Algo::ALL {
            let (sm, smet) = run_traced(algo, &t, &params, &mut NoopObserver);
            let (pm, pmet) = run_traced_on(algo, &t, &params, &pool, &mut NoopObserver);
            assert_eq!(pm.cost, sm.cost, "{algo:?}");
            assert_eq!(pm.size, sm.size, "{algo:?}");
            assert_eq!(pm.covered, sm.covered, "{algo:?}");
            assert_eq!(pm.considered, sm.considered, "{algo:?}");
            assert_eq!(pm.guesses, sm.guesses, "{algo:?}");
            assert_eq!(pmet.selections, smet.selections, "{algo:?}");
            assert_eq!(pmet.benefits_computed, smet.benefits_computed, "{algo:?}");
            assert_eq!(
                pmet.marginal_benefit_hist, smet.marginal_benefit_hist,
                "{algo:?}"
            );
        }
    }

    #[test]
    fn names_match_legends() {
        assert_eq!(Algo::CmcUnopt.name(), "CMC");
        assert_eq!(Algo::CwscOpt.name(), "optimized CWSC");
    }
}
