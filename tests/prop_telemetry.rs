//! Property tests for the telemetry layer: on random set systems, the
//! event stream any [`Observer`] sees is consistent with the
//! [`MetricsRecorder`] counters, and every `guess_started` comes with the level
//! schedule the guess actually built — whose quotas respect the `5k`
//! (classic) / `(1+ε)k` (epsilon) size bounds of Theorems 4–5. The
//! pattern-lattice walks report their per-pop work as totals, so a
//! solve's event count grows with its guesses and selections only.

use proptest::prelude::*;
use scwsc::data::lbl::LblConfig;
use scwsc::patterns::PatternInstance;
use scwsc::prelude::*;
use scwsc::sets::algorithms::cmc::Levels;
use scwsc::sets::telemetry::{Event, Observer};
use scwsc::sets::{
    CostModel, Fanout, Query, SolveSample, SolveWindows, Solver, ThreadPool, Threads,
};

/// Minimal event recorder: exactly what the properties below inspect.
#[derive(Default)]
struct Recorder {
    events: u64,
    benefit_sum: u64,
    selections: u64,
    budgets: Vec<Option<f64>>,
    /// One `(level, allowance)` list per `guess_started`.
    schedules: Vec<Vec<(usize, usize)>>,
}

impl Observer for Recorder {
    fn on(&mut self, event: &Event<'_>) {
        self.events += 1;
        match *event {
            Event::GuessStarted(budget) => {
                self.budgets.push(budget);
                self.schedules.push(Vec::new());
            }
            Event::LevelEntered(level, allowance) => self
                .schedules
                .last_mut()
                .expect("level_entered before any guess_started")
                .push((level, allowance)),
            Event::SetSelected(..) => self.selections += 1,
            Event::BenefitComputed(count) => self.benefit_sum += count,
            _ => {}
        }
    }
}

fn arb_system() -> impl Strategy<Value = SetSystem> {
    (2usize..=14, 0usize..=12).prop_flat_map(|(n, sets)| {
        let set = (
            proptest::collection::btree_set(0u32..n as u32, 1..=n),
            0u32..100,
        );
        proptest::collection::vec(set, sets).prop_map(move |sets| {
            let mut b = SetSystem::builder(n);
            for (members, cost) in sets {
                b.add_set(members, f64::from(cost));
            }
            b.add_universe_set(120.0);
            b.build().unwrap()
        })
    })
}

/// Runs `solve` with a [`MetricsRecorder`] and a [`Recorder`] fanned out
/// side by side.
fn record<R>(solve: impl FnOnce(&mut Fanout<'_>) -> R) -> (R, MetricsRecorder, Recorder) {
    let mut metrics = MetricsRecorder::new();
    let mut rec = Recorder::default();
    let result = {
        let mut obs = Fanout::new();
        obs.attach(&mut metrics).attach(&mut rec);
        solve(&mut obs)
    };
    (result, metrics, rec)
}

/// One solve's window sample, from the recorder that observed it.
fn sample(metrics: &MetricsRecorder, degraded: bool) -> SolveSample {
    SolveSample {
        selections: metrics.selections,
        benefits_computed: metrics.benefits_computed,
        degraded,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// CWSC: the event stream reproduces the MetricsRecorder counters, and the
    /// single round appears as exactly one budget-less guess.
    #[test]
    fn cwsc_events_match_stats(
        system in arb_system(),
        k in 1usize..=6,
        coverage in 0.0f64..=1.0,
    ) {
        let (result, metrics, rec) =
            record(|obs| cwsc(&system, k, coverage, &Deadline::unbounded(), obs));
        prop_assert!(result.is_ok());
        prop_assert_eq!(rec.benefit_sum, metrics.benefits_computed);
        prop_assert_eq!(rec.selections, metrics.selections);
        prop_assert_eq!(rec.budgets.len() as u64, metrics.guesses);
        prop_assert!(rec.budgets.len() <= 1, "CWSC is single-round");
        prop_assert!(rec.budgets.iter().all(Option::is_none));
        prop_assert!(rec.schedules.iter().all(Vec::is_empty));
    }

    /// Classic CMC: every guess carries a budget, its reported level
    /// schedule is exactly `Levels::build` for that budget, and the quotas
    /// sum within Theorem 4's `5k`.
    #[test]
    fn cmc_classic_schedules_respect_5k(
        system in arb_system(),
        k in 1usize..=5,
        coverage in 0.0f64..=1.0,
    ) {
        let params = CmcParams::classic(k, coverage, 1.0);
        let (result, metrics, rec) =
            record(|obs| cmc(&system, &params, &Deadline::unbounded(), obs));
        prop_assert!(result.is_ok());
        prop_assert_eq!(rec.benefit_sum, metrics.benefits_computed);
        prop_assert_eq!(rec.selections, metrics.selections);
        prop_assert_eq!(rec.budgets.len() as u64, metrics.guesses);
        for (budget, schedule) in rec.budgets.iter().zip(&rec.schedules) {
            let budget = budget.expect("CMC guesses carry a budget");
            let levels = Levels::build(params.schedule, budget, k);
            let expected: Vec<(usize, usize)> =
                (0..levels.len()).map(|l| (l, levels.quota(l))).collect();
            prop_assert_eq!(schedule, &expected);
            let total: usize = schedule.iter().map(|&(_, q)| q).sum();
            prop_assert!(total <= 5 * k, "{total} quota slots for k={k}");
        }
    }

    /// ε-schedule CMC: per-guess quotas sum within Theorem 5's `(1+ε)k`.
    #[test]
    fn cmc_epsilon_schedules_respect_eps_bound(
        system in arb_system(),
        k in 1usize..=5,
        eps in 0.25f64..=3.0,
    ) {
        let params = CmcParams::epsilon(k, 0.8, 1.0, eps);
        let (result, metrics, rec) =
            record(|obs| cmc(&system, &params, &Deadline::unbounded(), obs));
        prop_assert!(result.is_ok());
        prop_assert_eq!(rec.budgets.len() as u64, metrics.guesses);
        let bound = (((1.0 + eps) * k as f64).floor() as usize).max(k);
        for (budget, schedule) in rec.budgets.iter().zip(&rec.schedules) {
            let budget = budget.expect("CMC guesses carry a budget");
            let levels = Levels::build(params.schedule, budget, k);
            let expected: Vec<(usize, usize)> =
                (0..levels.len()).map(|l| (l, levels.quota(l))).collect();
            prop_assert_eq!(schedule, &expected);
            let total: usize = schedule.iter().map(|&(_, q)| q).sum();
            prop_assert!(total <= bound, "{total} quota slots for k={k} eps={eps}");
        }
    }

    /// Sliding-window telemetry (DESIGN.md §16): every solve fed to
    /// [`SolveWindows`] counts once, and the window advances on
    /// solve-sequence boundaries, never wall clock, so more solves than
    /// the window holds roll it over.
    #[test]
    fn windowed_telemetry_counts_every_solve_across_rollovers(
        systems in proptest::collection::vec(arb_system(), 5..=8),
        k in 1usize..=5,
        coverage in 0.0f64..=1.0,
    ) {
        // A window smaller than the solve count forces rollovers.
        let window = 3;
        let mut windows = SolveWindows::with_window(window);
        let params = CmcParams::classic(k, coverage, 1.0);
        let mut degraded = 0;
        for system in &systems {
            let mut metrics = MetricsRecorder::new();
            let result = cmc(system, &params, &Deadline::unbounded(), &mut metrics);
            let is_degraded = matches!(&result, Ok(o) if o.is_degraded());
            degraded += u64::from(is_degraded);
            windows.observe(sample(&metrics, is_degraded));
        }
        let solves = systems.len() as u64;
        prop_assert_eq!(windows.solves(), solves);
        prop_assert_eq!(windows.rollovers(), solves - window as u64);
        prop_assert_eq!(windows.degraded_solves(), degraded);
    }

    /// The optimized pattern-lattice CWSC reports the same invariants over
    /// its own event vocabulary: one budget-less guess, selections equal to
    /// the solution size, and MetricsRecorder agreement.
    #[test]
    fn opt_cwsc_events_match_stats(rows in 30usize..120, k in 1usize..=5) {
        let table = scwsc::patterns::test_util::skewed_table(rows, 3, 4);
        let space = PatternSpace::new(&table, CostFn::Max);
        let (result, metrics, rec) =
            record(|obs| opt_cwsc(&space, k, 0.5, &Deadline::unbounded(), obs));
        if let Ok(SolveOutcome::Complete(sol)) = result {
            prop_assert_eq!(rec.selections as usize, sol.size());
        }
        prop_assert_eq!(rec.benefit_sum, metrics.benefits_computed);
        prop_assert_eq!(rec.selections, metrics.selections);
        prop_assert!(rec.budgets.len() <= 1);
        prop_assert!(rec.budgets.iter().all(Option::is_none));
    }
}

/// The optimized walks emit their per-pop, per-expansion and per-child
/// work as per-guess (CMC) and per-round (CWSC) totals: at most a couple
/// dozen events per guess and per selection, however many patterns the
/// walk pops, on a fresh lattice and on one an earlier solve grew.
#[test]
fn lattice_walk_events_scale_with_guesses_and_selections() {
    let pool = ThreadPool::new(Threads::serial());
    for cost in [
        CostModel::Max,
        CostModel::Sum,
        CostModel::Mean,
        CostModel::Count,
    ] {
        for query in [Query::cmc(8, 0.6), Query::cwsc(8, 0.6)] {
            let query = Query { cost, ..query };
            let table = LblConfig {
                seed: 7,
                ..LblConfig::scaled(4000)
            }
            .generate();
            let instance = PatternInstance::new(table);
            for run in ["cold", "warm"] {
                let mut rec = Recorder::default();
                instance
                    .solve(&query, &pool, &Deadline::unbounded(), &mut rec)
                    .expect("solves");
                let bound = 24 * (rec.budgets.len() as u64 + rec.selections) + 16;
                assert!(
                    rec.events <= bound,
                    "{run} {:?} under {cost:?}: {} events, bound {bound}",
                    query.algorithm,
                    rec.events
                );
            }
        }
    }
}

/// Windowed telemetry must also count solves that *degrade*: a tick
/// budget with an injected cancellation forces the engine down the
/// degradation ladder, and every degraded solve still closes one window
/// slot.
mod degraded_windows {
    use super::*;
    use scwsc::sets::FaultPlan;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn windowed_telemetry_counts_degraded_solves(
            systems in proptest::collection::vec(arb_system(), 4..=6),
            k in 1usize..=4,
            ticks in 1u64..=12,
            cancel_at in 1u64..=20,
        ) {
            let window = 3;
            let mut windows = SolveWindows::with_window(window);
            let params = CmcParams::classic(k, 0.9, 1.0);
            let mut degraded = 0;
            for system in &systems {
                let deadline = Deadline::unbounded()
                    .with_tick_budget(ticks)
                    .with_fault_plan(FaultPlan::new().cancel_at_tick(cancel_at));
                let mut metrics = MetricsRecorder::new();
                let result = cmc(system, &params, &deadline, &mut metrics);
                let is_degraded = matches!(&result, Ok(o) if o.is_degraded());
                degraded += u64::from(is_degraded);
                windows.observe(sample(&metrics, is_degraded));
            }
            let solves = systems.len() as u64;
            prop_assert_eq!(windows.solves(), solves);
            prop_assert_eq!(windows.rollovers(), solves - window as u64);
            prop_assert_eq!(windows.degraded_solves(), degraded);
        }
    }
}
