//! Multi-weight size-constrained weighted set cover.
//!
//! Section VII poses "how to handle multiple weights associated with each
//! set" as an open problem. This module provides the two standard
//! treatments on top of the single-weight solvers:
//!
//! * **scalarization** — collapse each weight vector `w(s)` to
//!   `⟨λ, w(s)⟩` for a non-negative preference vector `λ` and solve the
//!   resulting single-weight instance;
//! * **Pareto sweep** — solve over a grid of preference vectors and keep
//!   the solutions whose aggregate weight vectors are mutually
//!   non-dominated, giving the decision-maker a trade-off frontier.

use crate::algorithms::cwsc::cwsc;
use crate::engine::{Certificate, Deadline, DegradeReason, Degraded, EngineError, SolveOutcome};
use crate::parallel::{ThreadPool, Threads};
use crate::set_system::{coverage_target, ElementId, SetId, SetSystem};
use crate::solution::{Solution, SolveError};
use crate::telemetry::{pack_k_target, Event, EventLog, Observer, PhaseSpan, TraceId};

/// Span name for one whole [`pareto_sweep`] run. Distinct from
/// [`crate::telemetry::PHASE_TOTAL`] so the sweep's wrapper span does not
/// double-count the inner solver runs' `"total"` spans in aggregations.
pub const PHASE_SWEEP: &str = "pareto_sweep";
/// Span name for building one scalarized [`SetSystem`] during a sweep.
pub const PHASE_SCALARIZE: &str = "scalarize";
/// Span name for the Pareto dominance filter at the end of a sweep.
pub const PHASE_FILTER: &str = "pareto_filter";

/// A set system whose sets carry a vector of weights (one per criterion).
#[derive(Debug, Clone)]
pub struct MultiWeightSystem {
    num_elements: usize,
    num_criteria: usize,
    sets: Vec<(Vec<ElementId>, Vec<f64>)>,
}

/// Errors raised while building or scalarizing a [`MultiWeightSystem`].
#[derive(Debug, Clone, PartialEq)]
pub enum MultiWeightError {
    /// A weight vector had the wrong number of criteria.
    WrongArity {
        /// Offending set index.
        set: usize,
        /// Number of weights supplied.
        got: usize,
        /// Number of criteria expected.
        expected: usize,
    },
    /// A weight or preference entry was negative or non-finite.
    InvalidWeight(f64),
    /// The underlying single-weight solver failed.
    Solve(SolveError),
    /// A solver worker panicked twice under the resilience engine
    /// ([`pareto_sweep`]); carries the panic message.
    Faulted(String),
}

impl std::fmt::Display for MultiWeightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiWeightError::WrongArity { set, got, expected } => {
                write!(f, "set {set}: {got} weights, expected {expected}")
            }
            MultiWeightError::InvalidWeight(w) => write!(f, "invalid weight {w}"),
            MultiWeightError::Solve(e) => write!(f, "solve failed: {e}"),
            MultiWeightError::Faulted(msg) => write!(f, "solver fault: {msg}"),
        }
    }
}

impl std::error::Error for MultiWeightError {}

impl MultiWeightSystem {
    /// Creates an empty system over `num_elements` elements with
    /// `num_criteria` weights per set.
    pub fn new(num_elements: usize, num_criteria: usize) -> MultiWeightSystem {
        assert!(num_criteria >= 1, "at least one criterion required");
        MultiWeightSystem {
            num_elements,
            num_criteria,
            sets: Vec::new(),
        }
    }

    /// Adds a set with its weight vector.
    pub fn add_set(
        &mut self,
        members: impl IntoIterator<Item = ElementId>,
        weights: Vec<f64>,
    ) -> Result<&mut Self, MultiWeightError> {
        if weights.len() != self.num_criteria {
            return Err(MultiWeightError::WrongArity {
                set: self.sets.len(),
                got: weights.len(),
                expected: self.num_criteria,
            });
        }
        if let Some(&bad) = weights.iter().find(|w| !w.is_finite() || **w < 0.0) {
            return Err(MultiWeightError::InvalidWeight(bad));
        }
        let mut members: Vec<ElementId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        self.sets.push((members, weights));
        Ok(self)
    }

    /// Number of criteria per set.
    pub fn num_criteria(&self) -> usize {
        self.num_criteria
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Collapses weight vectors with preference `λ` into a single-weight
    /// [`SetSystem`]: `Cost(s) = Σ_c λ_c · w_c(s)`.
    pub fn scalarize(&self, lambda: &[f64]) -> Result<SetSystem, MultiWeightError> {
        if lambda.len() != self.num_criteria {
            return Err(MultiWeightError::WrongArity {
                set: usize::MAX,
                got: lambda.len(),
                expected: self.num_criteria,
            });
        }
        if let Some(&bad) = lambda.iter().find(|w| !w.is_finite() || **w < 0.0) {
            return Err(MultiWeightError::InvalidWeight(bad));
        }
        let mut b = SetSystem::builder(self.num_elements);
        for (members, weights) in &self.sets {
            let cost: f64 = weights.iter().zip(lambda).map(|(w, l)| w * l).sum();
            b.add_set(members.iter().copied(), cost);
        }
        b.build().map_err(|_| {
            // members were validated by range below; costs validated above
            MultiWeightError::InvalidWeight(f64::NAN)
        })
    }

    /// Aggregate weight vector of a chosen sub-collection.
    pub fn aggregate(&self, sets: &[SetId]) -> Vec<f64> {
        let mut total = vec![0.0; self.num_criteria];
        for &s in sets {
            for (t, w) in total.iter_mut().zip(&self.sets[s as usize].1) {
                *t += w;
            }
        }
        total
    }
}

/// One point on the multi-weight trade-off frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Preference vector that produced this solution.
    pub lambda: Vec<f64>,
    /// The solution (over the scalarized system).
    pub solution: Solution,
    /// Aggregate weight vector of the solution.
    pub weights: Vec<f64>,
}

/// Returns whether `a` dominates `b`: no worse in every criterion and
/// strictly better in at least one.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Solves CWSC under each preference vector and keeps the non-dominated
/// outcomes (by aggregate weight vector), on `pool`, under `deadline`
/// (DESIGN.md §12).
///
/// The whole sweep runs inside a [`PHASE_SWEEP`] span; each preference
/// vector contributes a [`PHASE_SCALARIZE`] span and the inner solver's own
/// events (including its `"total"` span), and the final dominance filter
/// runs inside a [`PHASE_FILTER`] span.
///
/// The deadline is shared across the whole sweep: every inner [`cwsc`]
/// round consumes a work tick, so a tick budget bounds total sweep work,
/// not per-λ work. On expiry the frontier built from the λs completed so
/// far returns as [`SolveOutcome::Degraded`]; the in-flight λ's partial
/// picks are dropped (a trade-off *frontier* made of half-solved points
/// would be misleading). The certificate reuses its fields as sweep
/// progress: `covered` = λs completed, `target` = total λs, `sets_used` =
/// frontier size, `total_cost` = 0.
///
/// Under a tick-addressed deadline (or a serial pool) λs run sequentially
/// in order — the inner solver's scans still parallelize — so outcomes
/// match between thread counts. Otherwise λs fan out, one serial solve per
/// task recording into a private [`EventLog`]; the logs replay into `obs`
/// in λ order, so the observer sees the serial event stream and the
/// frontier (built from points in λ order) is the serial one. On error the
/// logs up to and including the first failing λ replay before the error
/// returns, matching the serial early exit. A twice-panicking solver
/// surfaces as [`MultiWeightError::Faulted`].
pub fn pareto_sweep<O: Observer + ?Sized>(
    system: &MultiWeightSystem,
    k: usize,
    coverage_fraction: f64,
    lambdas: &[Vec<f64>],
    pool: &ThreadPool,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<Vec<ParetoPoint>>, MultiWeightError> {
    obs.on(&Event::TraceStarted(
        sweep_trace_id(system, k, coverage_fraction),
        "pareto_sweep",
    ));
    let sweep_span = PhaseSpan::enter(obs, PHASE_SWEEP);
    let result = run_sweep(system, k, coverage_fraction, lambdas, pool, deadline, obs);
    sweep_span.exit(obs);
    result
}

/// Deterministic trace id for a sweep entry point: same system shape,
/// `k`, and coverage target ⇒ same id, whatever the pool or deadline.
fn sweep_trace_id(system: &MultiWeightSystem, k: usize, coverage_fraction: f64) -> TraceId {
    let target = coverage_target(system.num_elements, coverage_fraction);
    TraceId::mint(
        "pareto_sweep",
        system.num_elements as u64,
        pack_k_target(k, target),
    )
}

/// The final dominance filter (also drops duplicate weight vectors),
/// inside a [`PHASE_FILTER`] span.
fn pareto_filter<O: Observer + ?Sized>(points: Vec<ParetoPoint>, obs: &mut O) -> Vec<ParetoPoint> {
    let filter_span = PhaseSpan::enter(obs, PHASE_FILTER);
    let mut frontier: Vec<ParetoPoint> = Vec::new();
    for p in points {
        if frontier
            .iter()
            .any(|q| dominates(&q.weights, &p.weights) || q.weights == p.weights)
        {
            continue;
        }
        frontier.retain(|q| !dominates(&p.weights, &q.weights));
        frontier.push(p);
    }
    filter_span.exit(obs);
    frontier
}

/// How one λ's scalarize + solve ended.
enum LambdaOutcome {
    Point(Box<ParetoPoint>),
    Expired(DegradeReason),
    Error(MultiWeightError),
}

/// The sweep body. Each λ records into its own [`EventLog`]; logs and
/// outcomes resolve in λ order, stopping at the first expiry or error.
fn run_sweep<O: Observer + ?Sized>(
    system: &MultiWeightSystem,
    k: usize,
    coverage_fraction: f64,
    lambdas: &[Vec<f64>],
    pool: &ThreadPool,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<Vec<ParetoPoint>>, MultiWeightError> {
    let solve = |lambda: &Vec<f64>, pool: &ThreadPool| {
        let mut log = EventLog::new();
        if let Some(reason) = deadline.expired() {
            return (log, LambdaOutcome::Expired(reason));
        }
        let scalarize_span = PhaseSpan::enter(&mut log, PHASE_SCALARIZE);
        let scalar = system.scalarize(lambda);
        scalarize_span.exit(&mut log);
        let scalar = match scalar {
            Ok(scalar) => scalar,
            Err(e) => return (log, LambdaOutcome::Error(e)),
        };
        let outcome = match cwsc(&scalar, k, coverage_fraction, pool, deadline, &mut log) {
            Ok(SolveOutcome::Complete(solution)) => {
                let weights = system.aggregate(solution.sets());
                LambdaOutcome::Point(Box::new(ParetoPoint {
                    lambda: lambda.clone(),
                    solution,
                    weights,
                }))
            }
            Ok(SolveOutcome::Degraded(d)) => LambdaOutcome::Expired(d.certificate.reason),
            Err(EngineError::Solve(e)) => LambdaOutcome::Error(MultiWeightError::Solve(e)),
            Err(EngineError::Panicked(msg)) => LambdaOutcome::Error(MultiWeightError::Faulted(msg)),
        };
        (log, outcome)
    };
    // λs run one after another, each solve using the whole pool, on a
    // serial pool or under a tick-addressed deadline; the iterator is
    // lazy, so nothing runs past the first expiry or error. Otherwise
    // they fan out one task per λ, each solving serially (the pool's
    // workers are busy with sibling λs).
    let serial = ThreadPool::new(Threads::serial());
    let solved: Box<dyn Iterator<Item = (EventLog, LambdaOutcome)>> =
        if pool.is_serial() || deadline.tick_deterministic() {
            Box::new(lambdas.iter().map(|lambda| solve(lambda, pool)))
        } else {
            Box::new(
                pool.par_map(lambdas, |lambda| solve(lambda, &serial))
                    .into_iter(),
            )
        };
    let mut points: Vec<ParetoPoint> = Vec::with_capacity(lambdas.len());
    let mut degraded: Option<DegradeReason> = None;
    for (log, outcome) in solved {
        log.replay(obs);
        match outcome {
            LambdaOutcome::Point(point) => points.push(*point),
            LambdaOutcome::Expired(reason) => {
                degraded = Some(reason);
                break;
            }
            LambdaOutcome::Error(e) => return Err(e),
        }
    }
    let completed = points.len();
    let frontier = pareto_filter(points, obs);
    Ok(match degraded {
        None => SolveOutcome::Complete(frontier),
        Some(reason) => {
            let certificate = Certificate {
                sets_used: frontier.len(),
                covered: completed,
                target: lambdas.len(),
                total_cost: 0.0,
                quotas_exhausted: Vec::new(),
                ticks: deadline.ticks(),
                reason,
            };
            SolveOutcome::Degraded(Degraded {
                partial: frontier,
                certificate,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::NoopObserver;

    /// [`pareto_sweep`] on `threads` workers without a deadline, unwrapped
    /// to the complete frontier or the sweep error.
    fn sweep(
        system: &MultiWeightSystem,
        k: usize,
        coverage: f64,
        lambdas: &[Vec<f64>],
        threads: usize,
        obs: &mut dyn Observer,
    ) -> Result<Vec<ParetoPoint>, MultiWeightError> {
        let pool = ThreadPool::new(Threads::new(threads));
        pareto_sweep(
            system,
            k,
            coverage,
            lambdas,
            &pool,
            &Deadline::unbounded(),
            obs,
        )
        .map(|out| out.expect_complete("unbounded deadline"))
    }

    /// Two criteria pulling in opposite directions: set 0 is cheap on the
    /// first criterion, set 1 on the second; both cover the left half. Set
    /// 2 is a universe set, mid-priced on both.
    fn system() -> MultiWeightSystem {
        let mut s = MultiWeightSystem::new(4, 2);
        s.add_set([0, 1], vec![1.0, 9.0]).unwrap();
        s.add_set([0, 1], vec![9.0, 1.0]).unwrap();
        s.add_set([0, 1, 2, 3], vec![5.0, 5.0]).unwrap();
        s
    }

    #[test]
    fn arity_and_weight_validation() {
        let mut s = MultiWeightSystem::new(4, 2);
        assert!(matches!(
            s.add_set([0], vec![1.0]),
            Err(MultiWeightError::WrongArity {
                got: 1,
                expected: 2,
                ..
            })
        ));
        assert!(matches!(
            s.add_set([0], vec![1.0, -3.0]),
            Err(MultiWeightError::InvalidWeight(_))
        ));
    }

    #[test]
    fn scalarize_produces_dot_products() {
        let s = system();
        let scalar = s.scalarize(&[1.0, 0.0]).unwrap();
        assert_eq!(scalar.cost(0).value(), 1.0);
        assert_eq!(scalar.cost(1).value(), 9.0);
        assert_eq!(scalar.cost(2).value(), 5.0);
        let scalar = s.scalarize(&[0.5, 0.5]).unwrap();
        assert_eq!(scalar.cost(0).value(), 5.0);
    }

    #[test]
    fn scalarize_validates_lambda() {
        let s = system();
        assert!(s.scalarize(&[1.0]).is_err());
        assert!(s.scalarize(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn dominates_semantics() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(
            !dominates(&[1.0, 2.0], &[1.0, 2.0]),
            "equal is not dominated"
        );
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]), "incomparable");
        assert!(!dominates(&[2.0, 2.0], &[1.0, 2.0]));
    }

    #[test]
    fn aggregate_sums_vectors() {
        let s = system();
        assert_eq!(s.aggregate(&[0, 1]), vec![10.0, 10.0]);
        assert_eq!(s.aggregate(&[]), vec![0.0, 0.0]);
    }

    #[test]
    fn pareto_sweep_finds_both_extremes() {
        let s = system();
        let lambdas = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, 0.5]];
        let frontier = sweep(&s, 1, 0.5, &lambdas, 1, &mut NoopObserver).unwrap();
        // λ=(1,0) picks set 0 (weights [1,9]); λ=(0,1) picks set 1 ([9,1]);
        // both are non-dominated. λ=(.5,.5) picks one of them again (cost 5
        // each beats universe's 5? tie on gain 2/5 vs 4/5 for universe --
        // universe wins on gain) giving [5,5], also non-dominated.
        assert!(frontier.len() >= 2, "{frontier:?}");
        let has = |w: &[f64]| frontier.iter().any(|p| p.weights == w);
        assert!(has(&[1.0, 9.0]));
        assert!(has(&[9.0, 1.0]));
    }

    #[test]
    fn pareto_filter_drops_dominated() {
        let s = system();
        // λ = (1,0) twice and (2,0): all pick set 0 -> duplicates collapse.
        let lambdas = vec![vec![1.0, 0.0], vec![1.0, 0.0], vec![2.0, 0.0]];
        let frontier = sweep(&s, 1, 0.5, &lambdas, 1, &mut NoopObserver).unwrap();
        assert_eq!(frontier.len(), 1);
        assert_eq!(frontier[0].weights, vec![1.0, 9.0]);
    }

    #[test]
    fn sweep_propagates_solver_failure() {
        let mut s = MultiWeightSystem::new(4, 1);
        s.add_set([0], vec![1.0]).unwrap();
        let err = sweep(&s, 1, 1.0, &[vec![1.0]], 1, &mut NoopObserver).unwrap_err();
        assert!(matches!(err, MultiWeightError::Solve(_)));
    }

    #[test]
    fn sweep_span_tree_shape() {
        let s = system();
        let lambdas = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let mut profiler = crate::telemetry::SpanProfiler::new();
        sweep(&s, 1, 0.5, &lambdas, 1, &mut profiler).unwrap();
        assert_eq!(profiler.open_spans(), 0, "all spans must be closed");
        // The sweep is the run's only top-level span, so it becomes the root.
        let sweep = profiler.tree();
        assert_eq!(sweep.name, PHASE_SWEEP);
        assert_eq!(sweep.count, 1);
        assert_eq!(
            sweep.child(PHASE_SCALARIZE).map(|n| n.count),
            Some(lambdas.len() as u64)
        );
        assert_eq!(sweep.child(PHASE_FILTER).map(|n| n.count), Some(1));
        // The inner solver's "total" span nests under the sweep, once per λ.
        let total = sweep
            .child(crate::telemetry::PHASE_TOTAL)
            .expect("solver total span nests under sweep");
        assert_eq!(total.count, lambdas.len() as u64);
    }

    #[test]
    fn parallel_sweep_matches_serial_points_and_counters() {
        let s = system();
        let lambdas: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![i as f64 / 7.0, 1.0 - i as f64 / 7.0])
            .collect();
        let mut serial_m = crate::telemetry::MetricsRecorder::new();
        let serial = sweep(&s, 1, 0.5, &lambdas, 1, &mut serial_m).unwrap();
        let mut par_m = crate::telemetry::MetricsRecorder::new();
        let par = sweep(&s, 1, 0.5, &lambdas, 4, &mut par_m).unwrap();
        assert_eq!(serial, par);
        assert_eq!(par_m.selections, serial_m.selections);
        assert_eq!(par_m.benefits_computed, serial_m.benefits_computed);
        assert_eq!(par_m.guesses, serial_m.guesses);
        for sp in serial_m.phases() {
            let pp = par_m.phases().iter().find(|p| p.name == sp.name).unwrap();
            assert_eq!(pp.count, sp.count, "phase {}", sp.name);
        }
    }

    #[test]
    fn parallel_sweep_propagates_error_like_serial() {
        let mut s = MultiWeightSystem::new(4, 1);
        s.add_set([0], vec![1.0]).unwrap();
        let mut profiler = crate::telemetry::SpanProfiler::new();
        let err = sweep(&s, 1, 1.0, &[vec![1.0], vec![2.0]], 4, &mut profiler).unwrap_err();
        assert!(matches!(err, MultiWeightError::Solve(_)));
        assert_eq!(profiler.open_spans(), 0, "error paths must close spans");
    }

    #[test]
    fn sweep_span_closed_on_scalarize_error() {
        let s = system();
        let mut profiler = crate::telemetry::SpanProfiler::new();
        let err = sweep(&s, 1, 0.5, &[vec![1.0]], 1, &mut profiler).unwrap_err();
        assert!(matches!(err, MultiWeightError::WrongArity { .. }));
        assert_eq!(profiler.open_spans(), 0, "error paths must close spans");
    }

    mod within {
        use super::*;
        use crate::telemetry::MetricsRecorder;

        fn lambdas() -> Vec<Vec<f64>> {
            (0..6)
                .map(|i| vec![i as f64 / 5.0, 1.0 - i as f64 / 5.0])
                .collect()
        }

        #[test]
        fn tick_budget_degrades_with_progress_certificate() {
            let s = system();
            for budget in [0u64, 1, 3] {
                let run = |threads: usize| {
                    let pool = ThreadPool::new(Threads::new(threads));
                    let deadline = Deadline::unbounded().with_tick_budget(budget);
                    pareto_sweep(
                        &s,
                        1,
                        0.5,
                        &lambdas(),
                        &pool,
                        &deadline,
                        &mut MetricsRecorder::new(),
                    )
                    .unwrap()
                };
                let serial = run(1);
                assert_eq!(serial, run(4), "budget {budget}");
                let SolveOutcome::Degraded(d) = serial else {
                    panic!("budget {budget} cannot finish 6 lambdas");
                };
                assert_eq!(d.certificate.reason, DegradeReason::TickBudget);
                assert_eq!(d.certificate.target, 6);
                assert!(d.certificate.covered < 6);
                assert_eq!(d.certificate.sets_used, d.partial.len());
            }
        }

        #[test]
        fn solver_failure_propagates() {
            let mut s = MultiWeightSystem::new(4, 1);
            s.add_set([0], vec![1.0]).unwrap();
            let pool = ThreadPool::new(Threads::serial());
            let err = pareto_sweep(
                &s,
                1,
                1.0,
                &[vec![1.0]],
                &pool,
                &Deadline::unbounded(),
                &mut MetricsRecorder::new(),
            )
            .unwrap_err();
            assert!(matches!(err, MultiWeightError::Solve(_)));
        }
    }
}
