//! Property tests for the telemetry layer: on random set systems, the
//! event stream any [`Observer`] sees is consistent with the legacy
//! [`Stats`] counters, and every `guess_started` comes with the level
//! schedule the guess actually built — whose quotas respect the `5k`
//! (classic) / `(1+ε)k` (epsilon) size bounds of Theorems 4–5.

use proptest::prelude::*;
use scwsc::prelude::*;
use scwsc::sets::algorithms::cmc::Levels;
use scwsc::sets::algorithms::cmc_on;
use scwsc::sets::telemetry::{Event, Observer};
use scwsc::sets::{Fanout, SolveWindows, ThreadPool, Threads};

/// Minimal event recorder: exactly what the properties below inspect.
#[derive(Default)]
struct Recorder {
    benefit_sum: u64,
    selections: u64,
    budgets: Vec<Option<f64>>,
    /// One `(level, allowance)` list per `guess_started`.
    schedules: Vec<Vec<(usize, usize)>>,
}

impl Observer for Recorder {
    fn on(&mut self, event: &Event<'_>) {
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

/// Runs `solve` with `Stats` and a [`Recorder`] fanned out side by side.
fn record<R>(solve: impl FnOnce(&mut Fanout<'_>) -> R) -> (R, Stats, Recorder) {
    let mut stats = Stats::new();
    let mut rec = Recorder::default();
    let result = {
        let mut obs = Fanout::new();
        obs.attach(&mut stats).attach(&mut rec);
        solve(&mut obs)
    };
    (result, stats, rec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// CWSC: the event stream reproduces the Stats counters, and the
    /// single round appears as exactly one budget-less guess.
    #[test]
    fn cwsc_events_match_stats(
        system in arb_system(),
        k in 1usize..=6,
        coverage in 0.0f64..=1.0,
    ) {
        let (result, stats, rec) =
            record(|obs| cwsc(&system, k, coverage, obs));
        prop_assert!(result.is_ok());
        prop_assert_eq!(rec.benefit_sum, stats.considered);
        prop_assert_eq!(rec.selections, u64::from(stats.selections));
        prop_assert_eq!(rec.budgets.len(), stats.budget_guesses as usize);
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
        let (result, stats, rec) =
            record(|obs| cmc(&system, &params, obs));
        prop_assert!(result.is_ok());
        prop_assert_eq!(rec.benefit_sum, stats.considered);
        prop_assert_eq!(rec.selections, u64::from(stats.selections));
        prop_assert_eq!(rec.budgets.len(), stats.budget_guesses as usize);
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
        let (result, stats, rec) =
            record(|obs| cmc(&system, &params, obs));
        prop_assert!(result.is_ok());
        prop_assert_eq!(rec.budgets.len(), stats.budget_guesses as usize);
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

    /// Sliding-window telemetry parity (DESIGN.md §16): feeding the same
    /// sequence of solves through [`SolveWindows`] yields bit-identical
    /// windowed counters, high-watermarks, and quantile histograms for
    /// `Threads(1)` and `Threads(4)` — including across window rollovers,
    /// because windows advance on solve-sequence boundaries, never wall
    /// clock, and the per-solve samples are deterministic counters.
    #[test]
    fn windowed_telemetry_is_thread_count_invariant(
        systems in proptest::collection::vec(arb_system(), 5..=8),
        k in 1usize..=5,
        coverage in 0.0f64..=1.0,
    ) {
        // A window smaller than the solve count forces rollovers.
        let window = 3;
        let mut serial = SolveWindows::with_window(window);
        let mut pooled = SolveWindows::with_window(window);
        let pool = ThreadPool::new(Threads::new(4));
        let params = CmcParams::classic(k, coverage, 1.0);
        for system in &systems {
            let r1 = {
                let mut obs = Fanout::new();
                obs.attach(&mut serial);
                cmc(system, &params, &mut obs)
            };
            let r2 = {
                let mut obs = Fanout::new();
                obs.attach(&mut pooled);
                cmc_on(system, &params, &pool, &mut obs)
            };
            prop_assert_eq!(r1.is_ok(), r2.is_ok());
        }
        prop_assert_eq!(serial.solves(), systems.len() as u64);
        prop_assert!(serial.rollovers() > 0, "windows rolled over");
        prop_assert_eq!(&serial, &pooled);
    }

    /// The optimized pattern-lattice CWSC reports the same invariants over
    /// its own event vocabulary: one budget-less guess, selections equal to
    /// the solution size, and Stats agreement.
    #[test]
    fn opt_cwsc_events_match_stats(rows in 30usize..120, k in 1usize..=5) {
        let table = scwsc::patterns::test_util::skewed_table(rows, 3, 4);
        let space = PatternSpace::new(&table, CostFn::Max);
        let (result, stats, rec) =
            record(|obs| opt_cwsc(&space, k, 0.5, obs));
        if let Ok(sol) = result {
            prop_assert_eq!(rec.selections as usize, sol.size());
        }
        prop_assert_eq!(rec.benefit_sum, stats.considered);
        prop_assert_eq!(rec.selections, u64::from(stats.selections));
        prop_assert!(rec.budgets.len() <= 1);
        prop_assert!(rec.budgets.iter().all(Option::is_none));
    }
}

/// Windowed parity must also hold when solves *degrade*: a fault-injected
/// tick budget forces the engine down the degradation ladder, and the
/// degraded-rate windows still come out bit-identical across thread
/// counts (tick-addressed deadlines are tick-deterministic by contract).
#[cfg(feature = "fault-inject")]
mod degraded_windows {
    use super::*;
    use scwsc::sets::algorithms::cmc_within;
    use scwsc::sets::{Deadline, FaultPlan};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn windowed_telemetry_parity_holds_for_degraded_solves(
            systems in proptest::collection::vec(arb_system(), 4..=6),
            k in 1usize..=4,
            ticks in 1u64..=12,
            cancel_at in 1u64..=20,
        ) {
            let window = 3;
            let mut serial = SolveWindows::with_window(window);
            let mut pooled = SolveWindows::with_window(window);
            let serial_pool = ThreadPool::new(Threads::serial());
            let quad_pool = ThreadPool::new(Threads::new(4));
            let params = CmcParams::classic(k, 0.9, 1.0);
            for system in &systems {
                let deadline = || {
                    Deadline::unbounded()
                        .with_tick_budget(ticks)
                        .with_fault_plan(FaultPlan::new().cancel_at_tick(cancel_at))
                };
                let r1 = {
                    let mut obs = Fanout::new();
                    obs.attach(&mut serial);
                    cmc_within(system, &params, &serial_pool, &deadline(), &mut obs)
                };
                let r2 = {
                    let mut obs = Fanout::new();
                    obs.attach(&mut pooled);
                    cmc_within(system, &params, &quad_pool, &deadline(), &mut obs)
                };
                prop_assert_eq!(r1.is_ok(), r2.is_ok());
            }
            prop_assert_eq!(&serial, &pooled);
        }
    }
}
