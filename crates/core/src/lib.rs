//! # scwsc-core
//!
//! Size-Constrained Weighted Set Cover over arbitrary set systems — a
//! from-scratch Rust implementation of the algorithms of
//! *"Size-Constrained Weighted Set Cover"* (Golab, Korn, Li, Saha,
//! Srivastava; ICDE 2015).
//!
//! Given `n` elements, weighted sets over them, a size bound `k`, and a
//! coverage fraction `ŝ`, the problem asks for at most `k` sets covering
//! at least `ŝ·n` elements at minimum total weight (Definition 1). The
//! problem simultaneously constrains *coverage*, *cost*, and *size*;
//! Section IV of the paper shows no true approximation exists, which is
//! why the two solvers trade off different corners:
//!
//! * [`algorithms::cwsc()`] (Fig. 2) returns at most `k` sets and meets the
//!   coverage requirement, with no worst-case cost guarantee;
//! * [`algorithms::cmc()`] (Fig. 1 / §V-A3) returns at most `5k` (or
//!   `(1+ε)k`) sets covering `(1−1/e)·ŝ·n` elements at cost within a
//!   logarithmic factor of optimal (Theorems 4–5).
//!
//! ```
//! use scwsc_core::{algorithms, Deadline, SetSystem, Stats, ThreadPool, Threads};
//!
//! let mut b = SetSystem::builder(6);
//! b.add_set([0, 1, 2], 3.0)
//!     .add_set([3, 4], 1.0)
//!     .add_set([5], 1.0)
//!     .add_universe_set(50.0); // Definition 1 requires a universe set
//! let system = b.build().unwrap();
//!
//! // Every solver takes a thread pool and a deadline; an unbounded
//! // deadline always completes.
//! let pool = ThreadPool::new(Threads::serial());
//! let solution = algorithms::cwsc(&system, 2, 0.8, &pool, &Deadline::unbounded(), &mut Stats::new())
//!     .unwrap()
//!     .expect_complete("an unbounded deadline never expires");
//! assert!(solution.size() <= 2);
//! assert!(solution.covered() >= 5); // ⌈0.8 · 6⌉
//! ```
//!
//! The patterned-set specialization (data-cube patterns over relational
//! tables, Sections II and V-C) lives in the companion `scwsc-patterns`
//! crate.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod algorithms;
pub mod bitset;
pub mod cli;
pub mod cost;
pub mod cover_state;
pub mod engine;
pub mod incremental;
pub mod json;
pub mod multiweight;
pub mod set_system;
pub mod solution;
pub mod solver;
pub mod stats;
pub mod telemetry;

pub use bitset::{BitSet, BlockSummary, LimitedCount};
pub use cost::{Cost, CostError};
pub use cover_state::{Candidate, CoverState};
#[cfg(feature = "fault-inject")]
pub use engine::FaultPlan;
pub use engine::{
    panic_message, CancelToken, Certificate, Deadline, DegradeReason, Degraded, EngineError,
    SolveOutcome, ThreadPool, Threads, TickProbe,
};
pub use json::Json;
pub use set_system::{coverage_target, BuildError, ElementId, SetId, SetSystem, WeightedSet};
pub use solution::{
    verify, verify_certificate, CertificateCheck, Requirements, Solution, SolveError, Verification,
};
pub use solver::{Algorithm, Answer, CostModel, Query, Solver, SystemInstance};
pub use stats::Stats;
pub use telemetry::{
    audit, parse_prometheus, render_prometheus, render_prometheus_windowed, Event, EventLog,
    Fanout, FlightRecorder, JsonlSink, LogHistogram, MetricsRecorder, NoopObserver, Observer,
    PhaseMetric, PhaseSpan, PruneReason, SloGauges, SolveSample, SolveWindows, SpanCounters,
    SpanNode, SpanProfiler, TraceContext, TraceId, Watchdog, WatchdogMonitor, PHASE_EXPAND,
    PHASE_GUESS, PHASE_INIT, PHASE_SELECT, PHASE_TOTAL,
};
