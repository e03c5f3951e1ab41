//! # scwsc-serve
//!
//! Solver-as-a-service for Size-Constrained Weighted Set Cover: the
//! long-lived `scwsc_serve` process loads one instance (a weighted set
//! system or a pattern table) behind an `Arc` and answers
//! `(algorithm, k, ŝ, cost_fn, deadline)` queries over line-delimited
//! JSON on TCP — hand-rolled on `std::net`, no async runtime
//! (DESIGN.md §17).
//!
//! The robustness contract, layer by layer:
//!
//! * [`protocol`] — one JSON object per line, both directions; four
//!   response statuses (`complete` / `degraded` / `rejected` / `error`).
//! * [`cache`] — LRU over canonicalized queries; hits bypass admission.
//! * [`admission`] — bounded queue + tick-budget accounting; brownout
//!   tiers shrink grants under sustained load (*degrade, don't drop*);
//!   full queues reject with an explicit Retry-After.
//! * [`dispatch`] — per-request deadlines (caller budget minus queue
//!   wait), `catch_unwind` panic isolation with one seeded-backoff
//!   retry, certificate re-verification of every degraded answer, and
//!   continuous [`SolveWindows`](scwsc_core::SolveWindows) /
//!   Prometheus / flight-recorder telemetry.
//! * [`server`] — the TCP accept loop, per-connection threads, service
//!   fault injection (slow reads, mid-request disconnects), and
//!   graceful drain on SIGTERM/SIGINT: finish in-flight work, reject
//!   new work, flush telemetry, then exit.
//!
//! Every admitted request is answered `complete`, certified `degraded`,
//! or `error` — never dropped, never hung.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod dispatch;
pub mod protocol;
pub mod server;

pub use admission::{Admission, AdmissionConfig, BrownoutConfig, Gate, GateSnapshot, Ticket};
pub use cache::{canonical_key, ResultCache};
pub use dispatch::{ServeCounters, ServerConfig, ServerState, SERVE_ENTRY};
pub use protocol::{Request, Response, Status};
pub use server::{install_signal_handlers, serve, ServeOptions, ServeSummary, ShutdownFlag};
