//! # scwsc-bench
//!
//! Experiment harness reproducing every figure and table of the ICDE 2015
//! evaluation (Section VI). Each `src/bin/*` binary regenerates one
//! figure/table; `run_all` executes the full suite and writes the results
//! under `results/`. The `scwsc_bench` binary records and compares the
//! performance snapshots (`BENCH_*.json`) over the workload `registry`.
//!
//! Workloads are synthetic LBL-CONN-7-like traces (see `scwsc-data` and
//! DESIGN.md §4); every binary accepts `--rows` and `--seed` so runs are
//! reproducible and scalable to the machine at hand.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attribute;
pub mod chrome_trace;
pub mod cli;
pub mod diff;
pub mod experiments;
pub mod measure;
pub mod printers;
pub mod record;
pub mod registry;
pub mod report;
pub mod serve_load;
pub mod snapshot;
pub mod soak;
pub mod trend;

pub use measure::{run, Algo, Measurement, RunParams};
