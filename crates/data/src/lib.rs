//! # scwsc-data
//!
//! Data sets for the SCWSC reproduction:
//!
//! * [`entities`] — the paper's Table I running example (16 records) with
//!   the Table II pattern inventory;
//! * [`lbl`] — a seeded generator for an LBL-CONN-7-like TCP connection
//!   trace (the paper's real workload is not redistributable; see
//!   DESIGN.md §4 for why the synthetic stand-in preserves the evaluated
//!   behaviour);
//! * [`perturb`] — the Section VI-B synthetic weight perturbations
//!   (δ-uniform noise and log-normal re-ranking);
//! * [`distributions`] — Zipf and log-normal samplers built on `rand`;
//! * [`csv`] — minimal CSV persistence for tables.
//!
//! ```
//! use scwsc_data::lbl::LblConfig;
//!
//! let table = LblConfig { rows: 500, ..LblConfig::scaled(500) }.generate();
//! assert_eq!(table.num_rows(), 500);
//! assert_eq!(table.num_attrs(), 5); // protocol..flags, like the paper
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csv;
pub mod distributions;
pub mod entities;
pub mod lbl;
pub mod perturb;

pub use entities::{entities_table, table2_pattern};
pub use lbl::LblConfig;
pub use perturb::{lognormal_rerank, uniform_noise};
