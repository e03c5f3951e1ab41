//! # scwsc-patterns
//!
//! The patterned-set specialization of Size-Constrained Weighted Set Cover
//! (Sections II and V-C of the ICDE 2015 paper): the elements are records
//! of a relational table, and the sets to choose from are data-cube
//! *patterns* — conjunctions of attribute values with `ALL` wildcards —
//! weighted by an aggregate of a numeric measure over the records they
//! cover.
//!
//! Two execution paths are provided:
//!
//! * **unoptimized** — [`enumerate::enumerate_all`] materializes the full
//!   pattern cube as a `scwsc_core::SetSystem` and the general algorithms
//!   run on it (what the paper's Figures 5–6 call "CMC"/"CWSC");
//! * **optimized** — [`opt_cwsc::opt_cwsc`] and [`opt_cmc::opt_cmc`] walk
//!   the pattern lattice top-down, materializing only patterns whose
//!   marginal benefit can still matter ("optimized CMC/CWSC").
//!
//! ```
//! use scwsc_patterns::{CostFn, PatternSpace, Table, opt_cwsc::opt_cwsc};
//! use scwsc_core::{Deadline, NoopObserver};
//!
//! let mut b = Table::builder(&["Type", "Location"], "Cost");
//! b.push_row(&["A", "West"], 10.0).unwrap();
//! b.push_row(&["B", "South"], 2.0).unwrap();
//! b.push_row(&["B", "West"], 4.0).unwrap();
//! let table = b.build();
//!
//! let space = PatternSpace::new(&table, CostFn::Max);
//! let solution = opt_cwsc(&space, 2, 1.0, &Deadline::unbounded(), &mut NoopObserver)
//!     .unwrap()
//!     .expect_complete("an unbounded deadline never expires");
//! assert!(solution.size() <= 2);
//! assert_eq!(solution.covered, 3);
//! println!("{}", solution.display(&space));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost_fn;
pub mod dictionary;
pub mod enumerate;
pub mod fxhash;
pub mod hierarchy;
pub mod index;
pub mod instance;
mod lattice;
pub mod opt_cmc;
pub mod opt_cwsc;
pub mod pattern;
pub mod pattern_solution;
#[cfg(test)]
mod prune_parity;
pub mod reductions;
pub mod space;
pub mod table;
pub mod test_util;

pub use cost_fn::CostFn;
pub use dictionary::{Dictionary, ValueId};
pub use enumerate::{enumerate_all, MaterializedPatterns};
pub use hierarchy::{enumerate_hierarchical, HierarchicalSpace, Hierarchy};
pub use index::InvertedIndex;
pub use instance::PatternInstance;
pub use opt_cmc::opt_cmc;
pub use opt_cwsc::opt_cwsc;
pub use pattern::Pattern;
pub use pattern_solution::{verify_certificate_in, PatternSolution};
pub use space::{LatticeSpace, PatternSpace};
pub use table::{RowId, Table, TableBuilder, TableError};
