//! Shared entry-point plumbing for the experiment binaries.

use crate::report::TextTable;
use scwsc_core::cli::Args;
pub use scwsc_core::cli::{args_or_exit, required};

/// Prints a titled table; with `--csv <path>` also writes it as CSV.
pub fn emit(title: &str, table: &TextTable, args: &Args) {
    println!("== {title} ==");
    println!("{}", table.render());
    if let Some(path) = args.get("csv") {
        if let Err(e) = std::fs::write(path, table.to_csv()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("csv written to {path}");
    }
}
