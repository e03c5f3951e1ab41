//! Shared entry-point plumbing for the experiment binaries.

use crate::report::TextTable;
use scwsc_core::cli::Args;

/// Exit codes of the solver binaries' error taxonomy (DESIGN.md §12).
/// Code 0 is success, 1 is an internal fault (e.g. a solver worker that
/// panicked twice); the rest distinguish the expected failure families so
/// scripts can branch without parsing stderr.
pub mod exit_code {
    /// Bad command-line arguments or flag values.
    pub const BAD_ARGS: i32 = 2;
    /// Unreadable or malformed input data.
    pub const BAD_INPUT: i32 = 3;
    /// The instance is infeasible for the requested constraints
    /// ([`scwsc_core::SolveError`]).
    pub const INFEASIBLE: i32 = 4;
    /// The deadline expired: a degraded partial solution and its
    /// certificate were printed.
    pub const DEADLINE_DEGRADED: i32 = 5;
}

/// Prints `error: message` and exits with the given taxonomy code.
pub fn exit_with(code: i32, message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(code)
}

/// Parses process arguments or exits with code 2 and a usage hint.
pub fn args_or_exit(usage: &str) -> Args {
    match Args::from_env() {
        Ok(args) => {
            if args.flag("help") {
                eprintln!("{usage}");
                std::process::exit(0);
            }
            args
        }
        Err(e) => {
            eprintln!("error: {e}\n{usage}");
            std::process::exit(2);
        }
    }
}

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

/// Exits with a parse error message ([`exit_code::BAD_ARGS`]).
pub fn bail(message: &str) -> ! {
    exit_with(exit_code::BAD_ARGS, message)
}

/// Unwraps an argument parse result via [`bail`].
pub fn required<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| bail(&e))
}
