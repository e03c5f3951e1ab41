//! Tiny `--key value` argument parser and exit helpers for the
//! workspace binaries.
//!
//! No external CLI crate is in the approved dependency set, and the
//! binaries need only `--rows 100000 --seed 7`-style overrides, so this
//! does exactly that: `--key value` pairs and `--flag` booleans. It
//! lives here rather than in `scwsc-bench` so that `scwsc_serve`
//! (DESIGN.md §17) shares it without depending on the bench crate.
//!
//! A binary's usage text is its flag list: [`args_or_exit`] rejects any
//! `--name` the text does not mention (`--help` always passes), so a
//! misspelled flag fails instead of silently running with defaults.

use std::collections::BTreeMap;

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
    /// ([`SolveError`](crate::SolveError)).
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

/// Exits with a parse error message ([`exit_code::BAD_ARGS`]).
pub fn bail(message: &str) -> ! {
    exit_with(exit_code::BAD_ARGS, message)
}

/// Unwraps an argument parse result via [`bail`].
pub fn required<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| bail(&e))
}

/// Parses the process arguments, rejecting any flag `usage` does not
/// mention. `--help` prints `usage` and exits 0; an error exits with
/// code 2 and the usage.
pub fn args_or_exit(usage: &str) -> Args {
    let parsed = Args::parse(std::env::args().skip(1));
    match parsed.and_then(|args| args.check_known(usage).map(|()| args)) {
        Ok(args) if args.flag("help") => {
            eprintln!("{usage}");
            std::process::exit(0);
        }
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{usage}");
            std::process::exit(exit_code::BAD_ARGS);
        }
    }
}

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses from an iterator of raw arguments (skip the program name
    /// before calling, or use [`args_or_exit`]).
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            if key.is_empty() {
                return Err("empty flag name".to_owned());
            }
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    out.values.insert(key.to_owned(), value);
                }
                _ => out.flags.push(key.to_owned()),
            }
        }
        Ok(out)
    }

    /// Fails naming the first flag, other than `--help`, that `usage`
    /// does not mention as `--name`.
    fn check_known(&self, usage: &str) -> Result<(), String> {
        let words = usage.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
        let known: Vec<&str> = words.filter_map(|w| w.strip_prefix("--")).collect();
        let mut names = self.values.keys().chain(&self.flags).map(String::as_str);
        match names.find(|&name| name != "help" && !known.contains(&name)) {
            Some(name) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }

    /// A `--flag` with no value.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A string value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A parsed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    /// A comma-separated list value with a default.
    pub fn get_list_or<T>(&self, name: &str, default: &[T]) -> Result<Vec<T>, String>
    where
        T: std::str::FromStr + Clone,
    {
        match self.values.get(name) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|part| {
                    part.trim()
                        .parse()
                        .map_err(|_| format!("--{name}: cannot parse {part:?}"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse(args.iter().map(|s| (*s).to_owned())).unwrap()
    }

    #[test]
    fn key_value_pairs() {
        let a = parse(&["--rows", "5000", "--seed", "7"]);
        assert_eq!(a.get_or("rows", 0usize).unwrap(), 5000);
        assert_eq!(a.get_or("seed", 0u64).unwrap(), 7);
        assert_eq!(a.get_or("missing", 42u32).unwrap(), 42);
    }

    #[test]
    fn flags() {
        let a = parse(&["--full", "--rows", "10"]);
        assert!(a.flag("full"));
        assert!(!a.flag("quick"));
        assert_eq!(a.get_or("rows", 0usize).unwrap(), 10);
    }

    #[test]
    fn lists() {
        let a = parse(&["--sizes", "10, 20,30"]);
        assert_eq!(a.get_list_or("sizes", &[1usize]).unwrap(), vec![10, 20, 30]);
        assert_eq!(a.get_list_or("other", &[1usize, 2]).unwrap(), vec![1, 2]);
    }

    #[test]
    fn errors() {
        assert!(Args::parse(["positional".to_owned()]).is_err());
        let a = parse(&["--rows", "abc"]);
        assert!(a.get_or("rows", 0usize).is_err());
    }

    #[test]
    fn flags_must_appear_in_the_usage_text() {
        let usage = "tool [--rows N] [--deadline-ms N] [--quick]\nProse naming <--fault>.";
        let check = |args: &[&str]| parse(args).check_known(usage);
        assert!(check(&["--deadline-ms", "1", "--quick", "--fault", "x"]).is_ok());
        assert!(check(&["--help"]).is_ok());
        let err = check(&["--rows", "5", "--fualt", "x"]).unwrap_err();
        assert_eq!(err, "unknown flag --fualt");
        // A prefix of a mentioned flag is not that flag.
        assert!(check(&["--deadline"]).is_err());
    }

    #[test]
    fn get_raw() {
        let a = parse(&["--name", "hello"]);
        assert_eq!(a.get("name"), Some("hello"));
        assert_eq!(a.get("other"), None);
    }
}
