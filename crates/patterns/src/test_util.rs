//! Deterministic synthetic tables for tests and property tests.
//!
//! Kept in the library (rather than `#[cfg(test)]`) so integration tests
//! and the property-test suite can reuse it; it is `doc(hidden)` because
//! real workload generation lives in `scwsc-data`.

#![doc(hidden)]

use crate::pattern::Pattern;
use crate::space::{ChildVisitor, LatticeSpace, PatternSpace};
use crate::table::{RowId, Table};

/// Tiny deterministic PRNG (xorshift64*), so tests need no external seed
/// plumbing.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the generator; zero seeds are fixed up.
    pub fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Skewed value in `0..bound`: low ids are much more likely
    /// (quadratic skew, a cheap stand-in for a Zipf-like head).
    pub fn skewed_below(&mut self, bound: u64) -> u64 {
        let b = bound.max(1);
        let u = self.below(b * b);
        // sqrt of a uniform draw concentrates near the top of 0..b;
        // mirror it so id 0 is the heavy head.
        (b - 1) - ((u as f64).sqrt() as u64).min(b - 1)
    }
}

/// A deterministic table with `rows` records over `attrs` attributes whose
/// active domains have `cardinality` skewed values each; measures are
/// integer-ish and heavy-tailed.
pub fn skewed_table(rows: usize, attrs: usize, cardinality: u64) -> Table {
    let names: Vec<String> = (0..attrs).map(|a| format!("attr{a}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut b = Table::builder(&name_refs, "measure");
    let mut rng = XorShift::new(0x5eed + rows as u64 * 31 + attrs as u64);
    let mut vals: Vec<String> = Vec::with_capacity(attrs);
    for _ in 0..rows {
        vals.clear();
        for a in 0..attrs {
            // Correlate later attributes slightly with the first one so
            // multi-attribute patterns have meaningful benefit sets.
            let base = rng.skewed_below(cardinality);
            let v = if a > 0 && rng.below(4) == 0 { 0 } else { base };
            vals.push(format!("v{v}"));
        }
        let refs: Vec<&str> = vals.iter().map(String::as_str).collect();
        let measure = 1.0 + rng.below(100) as f64 + if rng.below(20) == 0 { 400.0 } else { 0.0 };
        b.push_row(&refs, measure)
            .expect("generated rows are valid");
    }
    b.build()
}

/// The paper's Table I entities data set (16 records).
#[cfg(test)]
pub(crate) fn entities() -> Table {
    let mut b = Table::builder(&["Type", "Location"], "Cost");
    for (t, l, c) in [
        ("A", "West", 10.0),
        ("A", "Northeast", 32.0),
        ("B", "South", 2.0),
        ("A", "North", 4.0),
        ("B", "East", 7.0),
        ("A", "Northwest", 20.0),
        ("B", "West", 4.0),
        ("B", "Southwest", 24.0),
        ("A", "Southwest", 4.0),
        ("B", "Northwest", 4.0),
        ("A", "North", 3.0),
        ("B", "Northeast", 3.0),
        ("B", "South", 1.0),
        ("B", "North", 20.0),
        ("A", "East", 3.0),
        ("A", "South", 96.0),
    ] {
        b.push_row(&[t, l], c).unwrap();
    }
    b.build()
}

/// Unwraps an unbounded solve to its complete value or solve error.
#[cfg(test)]
pub(crate) fn complete<T>(
    result: Result<scwsc_core::SolveOutcome<T>, scwsc_core::EngineError>,
) -> Result<T, scwsc_core::SolveError> {
    match result {
        Ok(outcome) => Ok(outcome.expect_complete("unbounded deadline")),
        Err(scwsc_core::EngineError::Solve(e)) => Err(e),
        Err(e) => panic!("{e}"),
    }
}

/// A [`PatternSpace`] whose `packed_key_bits` keeps the default `None`,
/// so the lattice over it keys nodes by pattern and asks
/// [`LatticeSpace::parents`] for parents, as over a hierarchy space.
pub struct GeneralKeys<'a>(pub PatternSpace<'a>);

impl LatticeSpace for GeneralKeys<'_> {
    fn table(&self) -> &Table {
        self.0.table()
    }

    fn root(&self) -> Pattern {
        self.0.root()
    }

    fn cost(&self, rows: &[RowId]) -> f64 {
        self.0.cost(rows)
    }

    fn for_each_child(&self, pattern: &Pattern, rows: &[RowId], f: &mut ChildVisitor<'_>) {
        self.0.for_each_child(pattern, rows, f)
    }

    fn parents(&self, pattern: &Pattern) -> Vec<Pattern> {
        LatticeSpace::parents(&self.0, pattern)
    }

    fn num_parents(&self, pattern: &Pattern) -> usize {
        LatticeSpace::num_parents(&self.0, pattern)
    }

    fn benefit(&self, pattern: &Pattern) -> Vec<RowId> {
        self.0.benefit(pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = skewed_table(50, 3, 5);
        let b = skewed_table(50, 3, 5);
        assert_eq!(a, b);
        assert_eq!(a.num_rows(), 50);
        assert_eq!(a.num_attrs(), 3);
    }

    #[test]
    fn skew_produces_head_heavy_domains() {
        let mut rng = XorShift::new(7);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[rng.skewed_below(8) as usize] += 1;
        }
        assert!(
            counts[0] > counts[7] * 2,
            "head value should dominate: {counts:?}"
        );
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = XorShift::new(3);
        for _ in 0..1000 {
            assert!(rng.below(13) < 13);
        }
        assert_eq!(rng.below(1), 0);
    }
}
