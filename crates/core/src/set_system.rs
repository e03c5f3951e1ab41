//! The input model: a collection of weighted sets over `n` elements.
//!
//! Elements are dense ids `0..n`; each set stores a sorted, deduplicated
//! posting list of element ids plus its [`Cost`]. Definition 1 of the paper
//! additionally requires the collection to contain a set covering all
//! elements (for patterns, the all-`ALL` pattern) so a feasible solution
//! always exists; [`SetSystem::has_universe_set`] exposes that check and the
//! algorithms rely on it for their termination guarantees.

use crate::bitset::BitSet;
use crate::cost::{Cost, CostError};
use std::fmt;

/// Dense element identifier (`0..n`).
pub type ElementId = u32;

/// Index of a set within a [`SetSystem`].
pub type SetId = u32;

/// One weighted set: a sorted posting list of elements plus a cost.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WeightedSet {
    members: Vec<ElementId>,
    cost: Cost,
}

impl WeightedSet {
    /// Sorted, deduplicated element ids covered by this set (`Ben(s)`).
    #[inline]
    pub fn members(&self) -> &[ElementId] {
        &self.members
    }

    /// `|Ben(s)|`.
    #[inline]
    pub fn benefit(&self) -> usize {
        self.members.len()
    }

    /// `Cost(s)`.
    #[inline]
    pub fn cost(&self) -> Cost {
        self.cost
    }
}

/// Errors raised while building a [`SetSystem`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// A set referenced an element id `>= n`.
    ElementOutOfRange {
        /// Offending set index (in insertion order).
        set: usize,
        /// The out-of-range element id.
        element: ElementId,
        /// Number of elements in the system.
        num_elements: usize,
    },
    /// A set weight failed [`Cost`] validation.
    InvalidCost {
        /// Offending set index (in insertion order).
        set: usize,
        /// Underlying cost error.
        source: CostError,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ElementOutOfRange {
                set,
                element,
                num_elements,
            } => write!(
                f,
                "set {set} references element {element} but the system has {num_elements} elements"
            ),
            BuildError::InvalidCost { set, source } => {
                write!(f, "set {set} has an invalid cost: {source}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`SetSystem`]; validates costs and element ranges.
#[derive(Debug, Clone)]
pub struct SetSystemBuilder {
    num_elements: usize,
    sets: Vec<WeightedSet>,
    error: Option<BuildError>,
}

impl SetSystemBuilder {
    /// Starts a system over elements `0..num_elements`.
    pub fn new(num_elements: usize) -> Self {
        SetSystemBuilder {
            num_elements,
            sets: Vec::new(),
            error: None,
        }
    }

    /// Adds a set given raw members and an `f64` weight.
    ///
    /// Members are sorted and deduplicated; errors are deferred to
    /// [`SetSystemBuilder::build`].
    pub fn add_set(
        &mut self,
        members: impl IntoIterator<Item = ElementId>,
        cost: f64,
    ) -> &mut Self {
        if self.error.is_some() {
            return self;
        }
        let idx = self.sets.len();
        let cost = match Cost::new(cost) {
            Ok(c) => c,
            Err(source) => {
                self.error = Some(BuildError::InvalidCost { set: idx, source });
                return self;
            }
        };
        let mut members: Vec<ElementId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        if let Some(&bad) = members.iter().find(|&&e| e as usize >= self.num_elements) {
            self.error = Some(BuildError::ElementOutOfRange {
                set: idx,
                element: bad,
                num_elements: self.num_elements,
            });
            return self;
        }
        self.sets.push(WeightedSet { members, cost });
        self
    }

    /// Adds the universe set (all of `0..n`) with the given weight.
    pub fn add_universe_set(&mut self, cost: f64) -> &mut Self {
        let n = self.num_elements as ElementId;
        self.add_set(0..n, cost)
    }

    /// Finalizes the system.
    pub fn build(&mut self) -> Result<SetSystem, BuildError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        Ok(SetSystem {
            num_elements: self.num_elements,
            sets: std::mem::take(&mut self.sets),
        })
    }
}

/// A finalized collection of weighted sets over `0..n` elements.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SetSystem {
    num_elements: usize,
    sets: Vec<WeightedSet>,
}

impl SetSystem {
    /// Starts building a system over `num_elements` elements.
    pub fn builder(num_elements: usize) -> SetSystemBuilder {
        SetSystemBuilder::new(num_elements)
    }

    /// Number of elements `n = |T|`.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Number of sets in the collection.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// The set with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn set(&self, id: SetId) -> &WeightedSet {
        &self.sets[id as usize]
    }

    /// Iterates over `(id, set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SetId, &WeightedSet)> {
        self.sets.iter().enumerate().map(|(i, s)| (i as SetId, s))
    }

    /// Shorthand for `self.set(id).cost()`.
    #[inline]
    pub fn cost(&self, id: SetId) -> Cost {
        self.set(id).cost()
    }

    /// Shorthand for `self.set(id).members()`.
    #[inline]
    pub fn members(&self, id: SetId) -> &[ElementId] {
        self.set(id).members()
    }

    /// Sum of weights over all sets (the CMC guess-loop upper bound).
    pub fn total_cost(&self) -> Cost {
        self.sets.iter().map(|s| s.cost).sum()
    }

    /// Whether some set covers every element (Definition 1's feasibility
    /// requirement).
    pub fn has_universe_set(&self) -> bool {
        self.sets
            .iter()
            .any(|s| s.members.len() == self.num_elements)
    }

    /// Union coverage of a sub-collection, as a bitset over elements.
    pub fn coverage_of(&self, ids: &[SetId]) -> BitSet {
        let mut covered = BitSet::new(self.num_elements);
        for &id in ids {
            for &e in self.members(id) {
                covered.insert(e as usize);
            }
        }
        covered
    }

    /// Sum of weights of a sub-collection.
    pub fn cost_of(&self, ids: &[SetId]) -> Cost {
        ids.iter().map(|&id| self.cost(id)).sum()
    }
}

/// Computes the coverage target `⌈ŝ·n⌉` with "at least" semantics.
///
/// # Panics
/// Panics if `fraction` is not in `[0, 1]`.
pub fn coverage_target(num_elements: usize, fraction: f64) -> usize {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "coverage fraction must be in [0, 1], got {fraction}"
    );
    (fraction * num_elements as f64).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system() -> SetSystem {
        let mut b = SetSystem::builder(5);
        b.add_set([0, 1], 2.0)
            .add_set([2, 3, 4], 3.0)
            .add_set([4], 0.5)
            .add_universe_set(10.0);
        b.build().unwrap()
    }

    #[test]
    fn builder_constructs_sorted_dedup_sets() {
        let mut b = SetSystem::builder(4);
        b.add_set([3, 1, 1, 0], 1.0);
        let sys = b.build().unwrap();
        assert_eq!(sys.members(0), &[0, 1, 3]);
        assert_eq!(sys.set(0).benefit(), 3);
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = SetSystem::builder(3);
        b.add_set([0, 3], 1.0);
        match b.build() {
            Err(BuildError::ElementOutOfRange { set, element, .. }) => {
                assert_eq!(set, 0);
                assert_eq!(element, 3);
            }
            other => panic!("expected ElementOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_bad_cost() {
        let mut b = SetSystem::builder(3);
        b.add_set([0], -1.0);
        assert!(matches!(b.build(), Err(BuildError::InvalidCost { .. })));
    }

    #[test]
    fn builder_error_sticks() {
        let mut b = SetSystem::builder(3);
        b.add_set([0], f64::NAN).add_set([1], 1.0);
        assert!(b.build().is_err());
    }

    #[test]
    fn accessors() {
        let sys = small_system();
        assert_eq!(sys.num_elements(), 5);
        assert_eq!(sys.num_sets(), 4);
        assert_eq!(sys.cost(2).value(), 0.5);
        assert_eq!(sys.total_cost().value(), 15.5);
        assert!(sys.has_universe_set());
        assert_eq!(sys.iter().count(), 4);
    }

    #[test]
    fn coverage_and_cost_of_subcollection() {
        let sys = small_system();
        let cov = sys.coverage_of(&[0, 2]);
        assert_eq!(cov.to_vec(), vec![0, 1, 4]);
        assert_eq!(sys.cost_of(&[0, 2]).value(), 2.5);
    }

    #[test]
    fn universe_detection_negative() {
        let mut b = SetSystem::builder(3);
        b.add_set([0, 1], 1.0);
        let sys = b.build().unwrap();
        assert!(!sys.has_universe_set());
    }

    #[test]
    fn coverage_target_rounds_up() {
        assert_eq!(coverage_target(16, 9.0 / 16.0), 9);
        assert_eq!(coverage_target(10, 0.35), 4);
        assert_eq!(coverage_target(10, 0.0), 0);
        assert_eq!(coverage_target(10, 1.0), 10);
        assert_eq!(coverage_target(0, 0.5), 0);
    }

    #[test]
    #[should_panic(expected = "coverage fraction")]
    fn coverage_target_rejects_bad_fraction() {
        coverage_target(10, 1.5);
    }
}
