//! Solutions expressed as patterns (rather than opaque set ids), plus an
//! independent verifier that re-derives coverage and cost from the table.

use crate::pattern::Pattern;
use crate::space::{LatticeSpace, PatternSpace};
use scwsc_core::engine::{Certificate, Deadline, DegradeReason, Degraded, SolveOutcome};
use scwsc_core::solution::CertificateCheck;
use scwsc_core::telemetry::{Event, Observer};
use scwsc_core::BitSet;

/// A sub-collection of patterns chosen by an optimized algorithm, in
/// selection order.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PatternSolution {
    /// Chosen patterns, in selection order.
    pub patterns: Vec<Pattern>,
    /// Number of records covered by their union.
    pub covered: usize,
    /// Sum of pattern weights.
    pub total_cost: f64,
}

impl PatternSolution {
    /// Number of chosen patterns.
    pub fn size(&self) -> usize {
        self.patterns.len()
    }

    /// Recomputes coverage and cost from the space's index and checks the
    /// cached totals, returning the recomputed `(covered, total_cost)`.
    ///
    /// # Panics
    /// Panics when the cached totals disagree with the recomputation —
    /// that is an algorithm bug, not a user error.
    pub fn verify(&self, space: &PatternSpace<'_>) -> (usize, f64) {
        self.verify_in(space)
    }

    /// [`PatternSolution::verify`] over any [`LatticeSpace`] (including
    /// hierarchical ones).
    pub fn verify_in<S: LatticeSpace>(&self, space: &S) -> (usize, f64) {
        let mut covered = BitSet::new(space.num_rows());
        let mut total_cost = 0.0;
        for p in &self.patterns {
            let rows = space.benefit(p);
            total_cost += space.cost(&rows);
            for r in rows {
                covered.insert(r as usize);
            }
        }
        let covered = covered.count_ones();
        assert_eq!(covered, self.covered, "cached coverage is wrong");
        assert!(
            (total_cost - self.total_cost).abs() <= 1e-9 * total_cost.abs().max(1.0),
            "cached cost {} != recomputed {}",
            self.total_cost,
            total_cost
        );
        (covered, total_cost)
    }

    /// Human-readable rendering of the chosen patterns.
    pub fn display(&self, space: &PatternSpace<'_>) -> String {
        let pats: Vec<String> = self
            .patterns
            .iter()
            .map(|p| p.display(space.table()))
            .collect();
        format!(
            "{} patterns, cost {}, covering {}: [{}]",
            self.size(),
            self.total_cost,
            self.covered,
            pats.join(", ")
        )
    }
}

/// Independently re-checks a [`Certificate`] produced by a degraded
/// patterned solve: recomputes the partial solution's coverage and cost
/// from the space's index and compares them to the solver's claims — the
/// non-panicking, degraded counterpart of [`PatternSolution::verify_in`]
/// (and the pattern-space analogue of
/// [`scwsc_core::solution::verify_certificate`]).
pub fn verify_certificate_in<S: LatticeSpace>(
    space: &S,
    partial: &PatternSolution,
    cert: &Certificate,
) -> CertificateCheck {
    let mut covered = BitSet::new(space.num_rows());
    let mut total_cost = 0.0;
    for p in &partial.patterns {
        let rows = space.benefit(p);
        total_cost += space.cost(&rows);
        for r in rows {
            covered.insert(r as usize);
        }
    }
    let covered = covered.count_ones();
    // Costs are re-accumulated in selection order, but lattice caching may
    // reassociate the sum, so compare with a relative tolerance.
    let cost_ok = (cert.total_cost - total_cost).abs() <= 1e-9 * total_cost.abs().max(1.0);
    let quotas_sorted = cert.quotas_exhausted.windows(2).all(|w| w[0] < w[1]);
    CertificateCheck {
        recomputed_covered: covered,
        recomputed_cost: total_cost,
        claims_consistent: cert.sets_used == partial.size()
            && cert.covered == covered
            && partial.covered == covered
            && cost_ok
            && quotas_sorted,
        target_unmet: cert.covered < cert.target,
    }
}

/// The patterns an optimized solve picked before `deadline` expired, as a
/// degraded outcome whose [`Certificate`] states their claims; `obs`
/// hears the `degrade_decided` first.
pub(crate) fn degrade<O: Observer + ?Sized>(
    partial: PatternSolution,
    quotas_exhausted: Vec<usize>,
    reason: DegradeReason,
    target: usize,
    deadline: &Deadline,
    obs: &mut O,
) -> SolveOutcome<PatternSolution> {
    let (covered, target_u) = (partial.covered as u64, target as u64);
    obs.on(&Event::DegradeDecided(reason.as_str(), covered, target_u));
    let certificate = Certificate {
        sets_used: partial.size(),
        covered: partial.covered,
        target,
        total_cost: partial.total_cost,
        quotas_exhausted,
        ticks: deadline.ticks(),
        reason,
    };
    SolveOutcome::Degraded(Degraded {
        partial,
        certificate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_fn::CostFn;
    use crate::table::Table;

    fn table() -> Table {
        let mut b = Table::builder(&["X"], "m");
        b.push_row(&["a"], 3.0).unwrap();
        b.push_row(&["b"], 5.0).unwrap();
        b.push_row(&["a"], 1.0).unwrap();
        b.build()
    }

    #[test]
    fn verify_accepts_consistent_solution() {
        let t = table();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let a = t.dictionary(0).lookup("a").unwrap();
        let sol = PatternSolution {
            patterns: vec![Pattern::new(vec![Some(a)])],
            covered: 2,
            total_cost: 3.0,
        };
        assert_eq!(sol.verify(&sp), (2, 3.0));
        assert_eq!(sol.size(), 1);
    }

    #[test]
    #[should_panic(expected = "cached coverage")]
    fn verify_rejects_wrong_coverage() {
        let t = table();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let sol = PatternSolution {
            patterns: vec![Pattern::all_wildcards(1)],
            covered: 1,
            total_cost: 5.0,
        };
        sol.verify(&sp);
    }

    #[test]
    fn display_shows_patterns() {
        let t = table();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let sol = PatternSolution {
            patterns: vec![Pattern::all_wildcards(1)],
            covered: 3,
            total_cost: 5.0,
        };
        let text = sol.display(&sp);
        assert!(text.contains("{X=ALL}"), "{text}");
        assert!(text.contains("covering 3"), "{text}");
    }

    #[test]
    fn verify_certificate_in_checks_claims() {
        use scwsc_core::engine::{Certificate, DegradeReason};
        let t = table();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let a = t.dictionary(0).lookup("a").unwrap();
        let sol = PatternSolution {
            patterns: vec![Pattern::new(vec![Some(a)])],
            covered: 2,
            total_cost: 3.0,
        };
        let mut cert = Certificate {
            sets_used: 1,
            covered: 2,
            target: 3,
            total_cost: 3.0,
            quotas_exhausted: Vec::new(),
            ticks: 4,
            reason: DegradeReason::TickBudget,
        };
        assert!(verify_certificate_in(&sp, &sol, &cert).is_valid());
        cert.covered = 3; // inflated claim also claims target met
        let check = verify_certificate_in(&sp, &sol, &cert);
        assert!(!check.claims_consistent);
        assert!(!check.is_valid());
    }
}
