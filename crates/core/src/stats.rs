//! Instrumentation counters behind the paper's Figure 6.
//!
//! "Patterns considered" in the evaluation counts every set/pattern whose
//! (marginal) benefit an algorithm computed; for CMC that is summed over
//! all budget guesses. [`Stats`] is the classic three-counter view of a
//! run, kept as a thin adapter over the richer
//! [`Observer`](crate::telemetry::Observer) event stream: solvers emit
//! events, and a `&mut Stats` passed as the observer aggregates them into
//! the same counters the experiment harness always reported.

use crate::telemetry::{Event, Observer, PHASE_TOTAL};

/// Counters accumulated during one algorithm run.
#[derive(Clone, Debug, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Stats {
    /// Sets/patterns whose (marginal) benefit was computed, summed over all
    /// budget guesses (the paper's Fig. 6 y-axis).
    pub considered: u64,
    /// Number of budget values `B` tried (CMC; 1 for single-round solvers).
    pub budget_guesses: u32,
    /// Number of sets selected into candidate solutions, including
    /// selections from discarded budget guesses.
    pub selections: u32,
    /// Wall-clock seconds of the solver's `"total"` phase span, recorded by
    /// the solver itself (not the harness), so it serializes with the rest.
    #[cfg_attr(feature = "serde", serde(default))]
    pub elapsed_secs: f64,
}

impl Stats {
    /// Fresh, zeroed counters.
    pub fn new() -> Stats {
        Stats::default()
    }
}

impl Observer for Stats {
    #[inline]
    fn on(&mut self, event: &Event<'_>) {
        match *event {
            Event::GuessStarted(_) => self.budget_guesses += 1,
            Event::SetSelected(..) => self.selections += 1,
            Event::BenefitComputed(count) => self.considered += count,
            Event::PhaseEnded(PHASE_TOTAL, seconds) => self.elapsed_secs = seconds,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = Stats::new();
        assert_eq!(s.considered, 0);
        assert_eq!(s.budget_guesses, 0);
        assert_eq!(s.selections, 0);
        assert_eq!(s.elapsed_secs, 0.0);
    }

    #[test]
    fn observer_events_feed_the_same_counters() {
        let mut s = Stats::new();
        s.on(&Event::BenefitComputed(7));
        s.on(&Event::GuessStarted(Some(3.0)));
        s.on(&Event::GuessStarted(None));
        s.on(&Event::SetSelected(4, 2, 1.0));
        s.on(&Event::PhaseEnded("inner", 9.0));
        s.on(&Event::PhaseEnded(PHASE_TOTAL, 0.5));
        assert_eq!(s.considered, 7);
        assert_eq!(s.budget_guesses, 2);
        assert_eq!(s.selections, 1);
        assert_eq!(s.elapsed_secs, 0.5, "only the total span is kept");
    }
}
