//! Decision audit ledger and a-posteriori quality certification.
//!
//! The rest of the telemetry stack answers *where time went*; this module
//! answers *why the solver chose what it chose* and *how good the answer
//! provably is*:
//!
//! * [`DecisionLedger`] — an [`Observer`] that records, for every greedy
//!   selection round, the winner plus its top runners-up (with the
//!   canonical tie-break key and the winning margin), the per-element
//!   **price charging** of the winner's weight across its newly covered
//!   elements, and every degrade decision. The ledger is built purely from
//!   the replayed event stream, so `Threads(N)` produces a ledger
//!   bit-identical to `Threads(1)` (same record-then-replay contract as
//!   every other observer — DESIGN.md §11/§14).
//! * [`certify`] — turns the final price vector into an instance-specific
//!   **lower bound** on the optimal cost via dual-feasible scaling
//!   (Prolubnikov's a-posteriori accuracy estimate, PAPERS.md), so a solve
//!   reports a *certified* ratio `cost/LB` next to the paper's worst-case
//!   guarantee.
//!
//! # Certificate math (DESIGN.md §14)
//!
//! When greedy picks set `S` covering `newly` fresh elements, each of them
//! is charged the uniform price `y_e = c(S)/|newly|`; the total charge per
//! round is exactly `c(S)`, so `Σ y_e` over all priced elements equals the
//! greedy cost. Let `y''_e = y_e`, except elements belonging to any
//! zero-cost set are re-priced to 0 (a zero-cost set's dual constraint
//! admits no positive slack). With
//!
//! ```text
//! α = max over sets S with c(S) > 0 of  Σ_{e ∈ S} y''_e / c(S)
//! ```
//!
//! the scaled vector `y''/α` is dual-feasible: every set's price sum is at
//! most its cost. Any solution `T` covering at least `target` elements
//! covers at least `m = target − (n − C)` of the `C` greedy-priced
//! elements (it can pick up at most `n − C` elements elsewhere), and
//!
//! ```text
//! c(T) ≥ Σ_{S ∈ T} Σ_{e ∈ S priced} y''_e/α ≥ Σ_{e covered ∧ priced} y''_e/α
//!      ≥ (sum of the m smallest scaled prices) = LB
//! ```
//!
//! so `LB ≤ optimal cost`. A size constraint `k` only shrinks the feasible
//! region, so the bound holds for the size-constrained optimum too. At full
//! coverage (`C = target = n`) this degenerates to `Σ y''_e / α`.

use super::{json_f64, Event, Observer};
use crate::bitset::BitSet;
use crate::cover_state::{Candidate, CoverState};
use crate::set_system::{SetId, SetSystem};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io;

/// How many runners-up each selection round records next to its winner.
pub const RUNNERS_UP: usize = 3;

/// Length of the candidate lists fed to [`record_cover_round`]: the winner
/// plus [`RUNNERS_UP`] runners-up.
pub const TOP: usize = RUNNERS_UP + 1;

/// `order` value of rounds decided by marginal benefit (CMC-family).
pub const ORDER_BENEFIT: &str = "benefit";

/// `order` value of rounds decided by marginal gain = benefit/weight
/// (CWSC-family and the gain baselines).
pub const ORDER_GAIN: &str = "gain";

/// A candidate as observed at a selection round: solver-assigned id, the
/// marginal benefit at decision time, and the set's weight (cost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditCandidate {
    /// Set id (core solvers) or pattern id (lattice solvers).
    pub id: u64,
    /// Marginal benefit at decision time. Heap-based solvers report the
    /// stored (possibly optimistic) score for runners-up; the winner's
    /// score is always fresh.
    pub benefit: u64,
    /// The candidate's weight `c(S)`.
    pub weight: f64,
}

impl AuditCandidate {
    /// Benefit/weight ratio; zero-weight candidates with positive benefit
    /// have infinite ratio (they dominate every finite-gain candidate).
    pub fn ratio(&self) -> f64 {
        if self.weight == 0.0 {
            if self.benefit > 0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.benefit as f64 / self.weight
        }
    }
}

/// Converts a core cover-state [`Candidate`] into the audit currency.
pub fn from_cover(c: Candidate) -> AuditCandidate {
    AuditCandidate {
        id: c.id as u64,
        benefit: c.mben as u64,
        weight: c.cost.value(),
    }
}

/// Emits one `round_decided` event from a best-first candidate list (as
/// produced by `CoverState::top_benefit`/`top_gain` or
/// `scan::masked_top`) and returns the winning set id, or `None` when the
/// list is empty (no eligible candidate — the greedy loop stops).
pub fn record_cover_round<O: Observer + ?Sized>(
    obs: &mut O,
    order: &'static str,
    top: &[Candidate],
) -> Option<SetId> {
    let (win, rest) = top.split_first()?;
    let winner = from_cover(*win);
    let runners: Vec<AuditCandidate> = rest.iter().map(|&c| from_cover(c)).collect();
    obs.on(&Event::RoundDecided(order, winner, Cow::Borrowed(&runners)));
    Some(win.id)
}

/// Audits and performs one greedy pick on a [`CoverState`]: emits
/// `round_decided` from the best-first `top` list (as produced by
/// `top_benefit`/`top_gain` with cap [`TOP`]), charges the winner's weight
/// across its newly covered elements (`price_charged`), selects it, and
/// emits `set_selected`. Returns the winner and how many elements it newly
/// covered, or `None` when `top` is empty.
pub fn pick_cover<O: Observer + ?Sized>(
    state: &mut CoverState<'_>,
    obs: &mut O,
    order: &'static str,
    top: &[Candidate],
) -> Option<(SetId, usize)> {
    let q = record_cover_round(obs, order, top)?;
    let cost = state.system().cost(q).value();
    let elems = state.newly_elements(q);
    obs.on(&Event::PriceCharged(q as u64, Cow::Borrowed(&elems), cost));
    let newly = state.select(q);
    debug_assert_eq!(newly, elems.len());
    obs.on(&Event::SetSelected(q as u64, newly as u64, cost));
    Some((q, newly))
}

/// Charges the winner of a masked-scan round: prices the elements of
/// `win` not yet in `covered` (the scan recounted against this same
/// bitset, so the list length equals `win.mben`). Call *before* unioning
/// the winner's mask into `covered`.
pub fn charge_masked<O: Observer + ?Sized>(
    obs: &mut O,
    system: &SetSystem,
    covered: &BitSet,
    win: Candidate,
) {
    let elems: Vec<u32> = system
        .members(win.id)
        .iter()
        .copied()
        .filter(|&e| !covered.contains(e as usize))
        .collect();
    debug_assert_eq!(elems.len(), win.mben);
    obs.on(&Event::PriceCharged(
        win.id as u64,
        Cow::Borrowed(&elems),
        win.cost.value(),
    ));
}

/// The comparator level that actually decided a round, plus the winning
/// margin *in the primary key's native space* (always finite):
///
/// * `"benefit"` rounds: margin = `winner.benefit − runner.benefit`;
///   deeper levels (`"cost"`, `"id"`) report margin 0.
/// * `"gain"` rounds: margin = the cross-multiplied gain difference
///   `winner.benefit·runner.weight − runner.benefit·winner.weight` —
///   exactly the quantity the canonical comparator compares, so it is
///   finite even when a ratio is infinite.
/// * `"sole"`: no runner-up existed; margin 0.
fn margin_and_tie(
    order: &str,
    winner: &AuditCandidate,
    runner: Option<&AuditCandidate>,
) -> (f64, &'static str) {
    let Some(r) = runner else {
        return (0.0, "sole");
    };
    if order == ORDER_GAIN {
        let cross = winner.benefit as f64 * r.weight - r.benefit as f64 * winner.weight;
        if cross != 0.0 {
            return (cross, "gain");
        }
    }
    if winner.benefit != r.benefit {
        let margin = if order == ORDER_BENEFIT {
            winner.benefit as f64 - r.benefit as f64
        } else {
            0.0
        };
        return (margin, "benefit");
    }
    if winner.weight != r.weight {
        (0.0, "cost")
    } else {
        (0.0, "id")
    }
}

/// One recorded selection round: the decision plus the price charging that
/// followed it.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRound {
    /// `"benefit"` or `"gain"` — which canonical order decided the round.
    pub order: &'static str,
    /// The selected candidate.
    pub winner: AuditCandidate,
    /// Up to [`RUNNERS_UP`] losing candidates, best first.
    pub runners_up: Vec<AuditCandidate>,
    /// Winning margin in the primary key's native space (see
    /// [`LedgerRound::tie_break`]); 0 when a deeper tie-break decided.
    pub margin: f64,
    /// Comparator level that decided: `"gain"`, `"benefit"`, `"cost"`,
    /// `"id"`, or `"sole"` (no runner-up).
    pub tie_break: &'static str,
    /// Elements newly covered by the winner (the priced elements).
    pub elements: Vec<u32>,
    /// Weight charged across [`LedgerRound::elements`].
    pub cost: f64,
}

impl LedgerRound {
    /// Uniform per-element price `cost/|elements|` (0 for an empty round).
    pub fn unit_price(&self) -> f64 {
        if self.elements.is_empty() {
            0.0
        } else {
            self.cost / self.elements.len() as f64
        }
    }
}

/// A degrade decision taken mid-solve (deadline/tick budget/cancellation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeNote {
    /// Stable reason string (`DegradeReason::as_str`).
    pub reason: &'static str,
    /// Elements covered when the solver degraded.
    pub covered: u64,
    /// The coverage target it was aiming for.
    pub target: u64,
}

/// All rounds of one budget guess (single-round solvers have exactly one
/// implicit guess).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GuessLedger {
    /// The guessed budget, if the solver announced one.
    pub budget: Option<f64>,
    /// Selection rounds in decision order.
    pub rounds: Vec<LedgerRound>,
    /// Degrade decisions taken during this guess.
    pub degrades: Vec<DegradeNote>,
}

/// An [`Observer`] that assembles the audit ledger from the event stream.
///
/// Because it consumes the same replayed stream as every other observer,
/// a parallel run's ledger is bit-identical to the serial run's — the
/// determinism contract is inherited, not re-proven here.
#[derive(Debug, Clone, Default)]
pub struct DecisionLedger {
    guesses: Vec<GuessLedger>,
}

impl DecisionLedger {
    /// An empty ledger.
    pub fn new() -> DecisionLedger {
        DecisionLedger::default()
    }

    fn current(&mut self) -> &mut GuessLedger {
        if self.guesses.is_empty() {
            self.guesses.push(GuessLedger::default());
        }
        self.guesses.last_mut().expect("just ensured non-empty")
    }

    /// All guesses in announcement order.
    pub fn guesses(&self) -> &[GuessLedger] {
        &self.guesses
    }

    /// Total recorded rounds across all guesses.
    pub fn rounds_total(&self) -> usize {
        self.guesses.iter().map(|g| g.rounds.len()).sum()
    }

    /// The guess whose selections form the returned solution: greedy
    /// solvers abandon a failed guess and move to the next, so the *last*
    /// guess that actually selected something is the final one.
    pub fn final_guess(&self) -> Option<&GuessLedger> {
        self.guesses
            .iter()
            .rev()
            .find(|g| !g.rounds.is_empty())
            .or(self.guesses.last())
    }

    /// The final guess's price vector: `(element, price)` pairs in
    /// charging order — the input to [`certify`].
    pub fn prices(&self) -> Vec<(u32, f64)> {
        let Some(g) = self.final_guess() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for r in &g.rounds {
            let p = r.unit_price();
            for &e in &r.elements {
                out.push((e, p));
            }
        }
        out
    }

    /// Total charged cost of the final guess (= its solution cost).
    pub fn final_cost(&self) -> f64 {
        self.final_guess()
            .map(|g| g.rounds.iter().map(|r| r.cost).sum())
            .unwrap_or(0.0)
    }

    /// Mean winning margin over the final guess's rounds (0 when empty).
    pub fn mean_margin(&self) -> f64 {
        let Some(g) = self.final_guess() else {
            return 0.0;
        };
        if g.rounds.is_empty() {
            return 0.0;
        }
        g.rounds.iter().map(|r| r.margin).sum::<f64>() / g.rounds.len() as f64
    }

    /// Renders the per-round narrative behind `scwsc_solve --explain`.
    /// `limit` caps the rounds rendered *per guess* (`None` = all). The
    /// output contains no timestamps, so it is stable across runs and
    /// thread counts.
    pub fn render_explain(&self, limit: Option<usize>) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "decision audit: {} guess(es), {} round(s), final cost {}",
            self.guesses.len(),
            self.rounds_total(),
            self.final_cost()
        );
        for (gi, g) in self.guesses.iter().enumerate() {
            let budget = match g.budget {
                Some(b) => format!("budget {b}"),
                None => "no budget".to_owned(),
            };
            let _ = writeln!(
                s,
                "guess {} ({budget}): {} round(s)",
                gi + 1,
                g.rounds.len()
            );
            let shown = limit.unwrap_or(g.rounds.len()).min(g.rounds.len());
            for (ri, r) in g.rounds.iter().take(shown).enumerate() {
                let w = &r.winner;
                let _ = writeln!(
                    s,
                    "  round {} [{}]: pick {} (benefit {}, weight {}, ratio {}) margin {} via {}",
                    ri + 1,
                    r.order,
                    w.id,
                    w.benefit,
                    w.weight,
                    w.ratio(),
                    r.margin,
                    r.tie_break
                );
                for ru in &r.runners_up {
                    let _ = writeln!(
                        s,
                        "    runner-up {} (benefit {}, weight {}, ratio {})",
                        ru.id,
                        ru.benefit,
                        ru.weight,
                        ru.ratio()
                    );
                }
                let _ = writeln!(
                    s,
                    "    charged {} over {} element(s) (price {})",
                    r.cost,
                    r.elements.len(),
                    r.unit_price()
                );
            }
            if shown < g.rounds.len() {
                let _ = writeln!(s, "  ... {} more round(s)", g.rounds.len() - shown);
            }
            for d in &g.degrades {
                let _ = writeln!(
                    s,
                    "  degraded ({}) at {}/{} covered",
                    d.reason, d.covered, d.target
                );
            }
        }
        s
    }

    /// Dumps the ledger as line-oriented JSON: a header line, one line per
    /// round, one per degrade note. Deterministic byte-for-byte across
    /// thread counts (no wall-clock fields).
    pub fn write_jsonl<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(
            w,
            "{{\"ledger\":\"scwsc\",\"version\":1,\"guesses\":{},\"rounds\":{}}}",
            self.guesses.len(),
            self.rounds_total()
        )?;
        for (gi, g) in self.guesses.iter().enumerate() {
            for (ri, r) in g.rounds.iter().enumerate() {
                let budget = match g.budget {
                    Some(b) => json_f64(b),
                    None => "null".to_owned(),
                };
                let mut line = format!(
                    "{{\"guess\":{},\"budget\":{budget},\"round\":{},\"order\":\"{}\",\"winner\":{}",
                    gi + 1,
                    ri + 1,
                    r.order,
                    cand_json(&r.winner)
                );
                line.push_str(",\"runners_up\":[");
                for (i, ru) in r.runners_up.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    line.push_str(&cand_json(ru));
                }
                let _ = write!(
                    line,
                    "],\"margin\":{},\"tie_break\":\"{}\",\"cost\":{},\"price\":{},\"elements\":[",
                    json_f64(r.margin),
                    r.tie_break,
                    json_f64(r.cost),
                    json_f64(r.unit_price())
                );
                for (i, e) in r.elements.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "{e}");
                }
                line.push_str("]}");
                writeln!(w, "{line}")?;
            }
            for d in &g.degrades {
                writeln!(
                    w,
                    "{{\"guess\":{},\"degraded\":\"{}\",\"covered\":{},\"target\":{}}}",
                    gi + 1,
                    d.reason,
                    d.covered,
                    d.target
                )?;
            }
        }
        Ok(())
    }
}

/// `{"id":..,"benefit":..,"weight":..}` for ledger/trace lines.
pub(crate) fn cand_json(c: &AuditCandidate) -> String {
    format!(
        "{{\"id\":{},\"benefit\":{},\"weight\":{}}}",
        c.id,
        c.benefit,
        json_f64(c.weight)
    )
}

impl Observer for DecisionLedger {
    fn on(&mut self, event: &Event<'_>) {
        match *event {
            Event::GuessStarted(budget) => self.guesses.push(GuessLedger {
                budget,
                ..GuessLedger::default()
            }),
            Event::RoundDecided(order, winner, ref runners_up) => {
                let (margin, tie_break) = margin_and_tie(order, &winner, runners_up.first());
                self.current().rounds.push(LedgerRound {
                    order,
                    winner,
                    runners_up: runners_up.to_vec(),
                    margin,
                    tie_break,
                    elements: Vec::new(),
                    cost: 0.0,
                });
            }
            Event::PriceCharged(set_id, ref elements, cost) => {
                if let Some(r) = self.current().rounds.last_mut() {
                    debug_assert_eq!(r.winner.id, set_id, "price charged to a non-winner");
                    r.elements.extend_from_slice(elements);
                    r.cost = cost;
                }
            }
            Event::DegradeDecided(reason, covered, target) => {
                self.current().degrades.push(DegradeNote {
                    reason,
                    covered,
                    target,
                });
            }
            _ => {}
        }
    }
}

/// An instance-specific a-posteriori quality certificate: a dual-feasible
/// lower bound on the optimal cost of covering `target` elements, derived
/// from the greedy price vector (module docs for the math).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityCertificate {
    /// Total charged greedy cost (= Σ prices).
    pub greedy_cost: f64,
    /// Certified lower bound `LB ≤ optimal cost` (0 when uninformative).
    pub lower_bound: f64,
    /// The dual scaling factor (max constraint ratio of the raw prices).
    pub alpha: f64,
    /// Number of priced (greedy-covered) elements.
    pub covered: u64,
    /// The coverage target certified against.
    pub target: u64,
}

impl QualityCertificate {
    /// Certified approximation ratio `greedy_cost / LB`: 1 for a free
    /// solution, infinite when the bound is uninformative (`LB = 0`).
    pub fn certified_ratio(&self) -> f64 {
        if self.greedy_cost <= 0.0 {
            1.0
        } else if self.lower_bound <= 0.0 {
            f64::INFINITY
        } else {
            self.greedy_cost / self.lower_bound
        }
    }
}

/// Certifies a greedy price vector against `system`: returns the scaled
/// dual lower bound on the cost of any solution covering at least
/// `target` elements (see module docs). `prices` is
/// [`DecisionLedger::prices`] — each greedy-covered element with its
/// charged price; elements priced twice keep the last price.
pub fn certify(system: &SetSystem, prices: &[(u32, f64)], target: usize) -> QualityCertificate {
    let n = system.num_elements();
    let mut price: Vec<Option<f64>> = vec![None; n];
    for &(e, p) in prices {
        price[e as usize] = Some(p);
    }
    // Elements of any zero-cost set must carry zero dual price.
    let mut in_free = vec![false; n];
    for (id, set) in system.iter() {
        if system.cost(id).value() == 0.0 {
            for &e in set.members() {
                in_free[e as usize] = true;
            }
        }
    }
    let eff = |e: usize| -> f64 {
        if in_free[e] {
            0.0
        } else {
            price[e].unwrap_or(0.0)
        }
    };
    let mut alpha: f64 = 0.0;
    for (id, set) in system.iter() {
        let c = system.cost(id).value();
        if c <= 0.0 {
            continue;
        }
        let sum: f64 = set.members().iter().map(|&e| eff(e as usize)).sum();
        alpha = alpha.max(sum / c);
    }
    let covered = price.iter().filter(|p| p.is_some()).count();
    let greedy_cost: f64 = prices.iter().map(|&(_, p)| p).sum();
    // Any target-feasible solution covers ≥ m of the priced elements.
    let m = (target + covered).saturating_sub(n);
    let lower_bound = if m == 0 || alpha <= 0.0 {
        0.0
    } else {
        let mut ys: Vec<f64> = (0..n).filter(|&e| price[e].is_some()).map(eff).collect();
        ys.sort_by(f64::total_cmp);
        ys.iter().take(m).sum::<f64>() / alpha
    };
    QualityCertificate {
        greedy_cost,
        lower_bound,
        alpha,
        covered: covered as u64,
        target: target as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;

    fn cand(id: u64, benefit: u64, weight: f64) -> AuditCandidate {
        AuditCandidate {
            id,
            benefit,
            weight,
        }
    }

    #[test]
    fn ratio_handles_zero_weight() {
        assert_eq!(cand(0, 3, 2.0).ratio(), 1.5);
        assert_eq!(cand(0, 3, 0.0).ratio(), f64::INFINITY);
        assert_eq!(cand(0, 0, 0.0).ratio(), 0.0);
    }

    #[test]
    fn margin_levels() {
        // Sole candidate.
        assert_eq!(
            margin_and_tie(ORDER_GAIN, &cand(0, 3, 1.0), None),
            (0.0, "sole")
        );
        // Gain decided: 3/1 vs 4/2 → cross = 3·2 − 4·1 = 2.
        assert_eq!(
            margin_and_tie(ORDER_GAIN, &cand(0, 3, 1.0), Some(&cand(1, 4, 2.0))),
            (2.0, "gain")
        );
        // Equal gain, benefit decides (margin 0 in gain space).
        assert_eq!(
            margin_and_tie(ORDER_GAIN, &cand(1, 4, 4.0), Some(&cand(0, 2, 2.0))),
            (0.0, "benefit")
        );
        // Benefit rounds: native margin.
        assert_eq!(
            margin_and_tie(ORDER_BENEFIT, &cand(0, 5, 1.0), Some(&cand(1, 3, 1.0))),
            (2.0, "benefit")
        );
        // Benefit tie → cost; full tie → id.
        assert_eq!(
            margin_and_tie(ORDER_BENEFIT, &cand(0, 5, 1.0), Some(&cand(1, 5, 2.0))),
            (0.0, "cost")
        );
        assert_eq!(
            margin_and_tie(ORDER_BENEFIT, &cand(0, 5, 1.0), Some(&cand(1, 5, 1.0))),
            (0.0, "id")
        );
        // Infinite ratios stay finite in cross-multiplied space.
        let (m, t) = margin_and_tie(ORDER_GAIN, &cand(0, 3, 0.0), Some(&cand(1, 4, 2.0)));
        assert!(m.is_finite() && t == "gain", "{m} {t}");
    }

    #[test]
    fn ledger_buckets_rounds_by_guess_and_attaches_prices() {
        let mut l = DecisionLedger::new();
        l.on(&Event::GuessStarted(Some(2.0)));
        l.on(&Event::RoundDecided(
            ORDER_BENEFIT,
            cand(3, 5, 2.0),
            Cow::Borrowed(&[cand(1, 3, 2.0)]),
        ));
        l.on(&Event::PriceCharged(
            3,
            Cow::Borrowed(&[0, 1, 2, 3, 4]),
            2.0,
        ));
        l.on(&Event::GuessStarted(Some(4.0)));
        l.on(&Event::RoundDecided(
            ORDER_BENEFIT,
            cand(1, 3, 2.0),
            Cow::Borrowed(&[]),
        ));
        l.on(&Event::PriceCharged(1, Cow::Borrowed(&[5, 6]), 2.0));
        l.on(&Event::DegradeDecided("tick_budget", 7, 9));

        assert_eq!(l.guesses().len(), 2);
        assert_eq!(l.rounds_total(), 2);
        let fin = l.final_guess().unwrap();
        assert_eq!(fin.budget, Some(4.0));
        assert_eq!(fin.rounds.len(), 1);
        assert_eq!(fin.rounds[0].unit_price(), 1.0);
        assert_eq!(fin.degrades[0].reason, "tick_budget");
        assert_eq!(l.prices(), vec![(5, 1.0), (6, 1.0)]);
        assert_eq!(l.final_cost(), 2.0);
    }

    #[test]
    fn ledger_without_guess_events_uses_implicit_bucket() {
        let mut l = DecisionLedger::new();
        l.on(&Event::RoundDecided(
            ORDER_GAIN,
            cand(0, 4, 2.0),
            Cow::Borrowed(&[cand(1, 2, 2.0)]),
        ));
        l.on(&Event::PriceCharged(0, Cow::Borrowed(&[0, 1, 2, 3]), 2.0));
        assert_eq!(l.guesses().len(), 1);
        assert_eq!(l.guesses()[0].budget, None);
        assert_eq!(l.prices().len(), 4);
        assert_eq!(l.mean_margin(), 4.0); // cross = 4·2 − 2·2
    }

    #[test]
    fn final_guess_skips_empty_trailing_guess() {
        let mut l = DecisionLedger::new();
        l.on(&Event::GuessStarted(Some(1.0)));
        l.on(&Event::RoundDecided(
            ORDER_BENEFIT,
            cand(0, 1, 1.0),
            Cow::Borrowed(&[]),
        ));
        l.on(&Event::PriceCharged(0, Cow::Borrowed(&[0]), 1.0));
        l.on(&Event::GuessStarted(Some(2.0)));
        l.on(&Event::DegradeDecided("wall_clock", 1, 3));
        let fin = l.final_guess().unwrap();
        assert_eq!(fin.budget, Some(1.0), "rounds win over empty trailing");
    }

    #[test]
    fn explain_and_jsonl_are_deterministic_and_respect_limit() {
        let mut l = DecisionLedger::new();
        l.on(&Event::GuessStarted(None));
        for i in 0..3 {
            l.on(&Event::RoundDecided(
                ORDER_GAIN,
                cand(i, 4 - i, 1.0),
                Cow::Borrowed(&[cand(9, 1, 1.0)]),
            ));
            l.on(&Event::PriceCharged(i, Cow::Borrowed(&[i as u32]), 1.0));
        }
        let full = l.render_explain(None);
        assert_eq!(full, l.render_explain(None), "stable rendering");
        assert!(full.contains("round 3"), "{full}");
        let cut = l.render_explain(Some(1));
        assert!(cut.contains("round 1") && !cut.contains("round 3"), "{cut}");
        assert!(cut.contains("... 2 more round(s)"), "{cut}");

        let mut buf = Vec::new();
        l.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 rounds: {text}");
        assert!(lines[0].contains("\"ledger\":\"scwsc\""));
        assert!(lines[1].contains("\"winner\":{\"id\":0,\"benefit\":4,\"weight\":1.0}"));
        assert!(lines[1].contains("\"elements\":[0]"));
    }

    #[test]
    fn record_cover_round_emits_winner_and_runners() {
        let top = vec![
            Candidate {
                id: 2,
                mben: 5,
                cost: Cost::new(2.0).unwrap(),
            },
            Candidate {
                id: 0,
                mben: 3,
                cost: Cost::new(1.0).unwrap(),
            },
        ];
        let mut l = DecisionLedger::new();
        assert_eq!(record_cover_round(&mut l, ORDER_GAIN, &top), Some(2));
        assert_eq!(record_cover_round(&mut l, ORDER_GAIN, &[]), None);
        let g = &l.guesses()[0];
        assert_eq!(g.rounds.len(), 1);
        assert_eq!(g.rounds[0].winner.id, 2);
        assert_eq!(g.rounds[0].runners_up.len(), 1);
        assert_eq!(g.rounds[0].runners_up[0].id, 0);
    }

    fn certify_system() -> SetSystem {
        let mut b = SetSystem::builder(6);
        b.add_set([0, 1, 2], 3.0) // set 0
            .add_set([2, 3], 1.0) // set 1
            .add_set([3, 4, 5], 6.0) // set 2
            .add_set([0, 1, 2, 3, 4, 5], 7.0); // set 3
        b.build().unwrap()
    }

    #[test]
    fn certify_full_coverage_bounds_hold() {
        let sys = certify_system();
        // Greedy-gain trace: pick 0 (price 1 on {0,1,2}), then 1 charges 3
        // (price 1.0), then 2 covers {4,5} (price 3 each). Cost = 3+1+6=10.
        let prices = vec![
            (0u32, 1.0),
            (1, 1.0),
            (2, 1.0),
            (3, 1.0),
            (4, 3.0),
            (5, 3.0),
        ];
        let cert = certify(&sys, &prices, 6);
        assert_eq!(cert.greedy_cost, 10.0);
        assert_eq!(cert.covered, 6);
        assert!(cert.alpha >= 1.0, "selected sets witness alpha ≥ 1");
        // Optimal cover of all 6 elements: set 3 alone at cost 7.
        assert!(
            cert.lower_bound <= 7.0 + 1e-9,
            "LB {} must not exceed optimal 7",
            cert.lower_bound
        );
        assert!(cert.lower_bound > 0.0, "informative bound");
        assert!(cert.certified_ratio() >= 10.0 / 7.0 - 1e-9);
        // Full coverage degenerates to greedy_cost / alpha.
        assert!((cert.lower_bound - cert.greedy_cost / cert.alpha).abs() < 1e-9);
    }

    #[test]
    fn certify_partial_coverage_discounts_uncovered_slack() {
        let sys = certify_system();
        // Only 4 of 6 elements priced; target 5 → any solution covers at
        // least 5 − (6 − 4) = 3 priced elements.
        let prices = vec![(0u32, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)];
        let cert = certify(&sys, &prices, 5);
        assert_eq!(cert.covered, 4);
        let m_smallest_sum = 3.0; // three smallest of four equal prices
        assert!((cert.lower_bound - m_smallest_sum / cert.alpha).abs() < 1e-9);
        // Infeasible-from-here target: m clamps to zero, bound collapses.
        let hopeless = certify(&sys, &prices[..1], 5);
        assert_eq!(hopeless.lower_bound, 0.0);
        assert_eq!(hopeless.certified_ratio(), f64::INFINITY);
    }

    #[test]
    fn certify_zero_cost_sets_wash_their_elements() {
        let mut b = SetSystem::builder(3);
        b.add_set([0, 1], 2.0).add_set([1, 2], 0.0);
        let sys = b.build().unwrap();
        // A benefit-greedy trace that charged element 1 despite the free set.
        let prices = vec![(0u32, 1.0), (1, 1.0), (2, 0.0)];
        let cert = certify(&sys, &prices, 3);
        // Element 1 and 2 washed to 0; alpha = 1/2 from set 0 → LB = 1/α = 2?
        // Raw effective prices: e0=1, e1=0, e2=0; set 0 ratio = 1/2.
        assert!((cert.alpha - 0.5).abs() < 1e-9);
        assert!((cert.lower_bound - 2.0).abs() < 1e-9);
        // The bound stays below the true optimum (sets 0+1 cost 2).
        assert!(cert.lower_bound <= 2.0 + 1e-9);
    }

    #[test]
    fn certify_empty_prices_and_free_solutions() {
        let sys = certify_system();
        let cert = certify(&sys, &[], 6);
        assert_eq!(cert.lower_bound, 0.0);
        assert_eq!(cert.greedy_cost, 0.0);
        assert_eq!(cert.certified_ratio(), 1.0, "free solution is perfect");
    }
}
