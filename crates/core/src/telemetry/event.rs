//! The solver event vocabulary: every lifecycle event a solver can emit is
//! one [`Event`] variant, declared here once, together with the one JSON
//! encoding shared by [`JsonlSink`](super::JsonlSink) and the
//! [`FlightRecorder`](super::FlightRecorder) dump.

use super::audit::{cand_json, AuditCandidate};
use super::trace::TraceId;
use super::{json_f64, PruneReason};
use std::borrow::Cow;
use std::fmt::Write as _;

/// One solver lifecycle event, handed to [`Observer::on`](super::Observer::on).
///
/// The slice-carrying variants borrow (`Cow::Borrowed`), so emitting an
/// event never allocates; [`EventLog`](super::EventLog) keeps owned
/// copies.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// `(budget)`: a budget-guess round began. `budget` is the guessed
    /// `B` for CMC's outer loop, `None` for single-round solvers (CWSC,
    /// the baselines).
    GuessStarted(Option<f64>),
    /// `(level, allowance)`: level `level` of the CMC cost schedule was
    /// scheduled with a quota of `allowance` picks. Emitted for the full
    /// schedule of each guess.
    LevelEntered(usize, usize),
    /// `(id, marginal_benefit, cost)`: a set/pattern entered a candidate
    /// solution.
    SetSelected(u64, u64, f64),
    /// `(count)`: `count` candidates had their (marginal) benefit computed
    /// — the paper's Fig. 6 "patterns considered" unit of work.
    BenefitComputed(u64),
    /// `(reason, count)`: `count` candidates were discarded before
    /// selection.
    CandidatePruned(PruneReason, u64),
    /// `(reason, count)`: `count` whole lattice subtrees were cut without
    /// materializing them (pattern-lattice solvers only).
    SubtreePruned(PruneReason, u64),
    /// `(entries)`: `entries` inverted-index posting entries (parent rows)
    /// were scanned to expand a lattice node into its children.
    PostingScanned(u64),
    /// `(count)`: the lazy-greedy heap popped `count` stale entries and
    /// had to re-score or drop each.
    HeapStalePop(u64),
    /// `(order, winner, runners_up)`: a selection round resolved.
    /// `winner` beat `runners_up` (best first, at most
    /// [`audit::RUNNERS_UP`](super::audit::RUNNERS_UP)) under `order`
    /// ([`audit::ORDER_BENEFIT`](super::audit::ORDER_BENEFIT) or
    /// [`audit::ORDER_GAIN`](super::audit::ORDER_GAIN)). Emitted once per
    /// [`SetSelected`](Event::SetSelected), *before* it, by every greedy
    /// solver; the [`DecisionLedger`](super::DecisionLedger) derives
    /// margins and tie-break keys from it. The derived counter is
    /// **excluded** from the exact-diff set (audit plumbing, not
    /// algorithmic work).
    RoundDecided(&'static str, AuditCandidate, Cow<'a, [AuditCandidate]>),
    /// `(set_id, elements, cost)`: the winning set's weight `cost` was
    /// charged uniformly across the `elements` it newly covered — the
    /// greedy price vector behind [`audit::certify`](super::audit::certify).
    /// Emitted right after the matching [`RoundDecided`](Event::RoundDecided).
    PriceCharged(u64, Cow<'a, [u32]>, f64),
    /// `(reason, covered, target)`: the resilience engine degraded a solve
    /// (`reason` is the stable `DegradeReason::as_str` string) with
    /// `covered` of `target` elements covered. Fires only on
    /// deadline/fault paths, which a healthy run never takes — excluded
    /// from the exact-diff set.
    DegradeDecided(&'static str, u64, u64),
    /// A budget guess panicked, was contained by the resilience engine,
    /// and is being retried once serially. Fires only on fault/panic
    /// paths, which a healthy run never takes — so the derived counter is
    /// **excluded** from the exact-diff set.
    GuessRetried,
    /// `(trace_id, entry)`: a solve entry point minted its deterministic
    /// [`TraceId`] and is about to open its root span. `entry` is the
    /// entry point's stable name (`"cmc"`, `"opt_cwsc"`, …). Nested solves
    /// (a Pareto sweep's inner rounds) emit their own `TraceStarted`;
    /// consumers that track one trace per run latch the first. The derived
    /// counter is **excluded** from the exact-diff set (it is
    /// observability plumbing, not algorithmic work — see DESIGN.md §13).
    TraceStarted(TraceId, &'static str),
    /// `(count)`: `count` scan candidates were disposed of *without* a
    /// completed exact count: a stale upper bound, block-summary sketch,
    /// or early-exit kernel proved they could not change the round's
    /// decision (DESIGN.md §15). How many fire measures the refresh, not
    /// the solve's decisions, so the derived counter is **excluded** from
    /// the exact-diff set: a change to the refresh alone needs no
    /// baseline regeneration.
    ScanPruned(u64),
    /// `(count)`: `count` stale scan upper bounds were replaced by fresh
    /// exact counts. Advisory like [`ScanPruned`](Event::ScanPruned) —
    /// excluded from the exact-diff set.
    BoundRefreshed(u64),
    /// `(ticks, stalled_secs)`: the liveness
    /// [`Watchdog`](super::Watchdog) saw a watched solve pass no engine
    /// `checkpoint()` for `stalled_secs` wall-clock seconds; `ticks` is
    /// that solve's tick count at detection time. Stamped into the
    /// flight recorder only. Fires only on stalled solves, which a healthy run never
    /// produces — **excluded** from the exact-diff set, like the other
    /// fault-path counters.
    StallDetected(u64, f64),
    /// `(name)`: a named span opened. Pairs with
    /// [`PhaseEnded`](Event::PhaseEnded).
    PhaseStarted(&'static str),
    /// `(name, seconds)`: a named span closed after `seconds` of
    /// wall-clock time. The solver measures the duration itself so
    /// observers stay stateless.
    PhaseEnded(&'static str, f64),
}

impl Event<'_> {
    /// Stable snake_case event name, the `"event"` value of a JSON line.
    pub fn name(&self) -> &'static str {
        match self {
            Event::GuessStarted(_) => "guess_started",
            Event::LevelEntered(..) => "level_entered",
            Event::SetSelected(..) => "set_selected",
            Event::BenefitComputed(_) => "benefit_computed",
            Event::CandidatePruned(..) => "candidate_pruned",
            Event::SubtreePruned(..) => "subtree_pruned",
            Event::PostingScanned(_) => "posting_scanned",
            Event::HeapStalePop(_) => "heap_stale_pop",
            Event::RoundDecided(..) => "round_decided",
            Event::PriceCharged(..) => "price_charged",
            Event::DegradeDecided(..) => "degrade_decided",
            Event::GuessRetried => "guess_retried",
            Event::TraceStarted(..) => "trace_started",
            Event::ScanPruned(_) => "scan_pruned",
            Event::BoundRefreshed(_) => "bound_refreshed",
            Event::StallDetected(..) => "stall_detected",
            Event::PhaseStarted(_) => "phase_started",
            Event::PhaseEnded(..) => "phase_ended",
        }
    }

    /// Appends the event's JSON fields, each preceded by a comma, to a
    /// line whose envelope the caller writes. Non-finite floats become
    /// `null`.
    pub fn write_fields(&self, out: &mut String) {
        let _ = match self {
            Event::GuessStarted(budget) => write!(
                out,
                ",\"budget\":{}",
                budget.map_or_else(|| "null".to_owned(), json_f64)
            ),
            Event::LevelEntered(level, allowance) => {
                write!(out, ",\"level\":{level},\"allowance\":{allowance}")
            }
            Event::SetSelected(id, marginal_benefit, cost) => write!(
                out,
                ",\"id\":{id},\"marginal_benefit\":{marginal_benefit},\"cost\":{}",
                json_f64(*cost)
            ),
            Event::BenefitComputed(count)
            | Event::HeapStalePop(count)
            | Event::ScanPruned(count)
            | Event::BoundRefreshed(count) => write!(out, ",\"count\":{count}"),
            Event::CandidatePruned(reason, count) | Event::SubtreePruned(reason, count) => {
                write!(out, ",\"reason\":\"{}\",\"count\":{count}", reason.as_str())
            }
            Event::PostingScanned(entries) => write!(out, ",\"entries\":{entries}"),
            Event::GuessRetried => Ok(()),
            Event::RoundDecided(order, winner, runners_up) => {
                let _ = write!(
                    out,
                    ",\"order\":\"{order}\",\"winner\":{},\"runners_up\":[",
                    cand_json(winner)
                );
                for (i, r) in runners_up.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&cand_json(r));
                }
                out.push(']');
                Ok(())
            }
            Event::PriceCharged(set_id, elements, cost) => {
                let _ = write!(
                    out,
                    ",\"set\":{set_id},\"cost\":{},\"elements\":[",
                    json_f64(*cost)
                );
                for (i, e) in elements.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{e}");
                }
                out.push(']');
                Ok(())
            }
            Event::DegradeDecided(reason, covered, target) => write!(
                out,
                ",\"reason\":\"{reason}\",\"covered\":{covered},\"target\":{target}"
            ),
            Event::TraceStarted(trace_id, entry) => {
                write!(out, ",\"trace_id\":\"{trace_id}\",\"entry\":\"{entry}\"")
            }
            Event::StallDetected(ticks, stalled_secs) => write!(
                out,
                ",\"ticks\":{ticks},\"stalled_secs\":{}",
                json_f64(*stalled_secs)
            ),
            Event::PhaseStarted(name) => write!(out, ",\"name\":\"{name}\""),
            Event::PhaseEnded(name, seconds) => write!(
                out,
                ",\"name\":\"{name}\",\"seconds\":{}",
                json_f64(*seconds)
            ),
        };
    }

    /// An owned copy that outlives the borrowed slices, for recording.
    pub(crate) fn to_static(&self) -> Event<'static> {
        match *self {
            Event::GuessStarted(budget) => Event::GuessStarted(budget),
            Event::LevelEntered(level, allowance) => Event::LevelEntered(level, allowance),
            Event::SetSelected(id, mben, cost) => Event::SetSelected(id, mben, cost),
            Event::BenefitComputed(count) => Event::BenefitComputed(count),
            Event::CandidatePruned(reason, count) => Event::CandidatePruned(reason, count),
            Event::SubtreePruned(reason, count) => Event::SubtreePruned(reason, count),
            Event::PostingScanned(entries) => Event::PostingScanned(entries),
            Event::HeapStalePop(count) => Event::HeapStalePop(count),
            Event::RoundDecided(order, winner, ref runners_up) => {
                Event::RoundDecided(order, winner, Cow::Owned(runners_up.to_vec()))
            }
            Event::PriceCharged(set_id, ref elements, cost) => {
                Event::PriceCharged(set_id, Cow::Owned(elements.to_vec()), cost)
            }
            Event::DegradeDecided(reason, covered, target) => {
                Event::DegradeDecided(reason, covered, target)
            }
            Event::GuessRetried => Event::GuessRetried,
            Event::TraceStarted(trace_id, entry) => Event::TraceStarted(trace_id, entry),
            Event::ScanPruned(count) => Event::ScanPruned(count),
            Event::BoundRefreshed(count) => Event::BoundRefreshed(count),
            Event::StallDetected(ticks, secs) => Event::StallDetected(ticks, secs),
            Event::PhaseStarted(name) => Event::PhaseStarted(name),
            Event::PhaseEnded(name, seconds) => Event::PhaseEnded(name, seconds),
        }
    }
}
