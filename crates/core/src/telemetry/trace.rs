//! Causal trace context: deterministic trace identifiers and the
//! `(trace_id, span_id, parent_span_id)` coordinates that turn a flat
//! [`Observer`](super::Observer) event stream into a causal tree.
//!
//! Every solve entry point mints a [`TraceId`] — deterministically, from
//! the entry's name and its instance parameters, so the same query always
//! produces the same id (replayable post-mortems, cache-keyable traces) —
//! and announces it with [`Event::TraceStarted`](super::Event::TraceStarted)
//! just before opening its root span.
//!
//! Span ids themselves are not carried in events: the event stream's
//! `phase_started`/`phase_ended` nesting determines them, and consumers
//! that need explicit ids (the [`FlightRecorder`](super::FlightRecorder))
//! assign them in arrival order, which is deterministic because the
//! stream's order is.

use std::fmt;

/// A deterministic 64-bit trace identifier minted at a solve entry point.
///
/// Two solves of the same entry point with the same instance parameters
/// yield the same id — the id names the *query*, not the invocation —
/// which keeps every derived artifact (flight dumps, exported metrics)
/// reproducible and diffable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Mints the trace id for `entry` (a static entry-point name such as
    /// `"cmc"`) and two instance words (conventionally the element count
    /// and the packed size/target parameters). FNV-1a, so the id is stable
    /// across platforms and runs.
    pub fn mint(entry: &str, a: u64, b: u64) -> TraceId {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for byte in entry.bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
        for word in [a, b] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        }
        // Reserve 0 for "no trace" so a default context is recognizable.
        TraceId(if h == 0 { 1 } else { h })
    }

    /// The raw 64-bit id (0 means "no trace minted").
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Whether this is the reserved "no trace" id.
    pub fn is_unset(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for TraceId {
    /// Sixteen lowercase hex digits, the W3C-traceparent-style rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Packs a size bound and a coverage target into one word for
/// [`TraceId::mint`]'s second parameter (the conventional encoding used
/// by the set solvers: `k` in the high half, the target in the low).
pub fn pack_k_target(k: usize, target: usize) -> u64 {
    ((k as u64) << 32) ^ (target as u64 & 0xffff_ffff)
}

/// The causal coordinates attached to one enriched event: which trace it
/// belongs to, which span was innermost when it fired, and that span's
/// parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceContext {
    /// The trace this event belongs to (0 = no trace minted yet).
    pub trace_id: TraceId,
    /// Innermost open span when the event fired (0 = no open span).
    pub span_id: u64,
    /// Parent of that span (0 = root).
    pub parent_span_id: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_deterministic_and_entry_sensitive() {
        let a = TraceId::mint("cmc", 100, 5);
        assert_eq!(a, TraceId::mint("cmc", 100, 5));
        assert_ne!(a, TraceId::mint("cwsc", 100, 5));
        assert_ne!(a, TraceId::mint("cmc", 101, 5));
        assert_ne!(a, TraceId::mint("cmc", 100, 6));
        assert!(!a.is_unset());
    }

    #[test]
    fn display_is_sixteen_hex_digits() {
        let id = TraceId::mint("opt_cmc", 7, 3);
        let text = id.to_string();
        assert_eq!(text.len(), 16);
        assert!(text.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(TraceId::default().to_string(), "0000000000000000");
        assert!(TraceId::default().is_unset());
    }

    #[test]
    fn pack_k_target_separates_halves() {
        assert_ne!(pack_k_target(1, 2), pack_k_target(2, 1));
        assert_ne!(pack_k_target(3, 0), pack_k_target(0, 3));
    }

    #[test]
    fn default_context_is_rootless() {
        let ctx = TraceContext::default();
        assert!(ctx.trace_id.is_unset());
        assert_eq!(ctx.span_id, 0);
        assert_eq!(ctx.parent_span_id, 0);
    }
}
