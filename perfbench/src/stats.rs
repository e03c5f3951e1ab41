//! Summary helpers: percentiles, the reported tail, and span self time.

/// Percentiles the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon keeps float error (0.999 * 10000 = 9990.000000000002) from
/// bumping an exact rank up by one.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile, at most `cap`, that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it; `None` when even the median
/// does not.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Sorts a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`, or 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        percentile(&sorted(xs), 50.0)
    }
}

/// Self time of a span covering `[start, end]` whose children cover
/// `children`: the span's duration minus the union of the child
/// intervals clipped to the span, so overlapping children count once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(999, 99.0), Some(95.0));
        assert_eq!(tail_percentile(200, 99.0), Some(95.0));
        assert_eq!(tail_percentile(199, 99.0), Some(90.0));
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        assert_eq!(tail_percentile(10_000, 99.9), Some(99.9));
        assert_eq!(tail_percentile(19, 99.0), None);
    }

    #[test]
    fn tail_never_exceeds_its_cap() {
        assert_eq!(tail_percentile(100_000, 90.0), Some(90.0));
        assert_eq!(tail_percentile(99, 90.0), Some(75.0));
    }

    #[test]
    fn chosen_tail_is_the_highest_with_ten_beyond() {
        for n in 20..3000 {
            let p = tail_percentile(n, 99.9).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&q| q > p) {
                assert!(
                    beyond(n, higher) < MIN_BEYOND,
                    "n={n}: {higher} also qualifies"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once: [10, 40) covers 30, not 40.
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 40)]), 70);
        // Nested and touching children.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30), (60, 70)]), 40);
        // Children are clipped to the parent.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time(0, 10, &[(0, 10), (0, 10)]), 0);
    }
}
