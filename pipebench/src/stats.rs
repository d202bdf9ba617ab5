//! Order statistics for reported timings.

/// The median of `values` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (99, 95, 90, 75 or 50).
    pub q: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Percentiles the tail helper may fall back to, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The nearest-rank `q`-th percentile of an ascending slice.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of `values`, up to `want`, that has at least
/// ten samples beyond it, with the sample count. Falls back to the
/// median when even p50 lacks ten samples beyond it; `None` when empty.
pub fn tail(values: &[f64], want: f64) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = TAIL_LADDER
        .iter()
        .copied()
        .filter(|&q| q <= want)
        .find(|&q| {
            let rank = ((q / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank.max(1)) >= 10
        })
        .unwrap_or(50.0);
    Some(Tail {
        q,
        value: nearest_rank(&v, q),
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_uses_p99_only_with_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand, 99.0).unwrap();
        assert_eq!((t.q, t.value, t.samples), (99.0, 990.0, 1000));

        // 999 samples leave only 9 beyond p99: fall back to p95.
        let t = tail(&thousand[..999], 99.0).unwrap();
        assert_eq!((t.q, t.value, t.samples), (95.0, 950.0, 999));

        // 100 samples: p90 leaves exactly 10 beyond it.
        let t = tail(&thousand[..100], 99.0).unwrap();
        assert_eq!((t.q, t.value, t.samples), (90.0, 90.0, 100));

        // Too few samples for any tail: the median is all there is.
        let t = tail(&thousand[..12], 99.0).unwrap();
        assert_eq!((t.q, t.samples), (50.0, 12));
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn tail_never_exceeds_the_requested_percentile() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand, 50.0).unwrap();
        assert_eq!((t.q, t.value), (50.0, 500.0));
    }
}
