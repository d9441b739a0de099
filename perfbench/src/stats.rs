//! Order statistics over the benchmark's own raw samples.
//!
//! Quantiles are named in integer permille ([`Permille`]), so a caller
//! cannot confuse the 0–100 and 0–1 scales: `Permille::P50` is the
//! median, `Permille::P99` the 99th percentile.

/// A quantile rank in thousandths, `0..=1000`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Permille(u16);

impl Permille {
    /// The median.
    pub const P50: Permille = Permille(500);
    /// The 90th percentile.
    pub const P90: Permille = Permille(900);
    /// The 99th percentile.
    pub const P99: Permille = Permille(990);

    /// A quantile of `n` thousandths, or `None` above 1000.
    #[must_use]
    pub const fn new(n: u16) -> Option<Permille> {
        if n <= 1000 {
            Some(Permille(n))
        } else {
            None
        }
    }
}

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
#[must_use]
pub fn quantile(sorted: &[u64], q: Permille) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len() as u64;
    // rank = ceil(q * n / 1000), clamped to 1..=n.
    let rank = (u64::from(q.0) * n).div_ceil(1000).clamp(1, n);
    Some(sorted[(rank - 1) as usize])
}

/// Summary of one latency-like sample set, in the samples' unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Sort `samples` in place and summarize them; `None` when empty.
#[must_use]
pub fn summarize(samples: &mut [u64]) -> Option<Summary> {
    samples.sort_unstable();
    Some(Summary {
        n: samples.len(),
        p50: quantile(samples, Permille::P50)? as f64,
        p90: quantile(samples, Permille::P90)? as f64,
        p99: quantile(samples, Permille::P99)? as f64,
    })
}

/// Median of a float sample set (mean of the middle two when even);
/// `None` when empty.
#[must_use]
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 0 {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// Which of several measured intervals to keep,
/// given the CPU time others took during each and the most each may
/// lose: those within `limit[i]`, or, when fewer than a third of them
/// are, the third others took least from (earlier first on ties).
/// Indices come back ascending.
#[must_use]
pub fn least_taken(taken: &[f64], limit: &[f64]) -> Vec<usize> {
    let within: Vec<usize> = (0..taken.len()).filter(|&i| taken[i] <= limit[i]).collect();
    let third = taken.len().div_ceil(3);
    if within.len() >= third {
        return within;
    }
    let mut order: Vec<usize> = (0..taken.len()).collect();
    order.sort_by(|&a, &b| taken[a].total_cmp(&taken[b]).then(a.cmp(&b)));
    order.truncate(third);
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, Permille::P50), Some(50));
        assert_eq!(quantile(&v, Permille::P90), Some(90));
        assert_eq!(quantile(&v, Permille::P99), Some(99));
        assert_eq!(quantile(&v, Permille::new(1000).unwrap()), Some(100));
        assert_eq!(quantile(&v, Permille::new(0).unwrap()), Some(1));
        assert_eq!(quantile(&v, Permille::new(10).unwrap()), Some(1));
        assert_eq!(quantile(&v, Permille::new(11).unwrap()), Some(2));
    }

    #[test]
    fn small_and_uneven_vectors() {
        assert_eq!(quantile(&[], Permille::P50), None);
        assert_eq!(quantile(&[7], Permille::P50), Some(7));
        assert_eq!(quantile(&[7], Permille::P99), Some(7));
        assert_eq!(quantile(&[1, 2, 3], Permille::P50), Some(2));
        assert_eq!(quantile(&[1, 2, 3, 4], Permille::P50), Some(2));
        assert_eq!(quantile(&[1, 2, 3, 4], Permille::P99), Some(4));
        // 1000 samples: p99 is the 990th, leaving ten samples beyond it.
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(quantile(&v, Permille::P99), Some(989));
    }

    #[test]
    fn permille_rejects_percent_scale() {
        assert!(Permille::new(1001).is_none());
        assert_eq!(Permille::new(500), Some(Permille::P50));
    }

    #[test]
    fn summarize_sorts_first() {
        let mut v = vec![9, 1, 5, 3, 7];
        let s = summarize(&mut v).unwrap();
        assert_eq!((s.n, s.p50, s.p90, s.p99), (5, 5.0, 9.0, 9.0));
        assert!(summarize(&mut []).is_none());
    }

    #[test]
    fn keeps_the_windows_within_the_limit() {
        let taken = [0.0, 0.03, 0.01, 0.0, 0.2, 0.02];
        assert_eq!(least_taken(&taken, &[0.02; 6]), vec![0, 2, 3, 5]);
        assert_eq!(least_taken(&[], &[]), Vec::<usize>::new());
    }

    #[test]
    fn falls_back_to_the_least_taken_third() {
        // Only one of six within the limit: keep the two others took least from.
        let taken = [0.5, 0.3, 0.01, 0.4, 0.3, 0.9];
        assert_eq!(least_taken(&taken, &[0.02; 6]), vec![1, 2]);
        // Ties go to the earlier interval.
        assert_eq!(least_taken(&[0.1, 0.1, 0.1], &[0.0; 3]), vec![0]);
    }

    #[test]
    fn float_median() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_f64(&[]), None);
    }
}
