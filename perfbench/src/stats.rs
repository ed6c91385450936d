//! Order statistics over timing samples. Every result carries the
//! sample count it was computed from, so a printed percentile always
//! says how much data stands behind it.

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_of_sorted(v: &[f64]) -> f64 {
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median and quartiles. The quartiles use the same rule as Python's
/// `statistics.quantiles(samples, n=4)` (the "exclusive" method), so
/// spreads printed here match those computed from the JSON output.
/// Returns `None` for an empty set; a single sample is its own
/// quartiles.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        1 => Some(Summary {
            n,
            q1: v[0],
            median: v[0],
            q3: v[0],
        }),
        _ => {
            // Python's integer arithmetic, including its extrapolation
            // past the data for very small sets.
            let quartile = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (4 * j) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some(Summary {
                n,
                q1: quartile(1),
                median: median_of_sorted(&v),
                q3: quartile(3),
            })
        }
    }
}

/// The median alone; `None` for an empty set.
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples).map(|s| s.median)
}

/// A nearest-rank percentile and the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at rank `ceil(p * n)`.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` in `(0, 1]`: the smallest sample with at
/// least `p * n` samples at or below it.
///
/// # Errors
///
/// Refuses (with a message naming the shortfall) when fewer than
/// `min_beyond` samples lie beyond the reported rank — a tail estimate
/// resting on fewer outliers than that is noise.
pub fn percentile(samples: &[f64], p: f64, min_beyond: usize) -> Result<Percentile, String> {
    if !(p > 0.0 && p <= 1.0) {
        return Err(format!("percentile {p} outside (0, 1]"));
    }
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return Err("percentile of an empty sample set".to_string());
    }
    // Rounded before the ceiling so that e.g. 0.9 * 100 is rank 90, not
    // 91 through floating-point error.
    let rank = ((p * n as f64 * 1e9).round() / 1e9).ceil().max(1.0) as usize;
    let beyond = n - rank;
    if beyond < min_beyond {
        return Err(format!(
            "p{} over {n} samples has {beyond} beyond it; at least {min_beyond} are required",
            p * 100.0
        ));
    }
    Ok(Percentile {
        value: v[rank - 1],
        n,
        beyond,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (3, 1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = summarize(&[4.0, 2.0, 3.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_sets() {
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[]), None);
        let s = summarize(&[4.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 4.0, 4.0, 4.0));
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentile_counts_the_tail() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&samples, 0.9, 10).unwrap();
        assert_eq!((p.value, p.n, p.beyond), (90.0, 100, 10));
        let p = percentile(&samples, 0.5, 0).unwrap();
        assert_eq!(p.value, 50.0);
        let p = percentile(&samples, 1.0, 0).unwrap();
        assert_eq!((p.value, p.beyond), (100.0, 0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        // rank ceil(89.1) = 90 leaves 9 beyond.
        let err = percentile(&samples, 0.9, 10).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(percentile(&samples, 0.9, 9).is_ok());
        assert!(percentile(&[], 0.5, 0).is_err());
        assert!(percentile(&samples, 0.0, 0).is_err());
    }
}
