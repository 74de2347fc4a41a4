//! Order statistics over timing samples: median, quartiles, and the
//! highest percentile that still has at least ten samples beyond it.

/// Samples needed beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Order statistics of one set of samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// The tail percentile reported (e.g. 99.0), if any percentile has
    /// [`TAIL_SAMPLES`] samples beyond it.
    pub tail_pct: Option<f64>,
    /// The sample value at `tail_pct`.
    pub tail: Option<f64>,
}

/// Quantile `q` in `[0, 1]` of sorted samples, interpolating linearly
/// between closest ranks (the "inclusive" method).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarizes `samples`; `None` when there are none.
///
/// The tail is the highest of p99.9, p99, p95, p90 and p50 with at
/// least [`TAIL_SAMPLES`] samples strictly above its rank, so a tail
/// figure never rests on a handful of outliers.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Percentiles in tenths of a percent, so the count test is exact.
    let tail = [999, 990, 950, 900, 500]
        .into_iter()
        .find(|&p| n * (1000 - p) >= TAIL_SAMPLES * 1000);
    Some(Summary {
        n,
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        tail_pct: tail.map(|p| p as f64 / 10.0),
        tail: tail.map(|p| quantile(&sorted, p as f64 / 1000.0)),
    })
}

/// Prints `workload: name n=.. min=.. q1=.. median=.. q3=.. unit`.
pub fn print_summary(workload: &str, name: &str, unit: &str, samples: &[f64]) {
    if let Some(s) = summarize(samples) {
        println!(
            "{workload}: {name} n={} min={} q1={} median={} q3={} {unit}",
            s.n,
            percentile(samples, 0.0),
            s.q1,
            s.median,
            s.q3
        );
    }
}

/// The median of `samples` (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(f64::NAN, |s| s.median)
}

/// Percentile `pct` (0-100) of `samples` (`NaN` when empty).
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, pct / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_summary() {
        assert_eq!(summarize(&[]), None);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let s = summarize(&[3.5]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 3.5, 3.5, 3.5));
        assert_eq!(s.tail_pct, None);
    }

    #[test]
    fn quartiles_interpolate_and_ignore_order() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let even = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert_eq!(even.q1, 1.75);
        assert_eq!(even.q3, 3.25);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.tail_pct, Some(99.0));
        assert!((s.tail.unwrap() - 990.01).abs() < 1e-9);
        // 999 samples leave only 9.99 beyond p99: fall back to p95.
        assert_eq!(summarize(&v[..999]).unwrap().tail_pct, Some(95.0));
        // 10 000 samples support p99.9.
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(summarize(&big).unwrap().tail_pct, Some(99.9));
        // Too few for any tail.
        assert_eq!(summarize(&v[..19]).unwrap().tail_pct, None);
        assert_eq!(summarize(&v[..20]).unwrap().tail_pct, Some(50.0));
    }

    #[test]
    fn percentile_matches_summary() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), summarize(&v).unwrap().median);
        assert!((percentile(&v, 99.0) - 990.01).abs() < 1e-9);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
