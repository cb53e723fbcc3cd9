//! Summary statistics and name checks shared by every workload.

/// Median of `v` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail percentile together with how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile actually reported (≤ the one asked for).
    pub percentile: u32,
    pub samples: usize,
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest whole percentile ≤ `want` that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it (nearest-rank definition).
/// `None` when there are too few samples for any such percentile.
pub fn tail(v: &[f64], want: u32) -> Option<Tail> {
    let n = v.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let s = sorted(v);
    (1..=want.min(99)).rev().find_map(|q| {
        // Nearest rank: the smallest index covering q% of the samples.
        let idx = ((q as usize * n).div_ceil(100)).max(1) - 1;
        (n - 1 - idx >= TAIL_MIN_BEYOND).then(|| Tail {
            value: s[idx],
            percentile: q,
            samples: n,
        })
    })
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    let s = sorted(v);
    let m = s.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Median and inter-quartile range of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Spread {
    pub median: f64,
    pub iqr: f64,
    pub reps: usize,
}

impl Spread {
    pub fn of(v: &[f64]) -> Spread {
        let iqr = quartiles(v).map_or(0.0, |(q1, q3)| q3 - q1);
        Spread {
            median: median(v),
            iqr,
            reps: v.len(),
        }
    }
}

/// A metric name: starts with a letter or digit, at most 64 characters
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_p99_once_a_thousand_samples_exist() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 99).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99, 990.0, 1000));
        // Exactly ten samples lie beyond it.
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_backs_off_until_ten_samples_lie_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 99).unwrap();
        assert_eq!((t.percentile, t.value), (90, 90.0));
        let v: Vec<f64> = (1..=37).map(f64::from).collect();
        let t = tail(&v, 99).unwrap();
        assert!(v.iter().filter(|&&x| x > t.value).count() >= 10);
        assert!(tail(&v[..10], 99).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_reports_median_and_iqr() {
        let s = Spread::of(&[10.0, 10.0, 11.0, 9.0, 10.0]);
        assert_eq!(s.median, 10.0);
        assert_eq!(s.reps, 5);
        assert_eq!(s.iqr, 1.0);
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_metric_name("pcoll_comm.buf.reduce_gib_s"));
        assert!(valid_metric_name("round_ms_p99"));
        assert!(valid_metric_name("2nd-try"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("_leading"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("slash/name"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }
}
