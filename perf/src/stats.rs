//! Percentiles, run-to-run spread, and the rule that compares two sets of
//! runs against a bound.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// 10th percentile by nearest rank: the minimum for up to ten samples.
pub fn low_decile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "low decile of no samples");
    sorted(values)[values.len().div_ceil(10) - 1]
}

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// 90th percentile by nearest rank — but only when at least
/// [`TAIL_SAMPLES`] samples lie beyond it, i.e. from 100 samples on.
pub fn p90(values: &[f64]) -> Option<f64> {
    let n = values.len();
    let rank = (9 * n).div_ceil(10); // 1-based nearest rank of the 90th percentile
    if rank == 0 || n - rank < TAIL_SAMPLES {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default, exclusive method) gives them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Distance between the quartiles as a share of the median; 0 for fewer
/// than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1).abs() / median(values).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

/// Outcome of comparing one (metric, workload) pair between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound and the two sets
    /// overlap, so the medians cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b`'s median is worse than `a`'s, as a share of `a`'s
/// median; negative when `b` is better.
pub fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let base = ma.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => (mb - ma) / base,
        Better::Higher => (ma - mb) / base,
    }
}

/// Compare set `b` (the change) against set `a` (the parent). `b` is worse
/// when its median is worse than `a`'s by more than `bound`. Where either
/// set's own spread exceeds the bound the pair is unresolved, unless every
/// run of `b` reads better than every run of `a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let spread = quartile_spread(a).max(quartile_spread(b));
    if spread > bound {
        let b_always_better = match better {
            Better::Lower => sorted(b).last() < sorted(a).first(),
            Better::Higher => sorted(b).first() > sorted(a).last(),
        };
        if !b_always_better {
            return Verdict::Unresolved;
        }
    }
    if worsening(a, b, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&v), None, "99 samples leave only nine beyond the 90th");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            p90(&v),
            Some(90.0),
            "100 samples leave exactly ten beyond it"
        );
        assert_eq!(p90(&[]), None);
        assert_eq!(p90(&[1.0; 8]), None);
    }

    #[test]
    fn low_decile_is_the_nearest_rank() {
        assert_eq!(low_decile(&[5.0, 3.0, 4.0]), 3.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(low_decile(&v), 1.0);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(low_decile(&v), 2.0);
        let v: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        assert_eq!(low_decile(&v), 5.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_comparison_respects_direction_and_bound() {
        let a = [100.0, 101.0, 99.0];
        // Lower is better: 4 % slower is inside a 5 % bound, 6 % is not.
        assert_eq!(
            judge(&a, &[104.0, 104.5, 103.5], Better::Lower, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[106.0, 106.5, 105.5], Better::Lower, 0.05),
            Verdict::Worse
        );
        // Higher is better: the same numbers the other way round.
        assert_eq!(
            judge(&a, &[94.0, 93.5, 94.5], Better::Higher, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[106.0, 107.0, 105.0], Better::Higher, 0.05),
            Verdict::Ok
        );
        // A single run each has no spread: the medians decide.
        assert_eq!(judge(&[1.0], &[1.2], Better::Lower, 0.1), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sets_are_disjoint() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &[85.0, 105.0, 125.0], Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // Every run of b below every run of a: resolved, and better.
        assert_eq!(
            judge(&noisy, &[50.0, 60.0, 70.0], Better::Lower, 0.05),
            Verdict::Ok
        );
    }
}
