//! Order statistics over a run's repetitions.

/// Median (mean of the two middle values for an even count). `None` for
/// an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The highest order statistic that still has `beyond` samples above it —
/// the choosing-metrics rule "report the highest percentile that has at
/// least ten samples beyond it". Returns `(rank, value)` with `rank`
/// 1-based, or `None` when the sample has no more than `beyond` values.
pub fn tail(values: &[f64], beyond: usize) -> Option<(usize, f64)> {
    if values.len() <= beyond {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = v.len() - beyond;
    Some((rank, v[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 24 repetitions: the 14th smallest has exactly ten above it.
        let v: Vec<f64> = (1..=24).rev().map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((14, 14.0)));
        // Eleven samples: only the minimum qualifies.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((1, 1.0)));
        // Ten or fewer: no percentile has ten samples beyond it.
        assert_eq!(tail(&v[..10], 10), None);
        assert_eq!(tail(&[], 10), None);
    }
}
