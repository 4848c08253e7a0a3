//! Order statistics the benchmark reports.

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`): the smallest
/// sample `v` such that at least `q · n` samples are `≤ v`. Returns 0.0 for
/// an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median as the mean of the two middle samples (even counts), so a
/// two-sample cell reports its mean rather than its faster run.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of positive values (0.0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `part / whole`, or 0.0 when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, checked by brute force: the smallest sample whose
    /// at-or-below count reaches `q · n`.
    fn brute_force(values: &[f64], q: f64) -> f64 {
        let need = q * values.len() as f64;
        let mut best = f64::INFINITY;
        for &candidate in values {
            let at_or_below = values.iter().filter(|&&v| v <= candidate).count() as f64;
            if at_or_below >= need && candidate < best {
                best = candidate;
            }
        }
        best
    }

    #[test]
    fn percentile_matches_brute_force_sort() {
        let inputs: [&[f64]; 4] = [
            &[5.0],
            &[3.0, 1.0, 2.0],
            &[9.5, 0.25, 7.0, 7.0, 1.5, 3.25, 8.0, 2.0, 6.5, 4.0],
            &[1.2, 1.3, 1.25, 5.1, 1.27, 1.31, 1.29, 1.24, 1.26, 1.28, 1.3, 2.0],
        ];
        for values in inputs {
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let expected = if q == 0.0 {
                    values.iter().copied().fold(f64::INFINITY, f64::min)
                } else {
                    brute_force(values, q)
                };
                assert_eq!(percentile(values, q), expected, "q={q} values={values:?}");
            }
        }
    }

    #[test]
    fn percentile_ranks_on_a_known_sequence() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.95), 95.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
