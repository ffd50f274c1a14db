//! Multi-client fairness accounting.

/// Jain's fairness index over per-client allocations:
/// `(Σxᵢ)² / (n · Σxᵢ²)`, in `(0, 1]`. 1.0 means every client gets the
/// same share; `k/n` means `k` of `n` clients get everything. The standard
/// scalar for "did the shared L2 starve anyone" in multi-client runs.
/// Empty or all-zero inputs return 1.0 (nobody is being treated unequally).
pub fn jain_fairness(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_bounds_and_known_values() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_fairness(&[0.7, 0.7, 0.7, 0.7]), 1.0);
        // One of four clients gets everything → k/n = 1/4.
        assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Two equal shares of four → 1/2.
        assert!((jain_fairness(&[3.0, 3.0, 0.0, 0.0]) - 0.5).abs() < 1e-12);
        let skewed = jain_fairness(&[0.9, 0.8, 0.85, 0.2]);
        assert!(skewed > 0.25 && skewed < 1.0);
    }
}
