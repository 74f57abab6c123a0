//! Fairness indices over per-cell outcomes.
//!
//! The paper argues (Sections 5–6) that the adaptive scheme "provides fair
//! service to each cell" because the bounded fallback to search prevents
//! the starvation possible under the pure update scheme. We quantify that
//! with Jain's fairness index over per-cell service metrics.

/// Jain's fairness index: `(Σx)² / (n · Σx²)`, in `(0, 1]`; `1` is
/// perfectly fair. Returns `None` for an empty slice and `Some(1.0)` for
/// an all-zero allocation (conventionally perfectly fair).
pub fn jain_index(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let sum: f64 = xs.iter().sum();
    let sq_sum: f64 = xs.iter().map(|x| x * x).sum();
    if sq_sum == 0.0 {
        return Some(1.0);
    }
    Some(sum * sum / (xs.len() as f64 * sq_sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_uniform_is_one() {
        assert_eq!(jain_index(&[3.0, 3.0, 3.0, 3.0]), Some(1.0));
    }

    #[test]
    fn jain_single_user_hogging() {
        // One of n users gets everything → index = 1/n.
        let idx = jain_index(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_edge_cases() {
        assert_eq!(jain_index(&[]), None);
        assert_eq!(jain_index(&[0.0, 0.0]), Some(1.0));
    }

    #[test]
    fn jain_is_scale_invariant() {
        let a = jain_index(&[1.0, 2.0, 3.0]).unwrap();
        let b = jain_index(&[10.0, 20.0, 30.0]).unwrap();
        assert!((a - b).abs() < 1e-12);
    }
}
