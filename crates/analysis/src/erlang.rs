//! Erlang-B blocking, the classical check for the fixed baseline.
//!
//! A cell with `c` primary channels offered `a = λ/μ` Erlangs of Poisson
//! traffic blocks with probability `B(c, a)`. The fixed-allocation
//! simulation must reproduce this — an end-to-end sanity check for the
//! traffic generator, the engine, and the baseline together.

/// Erlang-B blocking probability for `servers` channels at `offered`
/// Erlangs, via the numerically stable recurrence
/// `B(0) = 1`, `B(k) = a·B(k−1) / (k + a·B(k−1))`.
pub fn erlang_b(servers: u32, offered: f64) -> f64 {
    assert!(offered >= 0.0, "offered load must be non-negative");
    let mut b = 1.0;
    for k in 1..=servers {
        b = offered * b / (k as f64 + offered * b);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_load_never_blocks() {
        assert_eq!(erlang_b(10, 0.0), 0.0);
    }

    #[test]
    fn zero_servers_always_block() {
        assert_eq!(erlang_b(0, 5.0), 1.0);
    }

    #[test]
    fn classic_table_values() {
        // Standard teletraffic table: B(10, 5) ≈ 0.018385.
        assert!((erlang_b(10, 5.0) - 0.018385).abs() < 1e-4);
        // B(1, 1) = 0.5.
        assert!((erlang_b(1, 1.0) - 0.5).abs() < 1e-12);
        // B(2, 1) = 0.2.
        assert!((erlang_b(2, 1.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_load_and_servers() {
        assert!(erlang_b(10, 8.0) > erlang_b(10, 5.0));
        assert!(erlang_b(12, 5.0) < erlang_b(10, 5.0));
    }
}
