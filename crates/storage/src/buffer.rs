//! The double-buffering cost model.
//!
//! CorgiPile's tuple-level shuffle needs an in-memory buffer holding `n`
//! blocks (1–10 % of the data set): a recycled [`Page`](crate::page::Page)
//! filled by `Page::gather` in SGD order, in SQL and the library alike. The
//! paper's §6.3 optimization overlaps
//! buffer filling with SGD via *double buffering* — two buffers swapped
//! between a loader thread and a consumer thread ([`crate::pipeline`]);
//! [`DoubleBufferModel`] computes the resulting pipelined epoch time from
//! per-fill I/O and compute costs, which is how the simulated experiments
//! account the ~11.7 % residual overhead of Figure 13.

/// Analytic pipelined-epoch model for single vs double buffering.
///
/// An epoch consists of `F` buffer fills; fill `i` costs `io[i]` seconds of
/// loading (block reads + buffer copy + shuffle) and `compute[i]` seconds of
/// SGD over the filled buffer.
#[derive(Debug, Clone, Copy, Default)]
pub struct DoubleBufferModel;

impl DoubleBufferModel {
    /// Serial (single-buffer) epoch time: `Σ io + Σ compute`.
    pub fn single_buffer(io: &[f64], compute: &[f64]) -> f64 {
        io.iter().sum::<f64>() + compute.iter().sum::<f64>()
    }

    /// Pipelined (double-buffer) epoch time.
    ///
    /// With two buffers, fill `i+1` overlaps SGD over buffer `i`; the
    /// pipeline finishes at
    /// `io[0] + Σ_{i≥1} max(io[i], compute[i-1]) + compute[last]`.
    pub fn double_buffer(io: &[f64], compute: &[f64]) -> f64 {
        assert_eq!(io.len(), compute.len(), "one compute slot per fill");
        if io.is_empty() {
            return 0.0;
        }
        let mut t = io[0];
        for i in 1..io.len() {
            t += io[i].max(compute[i - 1]);
        }
        t + compute[compute.len() - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn double_buffer_beats_single_buffer() {
        let io = vec![1.0; 10];
        let compute = vec![1.0; 10];
        let single = DoubleBufferModel::single_buffer(&io, &compute);
        let double = DoubleBufferModel::double_buffer(&io, &compute);
        assert_eq!(single, 20.0);
        assert_eq!(double, 11.0); // 1 + 9*max(1,1) + 1
        assert!(double < single);
    }

    #[test]
    fn double_buffer_degenerate_cases() {
        assert_eq!(DoubleBufferModel::double_buffer(&[], &[]), 0.0);
        assert_eq!(DoubleBufferModel::double_buffer(&[2.0], &[3.0]), 5.0);
    }

    #[test]
    fn double_buffer_bound_by_dominant_stage() {
        // When I/O dominates, epoch ≈ total I/O + last compute.
        let io = vec![5.0; 4];
        let compute = vec![0.5; 4];
        let d = DoubleBufferModel::double_buffer(&io, &compute);
        assert!((d - (20.0 + 0.5)).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_double_never_worse_than_single(
            pairs in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 0..32)
        ) {
            let io: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let compute: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let s = DoubleBufferModel::single_buffer(&io, &compute);
            let d = DoubleBufferModel::double_buffer(&io, &compute);
            prop_assert!(d <= s + 1e-9);
            // And never better than the dominant stage alone.
            let io_total: f64 = io.iter().sum();
            let c_total: f64 = compute.iter().sum();
            prop_assert!(d + 1e-9 >= io_total.max(c_total));
        }
    }
}
