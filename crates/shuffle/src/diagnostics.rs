//! Order diagnostics: the measurements behind Figures 3 and 4.
//!
//! Given the tuple stream of one epoch, these helpers compute
//!
//! * the **tuple-id trace** — emitted position → original storage position
//!   (Figures 3a–3d, 4a);
//! * the **label distribution** — counts of negative/positive labels per
//!   window of `w` consecutive emissions (Figures 3e–3h, 4b);
//! * the **mean displacement** — a scalar randomness score used by tests
//!   and the Table-1 summary.

use corgipile_storage::{Access, BlockHandle, RetryPolicy, SimDevice, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Label counts within one window of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelWindow {
    /// First emitted position covered by the window.
    pub start: usize,
    /// Number of labels < 0 (or == 0 for multi-class "first class").
    pub negative: usize,
    /// Number of labels > 0.
    pub positive: usize,
}

/// The tuple-id trace: `trace[k]` is the original storage position of the
/// `k`-th emitted tuple.
pub fn tuple_id_trace(ids: &[u64]) -> Vec<(usize, u64)> {
    ids.iter().copied().enumerate().collect()
}

/// Label counts per window of `window` consecutive emissions (the paper
/// uses windows of 20 tuples for its 1 000-tuple example).
pub fn label_distribution(labels: &[f32], window: usize) -> Vec<LabelWindow> {
    assert!(window > 0, "window must be positive");
    labels
        .chunks(window)
        .enumerate()
        .map(|(i, chunk)| LabelWindow {
            start: i * window,
            negative: chunk.iter().filter(|&&l| l < 0.0).count(),
            positive: chunk.iter().filter(|&&l| l > 0.0).count(),
        })
        .collect()
}

/// Mean absolute displacement between emitted position and storage
/// position, normalized by the stream length.
///
/// * ≈ 0 — not shuffled (No Shuffle, Sliding-Window's near-diagonal);
/// * ≈ 1/3 — a uniform random permutation's expectation.
pub fn order_displacement(ids: &[u64]) -> f64 {
    if ids.is_empty() {
        return 0.0;
    }
    let m = ids.len() as f64;
    ids.iter()
        .enumerate()
        .map(|(pos, &id)| (id as f64 - pos as f64).abs())
        .sum::<f64>()
        / (m * m)
}

/// χ²-style uniformity score of per-window positive fractions against the
/// global positive fraction; lower is more uniform (a full shuffle scores
/// near the sampling noise floor).
pub fn label_uniformity_score(labels: &[f32], window: usize) -> f64 {
    let windows = label_distribution(labels, window);
    if windows.is_empty() {
        return 0.0;
    }
    let total_pos: usize = windows.iter().map(|w| w.positive).sum();
    let total: usize = windows.iter().map(|w| w.positive + w.negative).sum();
    if total == 0 {
        return 0.0;
    }
    let p = total_pos as f64 / total as f64;
    windows
        .iter()
        .map(|w| {
            let n = (w.positive + w.negative) as f64;
            if n == 0.0 {
                return 0.0;
            }
            let frac = w.positive as f64 / n;
            (frac - p) * (frac - p)
        })
        .sum::<f64>()
        / windows.len() as f64
}

/// The block-level data variance estimate ĥ_D driving the cost-based
/// planner, plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockVariance {
    /// Between-block variance of per-block label means, normalized by the
    /// overall label variance and clamped to [0, 1]. ≈ 0 for shuffled
    /// storage, ≈ 1 for label-pure (adversarially clustered) blocks.
    pub hd: f64,
    /// Blocks the estimate was computed from.
    pub blocks_sampled: usize,
    /// Total blocks in the table.
    pub blocks_total: usize,
    /// Simulated I/O charged to produce the estimate (0 for the exact,
    /// in-memory computation).
    pub io_seconds: f64,
}

fn variance_from_blocks(per_block: &[(usize, f64)], all_labels: &[f32]) -> f64 {
    let total = all_labels.len();
    if total == 0 || per_block.is_empty() {
        return 0.0;
    }
    let n = total as f64;
    let mean = all_labels.iter().map(|&l| l as f64).sum::<f64>() / n;
    let var = all_labels
        .iter()
        .map(|&l| (l as f64 - mean) * (l as f64 - mean))
        .sum::<f64>()
        / n;
    if var < 1e-12 {
        return 0.0;
    }
    let between: f64 = per_block
        .iter()
        .map(|&(count, block_mean)| count as f64 * (block_mean - mean) * (block_mean - mean))
        .sum();
    (between / (n * var)).clamp(0.0, 1.0)
}

/// ĥ_D over the non-empty of `blocks`, and how many there were.
fn block_variance(blocks: impl Iterator<Item = BlockHandle>) -> (f64, usize) {
    let (mut labels, mut per_block) = (Vec::new(), Vec::new());
    for block in blocks.filter(|block| !block.is_empty()) {
        let sum: f64 = block.rows().map(|t| t.label as f64).sum();
        per_block.push((block.len(), sum / block.len() as f64));
        labels.extend(block.rows().map(|t| t.label));
    }
    (variance_from_blocks(&per_block, &labels), per_block.len())
}

/// Exact block-level variance ĥ_D of `table` (no I/O charged; reads the
/// in-memory heap directly). Ground truth for the sampled estimator.
pub fn block_variance_exact(table: &Table) -> BlockVariance {
    let blocks_total = table.num_blocks();
    let blocks = (0..blocks_total).map(|b| table.block_handle(b).expect("block in range"));
    BlockVariance {
        hd: block_variance(blocks).0,
        blocks_sampled: blocks_total,
        blocks_total,
        io_seconds: 0.0,
    }
}

/// Estimate ĥ_D from a bounded stratified sample of blocks, charging the
/// real random-read cost to `dev`.
///
/// Reads `ceil(fraction × N)` blocks (at least 2 where the table allows),
/// one seeded-random pick per equal-width stratum of the block range.
/// Stratification matters on exactly the layouts the estimator exists to
/// detect: an adversarially clustered table is a few long label-pure runs,
/// and a small *uniform* sample can land entirely inside one run and report
/// ĥ_D ≈ 0 where the true value is ≈ 1. One pick per stratum covers every
/// run proportionally to its length. Blocks that fail even after retries
/// are skipped rather than failing the estimate — a statistics pass must
/// never kill the query it serves.
pub fn block_variance_sampled(
    table: &Table,
    fraction: f64,
    seed: u64,
    dev: &mut SimDevice,
) -> BlockVariance {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "sample fraction must be in (0, 1]"
    );
    let blocks_total = table.num_blocks();
    // An empty table has no block to pick.
    let want = ((blocks_total as f64 * fraction).ceil() as usize)
        .clamp(2.min(blocks_total.max(1)), blocks_total.max(1))
        .min(blocks_total);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4D_5A);
    let mut picks: Vec<usize> = Vec::with_capacity(want);
    for s in 0..want {
        // Stratum s covers [s·N/want, (s+1)·N/want); pick one block in it.
        let lo = s * blocks_total / want;
        let hi = (((s + 1) * blocks_total / want).max(lo + 1)).min(blocks_total);
        picks.push(rng.gen_range(lo..hi));
    }
    picks.dedup();
    let before = dev.stats().io_seconds;
    let read = |&b: &usize| {
        table
            .read(b, Access::Random, dev, &RetryPolicy::default())
            .ok()
    };
    let (hd, blocks_sampled) = block_variance(picks.iter().filter_map(read));
    BlockVariance {
        hd,
        blocks_sampled,
        blocks_total,
        io_seconds: dev.stats().io_seconds - before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::rng::shuffle_in_place;

    #[test]
    fn trace_is_positional() {
        let ids = vec![5u64, 2, 9];
        assert_eq!(tuple_id_trace(&ids), vec![(0, 5), (1, 2), (2, 9)]);
    }

    #[test]
    fn label_distribution_counts_windows() {
        let labels = vec![-1.0, -1.0, 1.0, 1.0, 1.0, -1.0];
        let d = label_distribution(&labels, 3);
        assert_eq!(d.len(), 2);
        assert_eq!(
            d[0],
            LabelWindow {
                start: 0,
                negative: 2,
                positive: 1
            }
        );
        assert_eq!(
            d[1],
            LabelWindow {
                start: 3,
                negative: 1,
                positive: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        label_distribution(&[1.0], 0);
    }

    #[test]
    fn displacement_zero_for_identity_third_for_random() {
        let identity: Vec<u64> = (0..10_000).collect();
        assert!(order_displacement(&identity) < 1e-9);

        let mut random = identity.clone();
        shuffle_in_place(&mut StdRng::seed_from_u64(1), &mut random);
        let d = order_displacement(&random);
        assert!((d - 1.0 / 3.0).abs() < 0.02, "random displacement {d}");
    }

    #[test]
    fn displacement_reversed_is_half() {
        let rev: Vec<u64> = (0..10_000).rev().collect();
        let d = order_displacement(&rev);
        assert!((d - 0.5).abs() < 0.01, "reverse displacement {d}");
    }

    #[test]
    fn uniformity_scores_separate_clustered_from_shuffled() {
        // Clustered: 500 negatives then 500 positives.
        let clustered: Vec<f32> = (0..1000)
            .map(|i| if i < 500 { -1.0 } else { 1.0 })
            .collect();
        let mut shuffled = clustered.clone();
        shuffle_in_place(&mut StdRng::seed_from_u64(2), &mut shuffled);
        let s_clustered = label_uniformity_score(&clustered, 20);
        let s_shuffled = label_uniformity_score(&shuffled, 20);
        assert!(
            s_clustered > 10.0 * s_shuffled,
            "clustered {s_clustered} vs shuffled {s_shuffled}"
        );
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(order_displacement(&[]), 0.0);
        assert_eq!(label_uniformity_score(&[], 5), 0.0);
    }

    use corgipile_data::{DatasetSpec, Order};
    use proptest::prelude::*;

    fn table(n: usize, order: Order) -> Table {
        DatasetSpec::higgs_like(n)
            .with_order(order)
            .with_block_bytes(8192)
            .build_table(1)
            .unwrap()
    }

    #[test]
    fn exact_hd_separates_clustered_from_shuffled() {
        let clustered = block_variance_exact(&table(3000, Order::ClusteredByLabel));
        let shuffled = block_variance_exact(&table(3000, Order::Shuffled));
        assert!(clustered.hd > 0.8, "clustered hd {}", clustered.hd);
        assert!(shuffled.hd < 0.1, "shuffled hd {}", shuffled.hd);
        assert_eq!(clustered.io_seconds, 0.0);
        assert_eq!(clustered.blocks_sampled, clustered.blocks_total);
    }

    #[test]
    fn sampled_hd_charges_io_and_reads_only_the_sample() {
        let t = table(3000, Order::ClusteredByLabel);
        let mut dev = SimDevice::hdd(0);
        let est = block_variance_sampled(&t, 0.1, 7, &mut dev);
        assert!(est.io_seconds > 0.0);
        assert!(est.blocks_sampled < est.blocks_total);
        assert_eq!(dev.stats().random_reads as usize, est.blocks_sampled);
        // A second estimate on the same device costs again (no hidden cache).
        assert!(est.blocks_sampled >= 2);
    }

    #[test]
    fn sampled_hd_survives_injected_faults_by_skipping() {
        let t = table(3000, Order::ClusteredByLabel);
        let mut dev = SimDevice::hdd(0);
        dev.set_fault_plan(corgipile_storage::FaultPlan::new(3).with_permanent(0, 1));
        let est = block_variance_sampled(&t, 1.0, 7, &mut dev);
        assert_eq!(est.blocks_sampled, est.blocks_total - 1);
        assert!(est.hd > 0.8, "estimate still usable: {}", est.hd);
    }

    proptest! {
        // Satellite: ĥ_D from a 10% block sample stays within a tolerance
        // band of the exact value, on adversarial and benign layouts alike.
        #[test]
        fn prop_sampled_hd_tracks_exact(
            n in 2500usize..6000,
            seed in 0u64..32,
            layout in 0usize..2,
        ) {
            let clustered = layout == 1;
            let order = if clustered { Order::ClusteredByLabel } else { Order::Shuffled };
            let t = table(n, order);
            // 8 KiB blocks over ≥2500 higgs-like tuples: ≥20 blocks.
            assert!(t.num_blocks() >= 20, "degenerate layout: {}", t.num_blocks());
            let exact = block_variance_exact(&t).hd;
            let mut dev = SimDevice::hdd(0);
            let est = block_variance_sampled(&t, 0.1, seed, &mut dev).hd;
            prop_assert!(
                (est - exact).abs() <= 0.2,
                "sampled {est} vs exact {exact} (n={n}, clustered={clustered})"
            );
        }
    }
}
