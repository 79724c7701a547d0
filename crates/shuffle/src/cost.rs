//! Cost model for strategy-adaptive planning.
//!
//! Scores each DB-available [`StrategyKind`] (and, for tuple-buffered kinds,
//! a small sweep of buffer fractions) as
//!
//! ```text
//! score = setup_io + epochs × convergence_factor(kind, ĥ_D, α) × epoch_io
//! ```
//!
//! `epoch_io` is the analytic per-epoch read cost on the target
//! [`DeviceProfile`] (sequential scan, block-random scan, or near-sequential
//! reversal scan), plus the clock's buffering price
//! ([`clock::buffering_seconds`]) for strategies that stage tuples through a
//! buffer. `convergence_factor` folds the
//! block-level data variance ĥ_D into an *effective epochs-to-target*
//! multiplier: strategies that mix poorly on clustered data (high ĥ_D) pay a
//! large factor, CorgiPile's factor shrinks with buffer fraction α, and
//! Corgi²'s shrinks further because re-clustering with I/O budget `b`
//! attenuates the residual variance by (1 − b)². One-off costs (full
//! materialized shuffle, bounded RECLUSTER) enter as `setup_io`, so cheap
//! setups win short runs and thorough setups win long ones.

use crate::strategy::{StrategyKind, StrategyParams};
use corgipile_storage::clock::{self, full_shuffle_seconds};
use corgipile_storage::{Access, DeviceProfile, Table};

/// One scored (strategy, buffer fraction) candidate.
#[derive(Debug, Clone)]
pub struct CostEstimate {
    /// The strategy being scored.
    pub kind: StrategyKind,
    /// Buffer fraction α used for tuple-buffered kinds (params default
    /// otherwise).
    pub buffer_fraction: f64,
    /// The block-variance estimate the score was computed from.
    pub hd: f64,
    /// One-off setup I/O in simulated seconds (materialization, RECLUSTER).
    pub predicted_setup_io: f64,
    /// Per-epoch read + buffering cost in simulated seconds.
    pub predicted_epoch_io: f64,
    /// Total predicted cost: `setup + epochs × factor × epoch_io`.
    pub score: f64,
}

/// Cost-based strategy chooser.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Number of training epochs the query will run.
    pub epochs: usize,
}

impl CostModel {
    /// A model for a run of `epochs` epochs.
    pub fn new(epochs: usize) -> Self {
        CostModel {
            epochs: epochs.max(1),
        }
    }

    /// Score every DB-available strategy; tuple-buffered kinds are swept
    /// over a small set of buffer fractions starting at the params default.
    pub fn candidates(
        &self,
        table: &Table,
        profile: &DeviceProfile,
        params: &StrategyParams,
        hd: f64,
    ) -> Vec<CostEstimate> {
        let hd = hd.clamp(0.0, 1.0);
        let mut out = Vec::new();
        for kind in StrategyKind::all() {
            if !kind.available_in_db() {
                continue;
            }
            // Space guardrail: Shuffle Once duplicates the whole table on
            // disk (disk_space_factor 2.0) — the planner never chooses that
            // silently; the user can still request it explicitly.
            if kind == StrategyKind::ShuffleOnce {
                continue;
            }
            if kind.is_tuple_buffered() {
                let mut sweep = vec![params.buffer_fraction];
                for alpha in [0.2, 0.3] {
                    if (alpha - params.buffer_fraction).abs() > 1e-12 {
                        sweep.push(alpha);
                    }
                }
                for alpha in sweep {
                    out.push(self.estimate(kind, table, profile, params, hd, alpha));
                }
            } else {
                out.push(self.estimate(kind, table, profile, params, hd, params.buffer_fraction));
            }
        }
        out
    }

    /// The minimum-score candidate.
    pub fn choose(
        &self,
        table: &Table,
        profile: &DeviceProfile,
        params: &StrategyParams,
        hd: f64,
    ) -> CostEstimate {
        self.candidates(table, profile, params, hd)
            .into_iter()
            .min_by(|a, b| a.score.total_cmp(&b.score))
            .expect("at least one DB-available strategy")
    }

    fn estimate(
        &self,
        kind: StrategyKind,
        table: &Table,
        profile: &DeviceProfile,
        params: &StrategyParams,
        hd: f64,
        alpha: f64,
    ) -> CostEstimate {
        let total_bytes = table.total_bytes();
        let num_blocks = table.num_blocks().max(1);
        let transfer = profile.read_time(total_bytes, Access::Sequential);
        let seek = profile.seek_latency_s;

        let sequential = seek + transfer;
        let block_random = num_blocks as f64 * seek + transfer;
        // Reversal pays at most two seeks per epoch: start + rotation wrap.
        let reversal = 2.0 * seek + transfer;

        let full_shuffle = full_shuffle_seconds(profile, total_bytes);
        let buffered_tuples = ((table.num_tuples() as f64) * alpha).ceil() as usize;
        let buffering = clock::buffering_seconds(buffered_tuples.max(1), total_bytes);

        // `factor` is the effective epochs-to-target multiplier relative to
        // a fully uniform stream: the fixed part prices residual ordering
        // bias at h_D = 0 (deterministic scans pay the most, two-level
        // shuffling the least), the h_D-linear part prices sensitivity to
        // clustered storage, and α/io_budget attenuate it for the
        // strategies that actually mix across blocks.
        let (setup, epoch_io, factor) = match kind {
            StrategyKind::NoShuffle => (0.0, sequential, 1.35 + 8.0 * hd),
            StrategyKind::ShuffleOnce => (full_shuffle, sequential, 1.05),
            StrategyKind::TupleOnly => (0.0, sequential + buffering, 1.25 + 6.0 * hd),
            StrategyKind::BlockOnly => (0.0, block_random, 1.15 + 4.0 * hd),
            StrategyKind::BlockReversal => (0.0, reversal, 1.2 + 2.5 * hd),
            StrategyKind::CorgiPile => (
                0.0,
                block_random + buffering,
                1.0 + 0.5 * hd * (1.0 - alpha) + 0.02 * alpha,
            ),
            StrategyKind::Corgi2 => {
                let b = params.io_budget;
                (
                    b * full_shuffle,
                    block_random + buffering,
                    1.0 + 0.5 * hd * (1.0 - b) * (1.0 - b) * (1.0 - alpha) + 0.02 * alpha,
                )
            }
            // Not DB-available; scored only if explicitly requested.
            _ => (0.0, block_random + buffering, 1.25 + 4.0 * hd),
        };

        CostEstimate {
            kind,
            buffer_fraction: alpha,
            hd,
            predicted_setup_io: setup,
            predicted_epoch_io: epoch_io,
            score: setup + self.epochs as f64 * factor * epoch_io,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_data::{DatasetSpec, Order};
    use corgipile_storage::SimDevice;

    fn table(order: Order) -> Table {
        DatasetSpec::higgs_like(3000)
            .with_order(order)
            .with_block_bytes(8192)
            .build_table(1)
            .unwrap()
    }

    #[test]
    fn shuffled_data_keeps_plain_corgipile_at_default_buffer() {
        let t = table(Order::Shuffled);
        let params = StrategyParams::default();
        let pick = CostModel::new(10).choose(&t, &DeviceProfile::hdd_scaled(1000.0), &params, 0.0);
        assert_eq!(pick.kind, StrategyKind::CorgiPile);
        assert_eq!(pick.buffer_fraction, params.buffer_fraction);
    }

    #[test]
    fn clustered_data_on_bandwidth_bound_device_prefers_corgi2() {
        let t = table(Order::ClusteredByLabel);
        let pick = CostModel::new(10).choose(
            &t,
            &DeviceProfile::hdd_scaled(1000.0),
            &StrategyParams::default(),
            1.0,
        );
        assert_eq!(pick.kind, StrategyKind::Corgi2);
    }

    #[test]
    fn clustered_data_on_seek_bound_device_prefers_block_reversal() {
        let t = table(Order::ClusteredByLabel);
        let pick =
            CostModel::new(10).choose(&t, &DeviceProfile::hdd(), &StrategyParams::default(), 1.0);
        assert_eq!(pick.kind, StrategyKind::BlockReversal);
    }

    #[test]
    fn no_shuffle_and_block_only_never_win_on_clustered_data() {
        let t = table(Order::ClusteredByLabel);
        for profile in [
            DeviceProfile::hdd(),
            DeviceProfile::hdd_scaled(1000.0),
            DeviceProfile::ssd(),
        ] {
            let pick = CostModel::new(10).choose(&t, &profile, &StrategyParams::default(), 0.9);
            assert!(
                !matches!(pick.kind, StrategyKind::NoShuffle | StrategyKind::BlockOnly),
                "{} picked {:?}",
                profile.name,
                pick.kind
            );
        }
    }

    #[test]
    fn candidates_cover_every_db_available_kind() {
        let t = table(Order::Shuffled);
        let cands = CostModel::new(5).candidates(
            &t,
            &DeviceProfile::ssd(),
            &StrategyParams::default(),
            0.3,
        );
        for kind in StrategyKind::all() {
            // Shuffle Once is DB-available but planner-excluded (2× disk).
            let expected = kind.available_in_db() && kind != StrategyKind::ShuffleOnce;
            assert_eq!(cands.iter().any(|c| c.kind == kind), expected, "{kind:?}");
        }
        // Tuple-buffered kinds are swept over three fractions.
        let corgi = cands
            .iter()
            .filter(|c| c.kind == StrategyKind::CorgiPile)
            .count();
        assert_eq!(corgi, 3);
    }

    #[test]
    fn corgi2_setup_matches_the_budgeted_full_shuffle_fraction() {
        let t = table(Order::ClusteredByLabel);
        let params = StrategyParams::default().with_io_budget(0.25);
        let dev = SimDevice::hdd(0);
        let full = full_shuffle_seconds(dev.profile(), t.total_bytes());
        let est = CostModel::new(3)
            .candidates(&t, dev.profile(), &params, 0.5)
            .into_iter()
            .find(|c| c.kind == StrategyKind::Corgi2)
            .unwrap();
        assert!((est.predicted_setup_io - 0.25 * full).abs() < 1e-9);
    }

    #[test]
    fn longer_runs_justify_more_setup() {
        let t = table(Order::ClusteredByLabel);
        let profile = DeviceProfile::hdd_scaled(1000.0);
        let params = StrategyParams::default();
        // Short run: setup-free strategies win; long run: Corgi² amortizes.
        let short = CostModel::new(1).choose(&t, &profile, &params, 1.0);
        let long = CostModel::new(30).choose(&t, &profile, &params, 1.0);
        assert_ne!(short.kind, StrategyKind::Corgi2);
        assert_eq!(long.kind, StrategyKind::Corgi2);
    }
}
