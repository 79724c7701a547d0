//! MADlib- and Bismarck-style baseline systems (§7.1.3, §7.3).
//!
//! Neither system's engine can be linked here, so each is emulated as a
//! trainer configuration that reproduces its two defining characteristics
//! (see DESIGN.md §2):
//!
//! * **shuffle strategy** — both rely on No Shuffle or an offline Shuffle
//!   Once (`ORDER BY RANDOM()` with 2× storage);
//! * **per-tuple compute profile** — Bismarck's UDA path is lean; MADlib
//!   "performs more computation on some auxiliary statistical metrics and
//!   has a less efficient implementation" (§7.3.1), and its LR computes a
//!   `stderr` metric whose per-tuple cost grows ~quadratically with the
//!   feature count — the reason MADlib LR "cannot finish even a single
//!   epoch within 4 hours" on epsilon/yfcc.

use corgipile_core::{CorgiPileConfig, TrainerConfig};
use corgipile_ml::ModelKind;
use corgipile_shuffle::StrategyKind;
use corgipile_storage::ComputeCostModel;

/// The in-DB ML systems compared in Figures 1, 11 and 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InDbSystem {
    /// Our system: CorgiPile operators inside the engine.
    CorgiPile,
    /// CorgiPile without the tuple-level shuffle (ablation).
    BlockOnly,
    /// MADlib with a pre-shuffled copy.
    MadlibShuffleOnce,
    /// MADlib over the stored order.
    MadlibNoShuffle,
    /// Bismarck with a pre-shuffled copy.
    BismarckShuffleOnce,
    /// Bismarck over the stored order.
    BismarckNoShuffle,
}

impl InDbSystem {
    /// All systems, CorgiPile first.
    pub fn all() -> [InDbSystem; 6] {
        [
            InDbSystem::CorgiPile,
            InDbSystem::BlockOnly,
            InDbSystem::MadlibShuffleOnce,
            InDbSystem::MadlibNoShuffle,
            InDbSystem::BismarckShuffleOnce,
            InDbSystem::BismarckNoShuffle,
        ]
    }

    /// Display name used in reports.
    pub fn display(&self) -> &'static str {
        match self {
            InDbSystem::CorgiPile => "CorgiPile",
            InDbSystem::BlockOnly => "Block-Only Shuffle",
            InDbSystem::MadlibShuffleOnce => "MADlib (Shuffle Once)",
            InDbSystem::MadlibNoShuffle => "MADlib (No Shuffle)",
            InDbSystem::BismarckShuffleOnce => "Bismarck (Shuffle Once)",
            InDbSystem::BismarckNoShuffle => "Bismarck (No Shuffle)",
        }
    }

    /// The shuffle strategy the system uses.
    pub fn strategy(&self) -> StrategyKind {
        match self {
            InDbSystem::CorgiPile => StrategyKind::CorgiPile,
            InDbSystem::BlockOnly => StrategyKind::BlockOnly,
            InDbSystem::MadlibShuffleOnce | InDbSystem::BismarckShuffleOnce => {
                StrategyKind::ShuffleOnce
            }
            InDbSystem::MadlibNoShuffle | InDbSystem::BismarckNoShuffle => StrategyKind::NoShuffle,
        }
    }

    /// The per-tuple compute profile for a given model/dimensionality, from
    /// the clock's price list.
    pub fn compute_model(&self, model: &ModelKind, dim: usize) -> ComputeCostModel {
        match self {
            InDbSystem::CorgiPile | InDbSystem::BlockOnly => ComputeCostModel::in_db_core(),
            InDbSystem::BismarckShuffleOnce | InDbSystem::BismarckNoShuffle => {
                ComputeCostModel::bismarck()
            }
            // MADlib's LR also pays the quadratic stderr computation.
            InDbSystem::MadlibShuffleOnce | InDbSystem::MadlibNoShuffle => {
                let lr = matches!(model, ModelKind::LogisticRegression);
                ComputeCostModel::madlib(if lr { (dim * dim) as f64 } else { 0.0 })
            }
        }
    }

    /// Whether the paper could run this system on the workload at all
    /// (MADlib LR on wide dense data never finishes, §7.3.1).
    pub fn feasible(&self, model: &ModelKind, dim: usize, sparse: bool) -> bool {
        match self {
            InDbSystem::MadlibShuffleOnce | InDbSystem::MadlibNoShuffle => {
                // MADlib does not support sparse LR/SVM training (§7.3.1),
                // and its LR stalls on wide dense data.
                if sparse {
                    return false;
                }
                !(matches!(model, ModelKind::LogisticRegression) && dim >= 2000)
            }
            _ => true,
        }
    }
}

/// Build the trainer configuration emulating `system` on the given
/// model/dataset geometry.
pub fn system_trainer_config(
    system: InDbSystem,
    model: ModelKind,
    dim: usize,
    epochs: usize,
    corgipile: CorgiPileConfig,
) -> TrainerConfig {
    let compute = system.compute_model(&model, dim);
    TrainerConfig::new(model, epochs)
        .with_strategy(system.strategy())
        .with_corgipile(corgipile)
        .with_compute(compute)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_core::Trainer;
    use corgipile_data::{DatasetSpec, Order};
    use corgipile_storage::SimDevice;

    #[test]
    fn strategies_map_correctly() {
        assert_eq!(InDbSystem::CorgiPile.strategy(), StrategyKind::CorgiPile);
        assert_eq!(
            InDbSystem::MadlibShuffleOnce.strategy(),
            StrategyKind::ShuffleOnce
        );
        assert_eq!(
            InDbSystem::BismarckNoShuffle.strategy(),
            StrategyKind::NoShuffle
        );
        assert_eq!(InDbSystem::all().len(), 6);
    }

    #[test]
    fn madlib_lr_pays_quadratic_stderr() {
        let narrow = InDbSystem::MadlibNoShuffle
            .compute_model(&ModelKind::LogisticRegression, 28)
            .per_tuple_overhead;
        let wide = InDbSystem::MadlibNoShuffle
            .compute_model(&ModelKind::LogisticRegression, 2000)
            .per_tuple_overhead;
        assert!(wide > 100.0 * narrow, "stderr cost must explode with dim");
        let svm = InDbSystem::MadlibNoShuffle
            .compute_model(&ModelKind::Svm, 2000)
            .per_tuple_overhead;
        assert!(svm < wide / 100.0, "MADlib SVM has no stderr problem");
    }

    #[test]
    fn feasibility_matches_paper() {
        assert!(!InDbSystem::MadlibShuffleOnce.feasible(
            &ModelKind::LogisticRegression,
            2000,
            false
        ));
        assert!(InDbSystem::MadlibShuffleOnce.feasible(&ModelKind::Svm, 2000, false));
        assert!(!InDbSystem::MadlibShuffleOnce.feasible(&ModelKind::Svm, 28, true));
        assert!(InDbSystem::BismarckShuffleOnce.feasible(
            &ModelKind::LogisticRegression,
            4096,
            false
        ));
        assert!(InDbSystem::CorgiPile.feasible(&ModelKind::LogisticRegression, 4096, true));
    }

    #[test]
    fn corgipile_system_converges_faster_than_baselines_end_to_end() {
        // Figure 11 in miniature: time to finish `epochs` epochs.
        let table = DatasetSpec::higgs_like(6000)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(8192)
            .build_table(11)
            .unwrap();
        let run = |sys: InDbSystem| {
            let cfg = system_trainer_config(sys, ModelKind::Svm, 28, 3, CorgiPileConfig::default());
            let mut dev = SimDevice::hdd_scaled(1000.0, 0);
            Trainer::new(cfg)
                .train(&table, &mut dev, 5)
                .unwrap()
                .total_sim_seconds()
        };
        let corgi = run(InDbSystem::CorgiPile);
        let madlib = run(InDbSystem::MadlibShuffleOnce);
        let bismarck = run(InDbSystem::BismarckShuffleOnce);
        assert!(
            corgi < bismarck,
            "CorgiPile {corgi} vs Bismarck-SO {bismarck}"
        );
        assert!(bismarck < madlib, "Bismarck {bismarck} vs MADlib {madlib}");
        // The paper reports 1.6–12.8× speedups; at this scale expect > 1.5×.
        assert!(
            bismarck / corgi > 1.5,
            "speedup over Bismarck-SO: {}",
            bismarck / corgi
        );
    }
}
