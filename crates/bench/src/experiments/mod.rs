//! The per-experiment index (DESIGN.md §5).
//!
//! Every paper artifact (figure/table) maps to one function here; the
//! registry drives the `corgi-bench` CLI.

pub mod ablation;
pub mod convergence;
pub mod deep;
pub mod indb;
pub mod io;
pub mod order_diag;
pub mod tables;

use crate::common::ExpData;
use corgipile_core::{TrainReport, Trainer, TrainerConfig};
use corgipile_ml::ModelKind;
use corgipile_shuffle::StrategyKind;
use corgipile_storage::SimDevice;

/// One registered experiment.
pub struct Experiment {
    /// CLI id ("fig11", "table3", …).
    pub id: &'static str,
    /// What paper artifact it regenerates.
    pub what: &'static str,
    /// Runner.
    pub run: fn(),
}

/// All experiments, in paper order (one row per artifact).
#[rustfmt::skip]
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment { id: "fig1", what: "SVM on clustered higgs: convergence + end-to-end time, all strategies", run: convergence::fig1 },
        Experiment { id: "fig2", what: "convergence on clustered vs shuffled data (GLM + deep)", run: convergence::fig2 },
        Experiment { id: "fig3", what: "tuple-id/label distributions of existing strategies", run: order_diag::fig3 },
        Experiment { id: "fig4", what: "tuple-id/label distribution of CorgiPile", run: order_diag::fig4 },
        Experiment { id: "fig5", what: "multi-process vs single-process CorgiPile data order", run: order_diag::fig5 },
        Experiment { id: "fig7", what: "ImageNet-like multi-worker training: time + convergence", run: deep::fig7 },
        Experiment { id: "fig8", what: "deep models on clustered cifar-like, batch 128/256", run: deep::fig8 },
        Experiment { id: "fig9", what: "text-classification stand-in on clustered yelp-like", run: deep::fig9 },
        Experiment { id: "fig10", what: "Adam instead of SGD on clustered cifar-like", run: deep::fig10 },
        Experiment { id: "fig11", what: "end-to-end in-DB time, 5 datasets × HDD/SSD × systems", run: indb::fig11 },
        Experiment { id: "fig12", what: "LR/SVM convergence, all strategies, 5 datasets", run: convergence::fig12 },
        Experiment { id: "fig13", what: "per-epoch overhead: No-Shuffle vs CorgiPile vs single-buffer", run: indb::fig13 },
        Experiment { id: "fig14", what: "buffer-size and block-size sensitivity", run: indb::fig14 },
        Experiment { id: "fig15", what: "in-DB CorgiPile vs PyTorch-style per-epoch time", run: indb::fig15 },
        Experiment { id: "fig16", what: "mini-batch SGD end-to-end time (SSD)", run: indb::fig16 },
        Experiment { id: "fig17", what: "mini-batch SGD convergence, all strategies", run: convergence::fig17 },
        Experiment { id: "fig18", what: "linear regression + softmax regression end-to-end", run: indb::fig18 },
        Experiment { id: "fig19", what: "feature-ordered datasets: converged accuracy", run: convergence::fig19 },
        Experiment { id: "fig20", what: "random block-read throughput vs block size", run: io::fig20 },
        Experiment { id: "table1", what: "qualitative strategy summary (measured)", run: tables::table1 },
        Experiment { id: "table2", what: "dataset inventory", run: tables::table2 },
        Experiment { id: "table3", what: "final train/test accuracy: Shuffle Once vs CorgiPile", run: tables::table3 },
        Experiment { id: "ablation", what: "extension: block-level vs tuple-level shuffle contribution", run: ablation::ablation },
        Experiment { id: "theory", what: "extension: Theorem 1 bound vs measured convergence", run: ablation::theory },
    ]
}

/// Train `model` on `data` with `strategy`, returning the report.
pub fn run_strategy(
    data: &ExpData,
    model: ModelKind,
    strategy: StrategyKind,
    epochs: usize,
    dev: &mut SimDevice,
    customize: impl FnOnce(TrainerConfig) -> TrainerConfig,
) -> TrainReport {
    let cfg = customize(TrainerConfig::new(model, epochs).with_strategy(strategy));
    Trainer::new(cfg)
        .train_with_test(&data.table, &data.ds.test, dev, 0x5EED)
        .expect("non-empty table")
}

/// Mean test metric over the last `k` epochs (damps last-iterate noise).
pub fn tail_metric(report: &TrainReport, k: usize) -> f64 {
    let vals: Vec<f64> = report
        .epochs
        .iter()
        .rev()
        .take(k)
        .filter_map(|e| e.test_metric)
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// The strategy set compared throughout §7 (MRS/Sliding-Window included —
/// implemented in the library layer as the paper did in PyTorch).
pub fn paper_strategies() -> Vec<StrategyKind> {
    vec![
        StrategyKind::NoShuffle,
        StrategyKind::ShuffleOnce,
        StrategyKind::SlidingWindow,
        StrategyKind::Mrs,
        StrategyKind::BlockOnly,
        StrategyKind::CorgiPile,
    ]
}
