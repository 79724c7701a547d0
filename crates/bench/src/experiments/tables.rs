//! Tables 1, 2 and 3.

use super::{run_strategy, tail_metric};
use crate::common::{glm_datasets, glm_optimizer, ExpData};
use crate::report::{fmt_pct, Report};
use corgipile_data::{paper_catalog, DatasetSpec, Order};
use corgipile_ml::{accuracy, ModelKind};
use corgipile_shuffle::{build_strategy, StrategyKind, StrategyParams};
use corgipile_storage::SimDevice;

/// Table 1: the qualitative strategy summary — regenerated from
/// *measurements* instead of assertions: convergence behaviour from a
/// clustered-higgs run, I/O performance from per-epoch time relative to No
/// Shuffle, buffer/disk requirements from the strategy metadata.
pub fn table1() {
    let spec = DatasetSpec::higgs_like(12_000)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8 << 10);
    let data = ExpData::build(spec, 21, 21);
    let mut rep = Report::new(
        "table1",
        "summary of shuffling strategies (measured)",
        &[
            "strategy",
            "final_acc",
            "io_vs_noshuffle",
            "in_mem_buffer",
            "extra_disk",
        ],
    );
    let mut baseline_io = None;
    for kind in [
        StrategyKind::NoShuffle,
        StrategyKind::EpochShuffle,
        StrategyKind::ShuffleOnce,
        StrategyKind::Mrs,
        StrategyKind::SlidingWindow,
        StrategyKind::CorgiPile,
    ] {
        let mut dev = data.hdd();
        let r = run_strategy(&data, ModelKind::Svm, kind, 6, &mut dev, |c| {
            c.with_optimizer(glm_optimizer(&data.spec.name))
        });
        // Steady-state epoch I/O incl. per-epoch setup (Epoch Shuffle pays
        // its shuffle every epoch).
        let io: f64 = r.epochs[1..]
            .iter()
            .map(|e| e.io_seconds + e.setup_seconds)
            .sum::<f64>()
            / (r.epochs.len() - 1) as f64;
        if baseline_io.is_none() {
            baseline_io = Some(io);
        }
        let strat = build_strategy(kind, StrategyParams::default());
        let buffer = strat.buffer_tuples(&data.table);
        rep.row_strings(vec![
            kind.display().into(),
            fmt_pct(tail_metric(&r, 3)),
            format!("{:.1}x", io / baseline_io.unwrap()),
            if buffer > 0 {
                format!("{buffer} tuples")
            } else {
                "no".into()
            },
            format!("{:.0}x data size", strat.disk_space_factor() - 1.0),
        ]);
    }
    rep.note("Matches paper Table 1: only CorgiPile combines Shuffle-Once accuracy with No-Shuffle-class I/O and no disk overhead.");
    rep.finish();
}

/// Table 2: dataset inventory — the paper's datasets and our scaled
/// synthetic counterparts.
pub fn table2() {
    let mut rep = Report::new(
        "table2",
        "datasets (paper vs scaled synthetic substitute)",
        &[
            "name",
            "type",
            "paper_tuples",
            "paper_features",
            "paper_size",
            "ours_train",
            "ours_dim",
        ],
    );
    for e in paper_catalog() {
        rep.row_strings(vec![
            e.spec.name.clone(),
            e.dtype.into(),
            e.paper_tuples.into(),
            e.paper_features.into(),
            e.paper_size.into(),
            e.spec.train.to_string(),
            e.spec.dim().to_string(),
        ]);
    }
    rep.finish();
}

/// Table 3: final train/test accuracy of Shuffle Once vs CorgiPile, LR and
/// SVM, five clustered datasets.
pub fn table3() {
    let mut rep = Report::new(
        "table3",
        "final accuracy: Shuffle Once vs CorgiPile",
        &[
            "dataset", "model", "SO_train", "CP_train", "SO_test", "CP_test", "gap_test",
        ],
    );
    for spec in glm_datasets(Order::ClusteredByLabel) {
        let data = ExpData::build(spec.with_test(2_000), 23, 23);
        for model in [ModelKind::LogisticRegression, ModelKind::Svm] {
            let mut res = std::collections::BTreeMap::new();
            for kind in [StrategyKind::ShuffleOnce, StrategyKind::CorgiPile] {
                let mut dev: SimDevice = data.ssd();
                let r = run_strategy(&data, model.clone(), kind, 10, &mut dev, |c| {
                    c.with_optimizer(glm_optimizer(&data.spec.name))
                });
                let train_acc = accuracy(r.model.as_ref(), &data.ds.train);
                res.insert(kind.display(), (train_acc, tail_metric(&r, 5)));
            }
            let so = res["Shuffle Once"];
            let cp = res["CorgiPile"];
            rep.row_strings(vec![
                data.spec.name.clone(),
                model.to_string(),
                fmt_pct(so.0),
                fmt_pct(cp.0),
                fmt_pct(so.1),
                fmt_pct(cp.1),
                format!("{:+.2}pp", (cp.1 - so.1) * 100.0),
            ]);
        }
    }
    rep.note("Paper Table 3 reports gaps < 1 point; on this one seed most test gaps favour Shuffle Once and several exceed 1 point (epsilon/lr the most), so that bound is not reproduced at this scale.");
    rep.finish();
}
