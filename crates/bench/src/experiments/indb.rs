//! In-DB experiments: Figures 11, 13, 14, 15, 16, 18.

use super::{run_strategy, tail_metric};
use crate::common::{
    glm_datasets, glm_datasets_small, glm_optimizer, mini8m_dataset, msd_dataset, ExpData,
};
use crate::report::{fmt_pct, fmt_secs, Report};
use corgipile_core::{CorgiPileConfig, Trainer};
use corgipile_data::{DatasetSpec, Order};
use corgipile_db::{system_trainer_config, InDbSystem};
use corgipile_ml::{ModelKind, OptimizerKind};
use corgipile_shuffle::StrategyKind;
use corgipile_storage::{ComputeCostModel, SimDevice};

fn is_sparse(spec: &DatasetSpec) -> bool {
    matches!(spec.kind, corgipile_data::DataKind::SparseBinary { .. })
}

/// Figure 11: end-to-end in-DB execution time — five clustered datasets ×
/// {HDD, SSD} × systems, LR and SVM.
pub fn fig11() {
    let mut rep = Report::new(
        "fig11",
        "end-to-end in-DB training time, clustered datasets",
        &[
            "dataset",
            "device",
            "system",
            "model",
            "setup",
            "per_epoch",
            "total",
            "final_acc",
            "speedup_vs",
        ],
    );
    for spec in glm_datasets(Order::ClusteredByLabel) {
        let data = ExpData::build(spec, 11, 11);
        let dim = data.spec.dim();
        let sparse = is_sparse(&data.spec);
        for (dev_name, mk_dev) in [("hdd", 0usize), ("ssd", 1usize)] {
            for model in [ModelKind::LogisticRegression, ModelKind::Svm] {
                let mut corgi_total = None;
                for system in InDbSystem::all() {
                    if !system.feasible(&model, dim, sparse) {
                        rep.row_strings(vec![
                            data.spec.name.clone(),
                            dev_name.into(),
                            system.display().into(),
                            model.to_string(),
                            "-".into(),
                            "-".into(),
                            "DNF".into(),
                            "-".into(),
                            "unsupported/4h+".into(),
                        ]);
                        continue;
                    }
                    let mut cfg = system_trainer_config(
                        system,
                        model.clone(),
                        dim,
                        4,
                        CorgiPileConfig::default(),
                    );
                    cfg.optimizer = glm_optimizer(&data.spec.name);
                    let (hdd, ssd) = data.devices();
                    let mut dev: SimDevice = if mk_dev == 0 { hdd } else { ssd };
                    let r = Trainer::new(cfg)
                        .train_with_test(&data.table, &data.ds.test, &mut dev, 0xF16)
                        .expect("non-empty");
                    let total = r.total_sim_seconds();
                    if system == InDbSystem::CorgiPile {
                        corgi_total = Some(total);
                    }
                    let per_epoch = r.epochs.iter().map(|e| e.epoch_seconds).sum::<f64>()
                        / r.epochs.len() as f64;
                    let setup: f64 = r.epochs.iter().map(|e| e.setup_seconds).sum();
                    let speedup = corgi_total
                        .map(|c| format!("{:.1}x", total / c))
                        .unwrap_or_else(|| "-".into());
                    rep.row_strings(vec![
                        data.spec.name.clone(),
                        dev_name.into(),
                        system.display().into(),
                        model.to_string(),
                        fmt_secs(setup),
                        fmt_secs(per_epoch),
                        fmt_secs(total),
                        fmt_pct(tail_metric(&r, 2)),
                        speedup,
                    ]);
                }
            }
        }
    }
    rep.note("speedup_vs = total time relative to CorgiPile on the same dataset/device/model (paper reports 1.6x-12.8x).");
    rep.note("DNF rows mirror the paper: MADlib LR stalls on wide dense data; MADlib lacks sparse training.");
    rep.finish();
}

/// Figure 13: average per-epoch time — No Shuffle (Bismarck) vs CorgiPile
/// vs single-buffer CorgiPile, on HDD and SSD.
pub fn fig13() {
    let mut rep = Report::new(
        "fig13",
        "average per-epoch time: double buffering at work",
        &[
            "dataset",
            "device",
            "variant",
            "per_epoch",
            "overhead_vs_noshuffle",
        ],
    );
    let tel = corgipile_telemetry::Telemetry::enabled();
    for spec in glm_datasets(Order::ClusteredByLabel) {
        let data = ExpData::build(spec, 13, 13);
        for dev_idx in [0usize, 1] {
            let dev_name = if dev_idx == 0 { "hdd" } else { "ssd" };
            let mut base = None;
            for (variant, strategy, double) in [
                ("No Shuffle (Bismarck)", StrategyKind::NoShuffle, true),
                ("CorgiPile", StrategyKind::CorgiPile, true),
                ("CorgiPile (single buffer)", StrategyKind::CorgiPile, false),
            ] {
                let (hdd, ssd) = data.devices();
                let mut dev = if dev_idx == 0 { hdd } else { ssd };
                dev.set_telemetry(tel.clone());
                let r = run_strategy(&data, ModelKind::Svm, strategy, 3, &mut dev, |c| {
                    c.with_optimizer(glm_optimizer(&data.spec.name))
                        .with_corgipile(CorgiPileConfig::default().with_double_buffer(double))
                });
                // Steady-state epoch: skip epoch 0 (cold cache).
                let per_epoch = r.epochs[1..].iter().map(|e| e.epoch_seconds).sum::<f64>()
                    / (r.epochs.len() - 1) as f64;
                if base.is_none() {
                    base = Some(per_epoch);
                }
                let overhead = per_epoch / base.unwrap() - 1.0;
                rep.row_strings(vec![
                    data.spec.name.clone(),
                    dev_name.into(),
                    variant.into(),
                    fmt_secs(per_epoch),
                    format!("{:+.1}%", overhead * 100.0),
                ]);
            }
        }
    }
    rep.note("Paper: double-buffered CorgiPile is at most ~11.7% slower per epoch than No Shuffle, and up to 23.6% faster than its single-buffer variant.");
    rep.note("results/fig13.json carries the full telemetry io_breakdown (device counters, fill spans, per-epoch events).");
    rep.attach_telemetry(&tel);
    rep.finish();
}

/// Figure 14: (a) buffer-size sweep; (b) block-size sweep.
pub fn fig14() {
    let mut rep = Report::new(
        "fig14a",
        "CorgiPile convergence vs buffer size (criteo-like, clustered)",
        &["buffer", "epoch", "test_acc"],
    );
    let spec = DatasetSpec::criteo_like(16_000)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(16 << 10);
    let data = ExpData::build(spec, 14, 14);
    // Shuffle Once reference.
    {
        let mut dev = data.hdd();
        let r = run_strategy(
            &data,
            ModelKind::LogisticRegression,
            StrategyKind::ShuffleOnce,
            6,
            &mut dev,
            |c| c.with_optimizer(glm_optimizer(&data.spec.name)),
        );
        for e in &r.epochs {
            rep.row(&[
                &"shuffle-once",
                &e.epoch,
                &fmt_pct(e.test_metric.unwrap_or(0.0)),
            ]);
        }
    }
    for frac in [0.01, 0.02, 0.05, 0.10] {
        let mut dev = data.hdd();
        let r = run_strategy(
            &data,
            ModelKind::LogisticRegression,
            StrategyKind::CorgiPile,
            6,
            &mut dev,
            |c| {
                c.with_optimizer(glm_optimizer(&data.spec.name))
                    .with_corgipile(CorgiPileConfig::default().with_buffer_fraction(frac))
            },
        );
        for e in &r.epochs {
            rep.row(&[
                &format!("{:.0}%", frac * 100.0),
                &e.epoch,
                &fmt_pct(e.test_metric.unwrap_or(0.0)),
            ]);
        }
    }
    rep.note("A 2% buffer already matches Shuffle Once; 1% converges slightly slower to the same accuracy (paper Fig. 14a).");
    rep.finish();

    // (b) Block-size sweep: per-epoch time for scaled 2/10/50 MB blocks.
    let mut rep = Report::new(
        "fig14b",
        "per-epoch time vs block size (criteo-like, HDD)",
        &["block_size(paper)", "blocks", "per_epoch", "io_fraction"],
    );
    for (label, bytes) in [
        ("2MB", 2 << 10 << 4),
        ("10MB", 10 << 10 << 4),
        ("50MB", 50 << 10 << 4),
    ] {
        // scale 64: 2MB→32KB, 10MB→160KB, 50MB→800KB. The device is FIXED
        // at scale 64 while the block size varies — that is the whole point
        // of the sweep (a per-block-size device would cancel the effect).
        let spec = DatasetSpec::criteo_like(24_000)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(bytes);
        let data = ExpData::build(spec, 15, 15);
        let (mut dev, _) = crate::common::devices_for(&data.table, 64.0, false);
        let r = run_strategy(
            &data,
            ModelKind::LogisticRegression,
            StrategyKind::CorgiPile,
            2,
            &mut dev,
            |c| c.with_optimizer(glm_optimizer(&data.spec.name)),
        );
        let e = &r.epochs[0];
        rep.row_strings(vec![
            label.into(),
            data.table.num_blocks().to_string(),
            fmt_secs(e.epoch_seconds),
            format!(
                "{:.0}%",
                100.0 * e.io_seconds / (e.io_seconds + e.compute_seconds)
            ),
        ]);
    }
    rep.note("Per-epoch time drops from 2MB to 10MB blocks and flattens by 50MB (paper Fig. 14b).");
    rep.finish();
}

/// Figure 15: per-epoch time of in-DB CorgiPile vs a PyTorch-style
/// per-tuple trainer (heavy per-tuple invocation overhead).
pub fn fig15() {
    let mut rep = Report::new(
        "fig15",
        "per-epoch time: in-DB CorgiPile vs PyTorch-style execution (SSD)",
        &[
            "dataset",
            "in_db_corgipile",
            "pytorch_no_shuffle",
            "pytorch_corgipile",
            "db_speedup",
        ],
    );
    for spec in glm_datasets_small(Order::ClusteredByLabel) {
        let data = ExpData::build(spec, 16, 16);
        let run = |strategy: StrategyKind, compute: ComputeCostModel, data: &ExpData| -> f64 {
            let mut dev = data.ssd();
            let r = run_strategy(
                data,
                ModelKind::LogisticRegression,
                strategy,
                2,
                &mut dev,
                |c| {
                    c.with_optimizer(glm_optimizer(&data.spec.name))
                        .with_compute(compute)
                },
            );
            r.epochs.iter().map(|e| e.epoch_seconds).sum::<f64>() / r.epochs.len() as f64
        };
        let db = run(
            StrategyKind::CorgiPile,
            ComputeCostModel::in_db_core(),
            &data,
        );
        let py_ns = run(
            StrategyKind::NoShuffle,
            ComputeCostModel::pytorch_per_tuple(),
            &data,
        );
        let py_cp = run(
            StrategyKind::CorgiPile,
            ComputeCostModel::pytorch_per_tuple(),
            &data,
        );
        rep.row_strings(vec![
            data.spec.name.clone(),
            fmt_secs(db),
            fmt_secs(py_ns),
            fmt_secs(py_cp),
            format!("{:.1}x", py_ns / db),
        ]);
    }
    rep.note("The per-tuple Python-C++ invocation overhead dominates PyTorch's per-tuple SGD (paper: in-DB CorgiPile 2-16x faster); PyTorch+CorgiPile costs only a small extra over PyTorch No-Shuffle.");
    rep.finish();
}

/// Figure 16: mini-batch (128) LR/SVM end-to-end time on SSD.
pub fn fig16() {
    let mut rep = Report::new(
        "fig16",
        "mini-batch SGD (128) end-to-end time on SSD, clustered data",
        &["dataset", "model", "strategy", "total", "final_acc"],
    );
    for spec in glm_datasets_small(Order::ClusteredByLabel) {
        let data = ExpData::build(spec, 17, 17);
        // Batch-128 needs a fixed optimizer-step budget, so small (wide)
        // datasets run more epochs (the paper's datasets are all large
        // enough that 20 epochs ≫ convergence).
        let epochs = (300 * 128 / data.spec.train).clamp(6, 60);
        for model in [ModelKind::LogisticRegression, ModelKind::Svm] {
            for strategy in [
                StrategyKind::NoShuffle,
                StrategyKind::ShuffleOnce,
                StrategyKind::BlockOnly,
                StrategyKind::CorgiPile,
            ] {
                let mut dev = data.ssd();
                let r = run_strategy(&data, model.clone(), strategy, epochs, &mut dev, |c| {
                    c.with_batch_size(128)
                        .with_optimizer(crate::common::glm_minibatch_optimizer(&data.spec.name))
                });
                rep.row(&[
                    &data.spec.name,
                    &model,
                    &strategy,
                    &fmt_secs(r.total_sim_seconds()),
                    &fmt_pct(tail_metric(&r, 2)),
                ]);
            }
        }
    }
    rep.note(
        "CorgiPile reaches Shuffle Once's accuracy 1.7-3.3x faster end-to-end (paper Fig. 16).",
    );
    rep.finish();
}

/// Figure 18: linear regression (continuous labels) and softmax regression
/// (10 classes) end-to-end on SSD.
pub fn fig18() {
    let mut rep = Report::new(
        "fig18",
        "linear regression + softmax regression end-to-end (SSD, clustered)",
        &[
            "dataset",
            "model",
            "batch",
            "strategy",
            "total",
            "final_metric",
        ],
    );
    let cases: Vec<(DatasetSpec, ModelKind, &str)> = vec![
        (
            msd_dataset(Order::OrderedByFeature(0)),
            ModelKind::LinearRegression,
            "R2",
        ),
        (
            mini8m_dataset(Order::ClusteredByLabel),
            ModelKind::Softmax { classes: 10 },
            "acc",
        ),
    ];
    for (spec, model, metric_name) in cases {
        let data = ExpData::build(spec, 18, 18);
        for batch in [1usize, 128] {
            for strategy in [
                StrategyKind::NoShuffle,
                StrategyKind::ShuffleOnce,
                StrategyKind::CorgiPile,
            ] {
                let mut dev = data.ssd();
                let r = run_strategy(&data, model.clone(), strategy, 6, &mut dev, |c| {
                    c.with_batch_size(batch).with_optimizer(OptimizerKind::Sgd {
                        lr0: 0.01,
                        decay: 0.9,
                    })
                });
                let metric = tail_metric(&r, 2);
                rep.row_strings(vec![
                    data.spec.name.clone(),
                    model.to_string(),
                    batch.to_string(),
                    strategy.to_string(),
                    fmt_secs(r.total_sim_seconds()),
                    format!("{metric_name}={metric:.3}"),
                ]);
            }
        }
    }
    rep.note("CorgiPile matches Shuffle Once's R2/accuracy while converging 1.6-2.1x faster (paper Fig. 18).");
    rep.finish();
}
