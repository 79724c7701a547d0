//! Deep-learning experiments: Figures 7, 8, 9, 10.
//!
//! The paper's VGG19/ResNet18/ResNet50/HAN/TextCNN workloads are replaced
//! by MLPs of two sizes (non-convex objectives; see DESIGN.md §2). The
//! claims under test — convergence parity with Shuffle Once and failure of
//! No-Shuffle/Sliding-Window on clustered data, for mini-batch SGD and
//! Adam, single- and multi-worker — are optimization-order properties that
//! MLPs exercise identically.

use super::{paper_strategies, run_strategy, tail_metric};
use crate::common::{cifar_dataset, imagenet_dataset, yelp_dataset, ExpData};
use crate::report::{fmt_pct, fmt_secs, Report};
use corgipile_core::{ParallelConfig, Trainer, TrainerConfig};
use corgipile_data::Order;
use corgipile_ml::{ModelKind, OptimizerKind};
use corgipile_shuffle::StrategyKind;

fn small_net(classes: usize) -> ModelKind {
    // "ResNet18" stand-in.
    ModelKind::Mlp {
        hidden: vec![32],
        classes,
    }
}

fn big_net(classes: usize) -> ModelKind {
    // "VGG19" stand-in.
    ModelKind::Mlp {
        hidden: vec![64, 32],
        classes,
    }
}

/// Figure 7: ImageNet-scale multi-worker training — end-to-end time and
/// convergence for Shuffle Once, CorgiPile (two block sizes) and No
/// Shuffle, with 8 workers.
pub fn fig7() {
    let data = ExpData::build(imagenet_dataset(Order::ClusteredByLabel), 7, 7);
    let workers = 8;
    let epochs = 12;
    let mut rep = Report::new(
        "fig7",
        "ImageNet-like multi-worker (8) training",
        &["system", "epoch", "test_acc", "cum_time"],
    );

    // --- Shuffle Once & No Shuffle, 8-way data-parallel compute ----------
    // (same 8 workers as CorgiPile's run: compute divides by 8).
    let ddp_compute = corgipile_storage::ComputeCostModel {
        flops_per_second: 5e9 * workers as f64,
        per_tuple_overhead: 8e-8 / workers as f64,
        per_fill: false,
    };
    for (name, strategy) in [
        ("Shuffle Once", StrategyKind::ShuffleOnce),
        ("No Shuffle", StrategyKind::NoShuffle),
    ] {
        let mut dev = data.hdd();
        let r = run_strategy(&data, big_net(20), strategy, epochs, &mut dev, |c| {
            c.with_batch_size(128)
                .with_optimizer(OptimizerKind::default_sgd(0.1))
                .with_compute(ddp_compute)
        });
        for e in &r.epochs {
            rep.row(&[
                &name,
                &e.epoch,
                &fmt_pct(e.test_metric.unwrap_or(0.0)),
                &fmt_secs(e.sim_seconds_end),
            ]);
        }
    }

    // --- CorgiPile, true multi-worker: 8 loaders, one merged stream ------
    // Loading overlaps across workers (a fill slot costs its slowest
    // worker); compute divides by 8 like the baselines' above.
    let cfg = TrainerConfig::new(big_net(20), epochs)
        .with_batch_size(128)
        .with_optimizer(OptimizerKind::default_sgd(0.1))
        .with_compute(ddp_compute);
    let r = Trainer::new(cfg)
        .with_workers(ParallelConfig {
            workers,
            total_buffer_fraction: 0.10,
            device_scale: data.device_scale(),
            cache_bytes: data.table.total_bytes() / 2 / workers,
        })
        .train_with_test(&data.table, &data.ds.test, &mut data.hdd(), 77)
        .expect("non-empty table");
    for e in &r.epochs {
        rep.row(&[
            &format!("CorgiPile ({workers} workers)"),
            &e.epoch,
            &fmt_pct(e.test_metric.unwrap_or(0.0)),
            &fmt_secs(e.sim_seconds_end),
        ]);
    }
    rep.note("CorgiPile converges like Shuffle Once but skips the offline shuffle; No Shuffle collapses (paper Fig. 7).");
    rep.finish();
}

/// Figure 8: two deep nets on the clustered cifar-like set, batch 128/256.
pub fn fig8() {
    deep_convergence("fig8", cifar_dataset(Order::ClusteredByLabel), 10, false);
}

/// Figure 9: the text-classification stand-in on the clustered yelp-like
/// set, batch 128/256.
pub fn fig9() {
    deep_convergence("fig9", yelp_dataset(Order::ClusteredByLabel), 5, false);
}

/// Figure 10: Figure 8 with Adam instead of SGD.
pub fn fig10() {
    deep_convergence("fig10", cifar_dataset(Order::ClusteredByLabel), 10, true);
}

fn deep_convergence(id: &str, spec: corgipile_data::DatasetSpec, classes: usize, adam: bool) {
    let data = ExpData::build(spec, 8, 9);
    let mut rep = Report::new(
        id,
        if adam {
            "deep models with Adam, clustered data"
        } else {
            "deep models with mini-batch SGD, clustered data"
        },
        &["model", "batch", "strategy", "final_acc", "acc@2"],
    );
    for (mname, model) in [
        ("small-net", small_net(classes)),
        ("big-net", big_net(classes)),
    ] {
        for batch in [128usize, 256] {
            for strategy in paper_strategies() {
                let mut dev = data.hdd();
                let r = run_strategy(&data, model.clone(), strategy, 8, &mut dev, |c| {
                    let opt = if adam {
                        OptimizerKind::default_adam(0.01)
                    } else {
                        OptimizerKind::default_sgd(0.1)
                    };
                    c.with_batch_size(batch).with_optimizer(opt)
                });
                let at2 = r.epochs.get(2).and_then(|e| e.test_metric).unwrap_or(0.0);
                rep.row(&[
                    &mname,
                    &batch,
                    &strategy,
                    &fmt_pct(tail_metric(&r, 2)),
                    &fmt_pct(at2),
                ]);
            }
        }
    }
    rep.note("CorgiPile ≈ Shuffle Once; No Shuffle / Sliding-Window / MRS converge to lower accuracy on clustered data.");
    rep.finish();
}
