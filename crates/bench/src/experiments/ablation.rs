//! Extension experiments beyond the paper's figures:
//!
//! * [`ablation`] — decompose CorgiPile into its two levels (block-level
//!   only, tuple-level only, both) and quantify each level's contribution
//!   to accuracy and I/O (the design-choice ablation DESIGN.md calls out).
//! * [`theory`] — Theorem 1's bound against measured suboptimality:
//!   evaluate the bound's buffer-size scaling and the empirical
//!   convergence of SampleN-mode CorgiPile side by side.

use super::{run_strategy, tail_metric};
use crate::common::{glm_optimizer, ExpData};
use crate::report::{fmt_pct, fmt_secs, Report};
use corgipile_core::{
    block_variance_factor, CorgiPileConfig, Theorem1Bound, Trainer, TrainerConfig,
};
use corgipile_data::{DatasetSpec, Order};
use corgipile_ml::{build_model, ModelKind, OptimizerKind};
use corgipile_shuffle::{BlockSampleMode, StrategyKind};
use corgipile_storage::SimDevice;

/// Ablation: No Shuffle → +tuple level → +block level → both (CorgiPile).
pub fn ablation() {
    let data = ExpData::build(
        DatasetSpec::higgs_like(16_000)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(8 << 10),
        41,
        41,
    );
    let mut rep = Report::new(
        "ablation",
        "which shuffle level buys what (clustered higgs, SVM, HDD)",
        &[
            "variant",
            "block_shuffle",
            "tuple_shuffle",
            "final_acc",
            "per_epoch",
            "random_reads",
        ],
    );
    for (variant, strategy, blocks, tuples) in [
        ("No Shuffle", StrategyKind::NoShuffle, "-", "-"),
        ("Tuple-Only", StrategyKind::TupleOnly, "-", "yes"),
        ("Block-Only", StrategyKind::BlockOnly, "yes", "-"),
        ("CorgiPile", StrategyKind::CorgiPile, "yes", "yes"),
    ] {
        let mut dev = data.hdd();
        let r = run_strategy(&data, ModelKind::Svm, strategy, 8, &mut dev, |c| {
            c.with_optimizer(glm_optimizer(&data.spec.name))
        });
        let per_epoch = r.epochs[1..].iter().map(|e| e.epoch_seconds).sum::<f64>()
            / (r.epochs.len() - 1) as f64;
        rep.row_strings(vec![
            variant.into(),
            blocks.into(),
            tuples.into(),
            fmt_pct(tail_metric(&r, 3)),
            fmt_secs(per_epoch),
            dev.stats().random_reads.to_string(),
        ]);
    }
    rep.note("Tuple-only mixes only within contiguous 10% windows and stays at No Shuffle's accuracy; block-only recovers most of it; the composition scores highest, by about a point on this one seed. Shuffle Once is not in this table.");
    rep.finish();
}

/// Theorem 1 vs measurement: the bound's buffer-size scaling against the
/// measured final training loss of SampleN-mode CorgiPile at a fixed
/// tuple budget.
pub fn theory() {
    let ds = DatasetSpec::higgs_like(12_000)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8 << 10)
        .build(42);
    let table = ds.to_table(42).unwrap();
    // Gradient statistics at a representative (lightly trained) state.
    let mut probe = build_model(&ModelKind::LogisticRegression, 28, 1);
    for (i, p) in probe.params_mut().iter_mut().enumerate() {
        *p = 0.15 * ((i as f32 * 0.53).sin());
    }
    let stats = block_variance_factor(&table, probe.as_ref());

    let mut rep = Report::new(
        "theory",
        "Theorem 1 bound vs measured convergence (SampleN CorgiPile)",
        &[
            "buffer",
            "n_blocks",
            "alpha",
            "leading_coeff",
            "bound@100m",
            "measured_train_loss",
            "measured_acc",
        ],
    );
    rep.note(format!(
        "measured h_D = {:.1}, sigma^2 = {:.2}, N = {}, b = {:.0} on the clustered table",
        stats.h_d, stats.sigma_sq, stats.big_n, stats.b
    ));
    let budget_epochs_at_10pct = 10usize;
    for frac in [0.02, 0.05, 0.10, 0.25, 0.5] {
        let n = ((stats.big_n as f64 * frac).round() as usize).clamp(1, stats.big_n);
        let bound = Theorem1Bound::new(&stats, n);
        // Fixed tuple budget T across rows: epochs scale inversely with n.
        let epochs = ((budget_epochs_at_10pct as f64 * 0.10 / frac).round() as usize).max(1);
        // Theorem 1 is an asymptotic statement: evaluate at T = 100*m,
        // where the (1-alpha)*h_D*sigma^2/T leading term dominates the
        // m^3/T^3 tail (at T ~ m the tail swamps everything).
        let t_asym = 100.0 * stats.m as f64;
        let cfg = TrainerConfig::new(ModelKind::LogisticRegression, epochs)
            .with_strategy(StrategyKind::CorgiPile)
            .with_optimizer(OptimizerKind::Sgd {
                lr0: 0.02,
                decay: 1.0,
            })
            .with_corgipile(
                CorgiPileConfig::default()
                    .with_buffer_fraction(frac)
                    .with_sample_mode(BlockSampleMode::SampleN),
            );
        let mut dev = SimDevice::in_memory();
        let r = Trainer::new(cfg)
            .train_with_test(&table, &ds.test, &mut dev, 43)
            .expect("non-empty");
        let tail_loss: f64 = r
            .epochs
            .iter()
            .rev()
            .take(3)
            .map(|e| e.train_loss)
            .sum::<f64>()
            / 3.0;
        rep.row_strings(vec![
            format!("{:.0}%", frac * 100.0),
            n.to_string(),
            format!("{:.3}", bound.factors.alpha),
            format!("{:.2}", bound.leading_coefficient()),
            format!("{:.3e}", bound.at(t_asym)),
            format!("{tail_loss:.4}"),
            fmt_pct(tail_metric(&r, 3)),
        ]);
    }
    rep.note("The leading coefficient (1-alpha)*h_D*sigma^2 and the asymptotic bound decrease strictly with the buffer fraction; measured accuracy rises up to a 25% buffer, but the measured training loss rises with it too, so the measurement does not follow the bound's trend.");
    rep.finish();
}
