//! Order-diagnostic experiments: Figures 3, 4 and 5.
//!
//! These reproduce the paper's qualitative plots numerically: the tuple-id
//! trace (position → original id) and per-window label histograms for each
//! strategy over the 1 000-tuple clustered example of §3.5, plus the
//! Figure-5 single- vs multi-process order equivalence.

use crate::report::Report;
use corgipile_core::{parallel_epoch_plan, ParallelConfig};
use corgipile_data::{DatasetSpec, Order};
use corgipile_shuffle::{build_strategy, diagnostics, EpochPlan, StrategyKind, StrategyParams};
use corgipile_storage::SimDevice;

/// The paper's running example: 1 000 tuples, first 500 negative, blocks of
/// 20 tuples (50 blocks), 10 % buffer.
fn toy() -> (corgipile_storage::Table, StrategyParams) {
    // 2 features ≈ 37-byte tuples; ~220/page ⇒ use tiny pages? We instead
    // build ~20-tuple blocks by padding the tuple width.
    let spec = DatasetSpec::new(
        "toy1000",
        corgipile_data::DataKind::DenseBinary {
            dim: 90,
            separation: 1.0,
            noise_rank: 0,
        },
        1_000,
    )
    .with_order(Order::ClusteredByLabel)
    .with_block_bytes(8 << 10);
    let table = spec.build_table(9).unwrap();
    (
        table,
        StrategyParams::default()
            .with_buffer_fraction(0.10)
            .with_seed(7),
    )
}

fn describe(rep: &mut Report, strategy: &str, plan: &EpochPlan) {
    let ids = plan.id_sequence();
    let labels = plan.label_sequence();
    let disp = diagnostics::order_displacement(&ids);
    let uni = diagnostics::label_uniformity_score(&labels, 20);
    // Sample the tuple-id trace at every 5 % of the stream.
    let step = (ids.len() / 20).max(1);
    let trace: Vec<String> = ids.iter().step_by(step).map(|id| id.to_string()).collect();
    rep.row_strings(vec![
        strategy.to_string(),
        format!("{disp:.3}"),
        format!("{uni:.4}"),
        trace.join(","),
    ]);
}

/// Figure 3: tuple-id/label distributions for No Shuffle, Sliding-Window,
/// MRS, and a full shuffle.
pub fn fig3() {
    let (table, params) = toy();
    let mut rep = Report::new(
        "fig3",
        "order diagnostics of existing strategies (1000-tuple clustered toy)",
        &[
            "strategy",
            "displacement",
            "label_nonuniformity",
            "idtrace(every5%)",
        ],
    );
    for kind in [
        StrategyKind::NoShuffle,
        StrategyKind::SlidingWindow,
        StrategyKind::Mrs,
        StrategyKind::EpochShuffle, // the "Full Shuffle (ideal)" panel
    ] {
        let mut s = build_strategy(kind, params.clone());
        let mut dev = SimDevice::in_memory();
        let plan = s.next_epoch(&table, &mut dev);
        describe(&mut rep, kind.display(), &plan);
    }
    rep.note("displacement: 0 = unshuffled, ~0.333 = uniform random (paper Fig. 3a–d).");
    rep.note("label_nonuniformity: mean squared deviation of per-20-tuple positive fraction (paper Fig. 3e–h).");
    rep.finish();
}

/// Figure 4: the same diagnostics for CorgiPile.
pub fn fig4() {
    let (table, params) = toy();
    let mut rep = Report::new(
        "fig4",
        "order diagnostics of CorgiPile (1000-tuple clustered toy)",
        &[
            "strategy",
            "displacement",
            "label_nonuniformity",
            "idtrace(every5%)",
        ],
    );
    for frac in [0.05, 0.10, 0.20] {
        let mut s = build_strategy(
            StrategyKind::CorgiPile,
            params.clone().with_buffer_fraction(frac),
        );
        let mut dev = SimDevice::in_memory();
        let plan = s.next_epoch(&table, &mut dev);
        describe(
            &mut rep,
            &format!("CorgiPile(buffer {:.0}%)", frac * 100.0),
            &plan,
        );
    }
    rep.note("CorgiPile's label windows approach the full-shuffle uniformity (paper Fig. 4b).");
    rep.finish();
}

/// Figure 5: multi-process CorgiPile produces a data order equivalent to
/// single-process CorgiPile with a PN×-sized buffer.
pub fn fig5() {
    let spec = DatasetSpec::higgs_like(4_000)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8 << 10);
    let ds = spec.build(11);
    let table = ds.to_table(11).unwrap();
    let mut rep = Report::new(
        "fig5",
        "multi-process vs single-process CorgiPile order",
        &[
            "configuration",
            "displacement",
            "label_nonuniformity",
            "batches_mixed",
        ],
    );

    // Multi-process: 2 workers, global buffer 20 %.
    let cfg = ParallelConfig {
        workers: 2,
        total_buffer_fraction: 0.2,
        ..Default::default()
    };
    let plan = parallel_epoch_plan(&table, &cfg, 100, 3, 0).unwrap();
    let merged: Vec<corgipile_storage::Tuple> = plan.merged_batches.concat();
    let ids: Vec<u64> = merged.iter().map(|t| t.id).collect();
    let labels: Vec<f32> = merged.iter().map(|t| t.label).collect();
    let mixed = plan
        .merged_batches
        .iter()
        .filter(|b| {
            let pos = b.iter().filter(|t| t.label > 0.0).count();
            let f = pos as f64 / b.len() as f64;
            (0.1..=0.9).contains(&f)
        })
        .count();
    rep.row_strings(vec![
        "multi-process (2 workers, buffer 10% each)".into(),
        format!("{:.3}", diagnostics::order_displacement(&ids)),
        format!("{:.4}", diagnostics::label_uniformity_score(&labels, 100)),
        format!("{mixed}/{}", plan.merged_batches.len()),
    ]);

    // Single-process with the 2×-sized buffer.
    let mut s = build_strategy(
        StrategyKind::CorgiPile,
        StrategyParams::default()
            .with_buffer_fraction(0.2)
            .with_seed(3),
    );
    let mut dev = SimDevice::in_memory();
    let sp = s.next_epoch(&table, &mut dev);
    let ids = sp.id_sequence();
    let labels = sp.label_sequence();
    let batches: Vec<&[corgipile_storage::Tuple]> = sp
        .segments
        .iter()
        .flat_map(|seg| seg.tuples.chunks(100))
        .collect();
    let mixed = batches
        .iter()
        .filter(|b| {
            let pos = b.iter().filter(|t| t.label > 0.0).count();
            let f = pos as f64 / b.len() as f64;
            (0.1..=0.9).contains(&f)
        })
        .count();
    rep.row_strings(vec![
        "single-process (buffer 20%)".into(),
        format!("{:.3}", diagnostics::order_displacement(&ids)),
        format!("{:.4}", diagnostics::label_uniformity_score(&labels, 100)),
        format!("{mixed}/{}", batches.len()),
    ]);
    rep.note("The two configurations yield equivalent randomness: similar displacement, label uniformity, and per-batch mixing (paper Fig. 5b/5c).");
    rep.finish();
}
