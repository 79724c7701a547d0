//! Vectorize benchmark: fused batch-at-a-time pipelines vs the
//! interpreted operator tree.
//!
//! The same `TRAIN BY` query runs twice per (strategy, selectivity)
//! cell — once through the pipeline-fusion pass (`fuse = 1`, the
//! default: one `FusedPipelineOp` whose inner loop evaluates
//! predicate + projection + kernel over whole `TupleBatch`es, charging
//! the per-tuple interpretation overhead once per batch) and once
//! through the interpreted Volcano tree (`fuse = 0`, one virtual
//! `next()` per tuple). Both paths visit tuples in the same order by
//! construction, so the trained models must agree bit for bit; the
//! fused path's simulated *compute* seconds drop because the batched
//! cost model (`ComputeCostModel::seconds_batched`) amortizes the
//! per-tuple dispatch overhead that the interpreted tree pays on every
//! call. The device is the balanced profile (SSD with I/O and compute
//! in the same order of magnitude), so the compute win is visible in
//! end-to-end epoch seconds too, not just in the compute column.
//!
//! Reported per cell: simulated compute seconds and tuples trained per
//! simulated compute second for both paths, end-to-end epoch seconds,
//! the compute speedup, and bit identity of the trained models.
//!
//! Writes `results/vectorize.{tsv,json}` plus the root-level
//! `BENCH_vectorize.json` artifact (directory override:
//! `CORGI_BENCH_ROOT`). `CORGI_VECTORIZE_TUPLES` /
//! `CORGI_VECTORIZE_EPOCHS` shrink the run for CI smoke tests.

use crate::report::Report;
use corgipile_data::{DatasetSpec, Order};
use corgipile_db::{Database, DbTrainSummary, QueryResult};
use corgipile_storage::{SimDevice, Table};

/// Fused vs interpreted execution of one (strategy, selectivity) cell.
#[derive(Debug, Clone)]
pub struct VectorizeRun {
    /// Shuffle strategy the query trained with.
    pub strategy: &'static str,
    /// Fraction of the table the WHERE predicate keeps (1.0 = no WHERE).
    pub selectivity: f64,
    /// Tuples the SGD kernel consumed per epoch × epochs.
    pub tuples: u64,
    /// Simulated compute seconds, fused pipeline.
    pub fused_compute_seconds: f64,
    /// Simulated compute seconds, interpreted tree.
    pub interp_compute_seconds: f64,
    /// End-to-end simulated epoch seconds (I/O + compute), fused.
    pub fused_epoch_seconds: f64,
    /// End-to-end simulated epoch seconds (I/O + compute), interpreted.
    pub interp_epoch_seconds: f64,
    /// Whether the two trained models agreed bit for bit.
    pub bit_identical: bool,
}

impl VectorizeRun {
    /// Sim-compute speedup of the fused pipeline over the interpreted tree.
    pub fn compute_speedup(&self) -> f64 {
        self.interp_compute_seconds / self.fused_compute_seconds.max(1e-12)
    }

    /// Tuples trained per simulated compute second, fused pipeline.
    pub fn fused_tuples_per_sec(&self) -> f64 {
        self.tuples as f64 / self.fused_compute_seconds.max(1e-12)
    }

    /// Tuples trained per simulated compute second, interpreted tree.
    pub fn interp_tuples_per_sec(&self) -> f64 {
        self.tuples as f64 / self.interp_compute_seconds.max(1e-12)
    }
}

fn clustered(n: usize) -> Table {
    DatasetSpec::higgs_like(n)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8 << 10)
        .build_table(1)
        .unwrap()
}

/// The balanced device profile: SSD timings scaled so that block I/O and
/// kernel compute land in the same order of magnitude at bench scale.
fn balanced_device() -> SimDevice {
    SimDevice::ssd_scaled(1000.0, 0)
}

fn run_once(
    table: &Table,
    strategy: &str,
    cutoff: Option<u64>,
    epochs: usize,
    fuse: usize,
) -> (DbTrainSummary, Vec<f32>) {
    let db = Database::new(balanced_device());
    db.register_table("higgs", table.clone());
    let mut s = db.connect();
    let wher = cutoff
        .map(|c| format!("WHERE id < {c} "))
        .unwrap_or_default();
    let sql = format!(
        "SELECT * FROM higgs {wher}TRAIN BY svm WITH max_epoch_num = {epochs}, \
         strategy = '{strategy}', seed = 41, fuse = {fuse}, model_name = m"
    );
    let summary = match s.execute(&sql).expect("training runs") {
        QueryResult::Train(t) => t,
        other => panic!("expected a train result, got {other:?}"),
    };
    let params = s.catalog().model("m").expect("model stored").params.clone();
    (summary, params)
}

fn compute_seconds(summary: &DbTrainSummary) -> f64 {
    summary.epochs.iter().map(|e| e.compute_seconds).sum()
}

fn epoch_seconds(summary: &DbTrainSummary) -> f64 {
    summary.epochs.iter().map(|e| e.epoch_seconds).sum()
}

fn trained_tuples(summary: &DbTrainSummary) -> u64 {
    summary.epochs.iter().map(|e| e.tuples as u64).sum()
}

/// Run the fused-vs-interpreted grid: each strategy at full selectivity
/// plus the corgipile strategy under a 0.5-selectivity predicate.
pub fn measure(n_tuples: usize, epochs: usize) -> Vec<VectorizeRun> {
    let table = clustered(n_tuples);
    let cells: [(&'static str, f64); 4] = [
        ("corgipile", 1.0),
        ("block_only", 1.0),
        ("once", 1.0),
        ("corgipile", 0.5),
    ];
    cells
        .iter()
        .map(|&(strategy, sel)| {
            let cutoff = (sel < 1.0).then(|| (n_tuples as f64 * sel).round() as u64);
            let (fused, fused_params) = run_once(&table, strategy, cutoff, epochs, 1);
            let (interp, interp_params) = run_once(&table, strategy, cutoff, epochs, 0);
            VectorizeRun {
                strategy,
                selectivity: sel,
                tuples: trained_tuples(&fused),
                fused_compute_seconds: compute_seconds(&fused),
                interp_compute_seconds: compute_seconds(&interp),
                fused_epoch_seconds: epoch_seconds(&fused),
                interp_epoch_seconds: epoch_seconds(&interp),
                bit_identical: fused_params == interp_params,
            }
        })
        .collect()
}

/// Minimum compute speedup across the grid — the headline gate.
pub fn min_speedup(runs: &[VectorizeRun]) -> f64 {
    runs.iter()
        .map(VectorizeRun::compute_speedup)
        .fold(f64::INFINITY, f64::min)
}

/// Render the root-level `BENCH_vectorize.json` artifact.
pub fn render_bench_json(runs: &[VectorizeRun]) -> String {
    let mut out =
        String::from("{\n  \"id\": \"vectorize\",\n  \"profile\": \"balanced\",\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"selectivity\": {:.2}, \"tuples\": {}, \
             \"fused_compute_seconds\": {:.6}, \"interp_compute_seconds\": {:.6}, \
             \"fused_tuples_per_sec\": {:.1}, \"interp_tuples_per_sec\": {:.1}, \
             \"fused_epoch_seconds\": {:.6}, \"interp_epoch_seconds\": {:.6}, \
             \"compute_speedup\": {:.4}, \"bit_identical\": {}}}{}\n",
            r.strategy,
            r.selectivity,
            r.tuples,
            r.fused_compute_seconds,
            r.interp_compute_seconds,
            r.fused_tuples_per_sec(),
            r.interp_tuples_per_sec(),
            r.fused_epoch_seconds,
            r.interp_epoch_seconds,
            r.compute_speedup(),
            r.bit_identical,
            comma,
        ));
    }
    let all_identical = runs.iter().all(|r| r.bit_identical);
    out.push_str(&format!(
        "  ],\n  \"speedup\": {:.4},\n  \"bit_identical_all\": {all_identical}\n}}",
        min_speedup(runs),
    ));
    out
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The `vectorize` experiment: fused-vs-interpreted grid plus the root
/// JSON artifact.
pub fn vectorize() {
    let n = env_usize("CORGI_VECTORIZE_TUPLES", 20_000);
    let epochs = env_usize("CORGI_VECTORIZE_EPOCHS", 3);
    let runs = measure(n, epochs);

    let mut rep = Report::new(
        "vectorize",
        "fused batch-at-a-time pipeline vs interpreted operator tree (sim compute, bit identity)",
        &[
            "strategy",
            "selectivity",
            "fused_compute_s",
            "interp_compute_s",
            "speedup",
            "fused_tuples_per_s",
            "interp_tuples_per_s",
            "bit_identical",
        ],
    );
    for r in &runs {
        rep.row_strings(vec![
            r.strategy.to_string(),
            format!("{:.2}", r.selectivity),
            format!("{:.6}", r.fused_compute_seconds),
            format!("{:.6}", r.interp_compute_seconds),
            format!("{:.2}x", r.compute_speedup()),
            format!("{:.0}", r.fused_tuples_per_sec()),
            format!("{:.0}", r.interp_tuples_per_sec()),
            r.bit_identical.to_string(),
        ]);
    }
    rep.note(
        "fuse=1 collapses scan→filter→project→shuffle→sgd into one FusedPipelineOp \
         whose batched cost model charges the per-tuple dispatch overhead once per \
         TupleBatch; fuse=0 is the interpreted Volcano tree paying it per next() \
         call. Same visit order by construction, so bit-identical models — only \
         the simulated compute clock moves.",
    );
    rep.finish();

    let root = std::env::var("CORGI_BENCH_ROOT").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&root).join("BENCH_vectorize.json");
    match std::fs::write(&path, render_bench_json(&runs) + "\n") {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_beats_interpreted_and_stays_bit_identical_at_smoke_scale() {
        let runs = measure(2_000, 1);
        assert!(
            runs.iter().all(|r| r.bit_identical),
            "fusion diverged: {runs:?}"
        );
        let speedup = min_speedup(&runs);
        assert!(
            speedup >= 1.5,
            "expected >=1.5x sim-compute speedup on every cell, got {speedup:.2}x: {runs:?}"
        );
    }

    #[test]
    fn bench_json_is_well_formed() {
        let runs = vec![VectorizeRun {
            strategy: "corgipile",
            selectivity: 1.0,
            tuples: 2_000,
            fused_compute_seconds: 0.1,
            interp_compute_seconds: 0.4,
            fused_epoch_seconds: 0.5,
            interp_epoch_seconds: 0.8,
            bit_identical: true,
        }];
        let json = render_bench_json(&runs);
        assert!(json.contains("\"compute_speedup\": 4.0000"));
        assert!(json.contains("\"speedup\": 4.0000"));
        assert!(json.contains("\"bit_identical_all\": true"));
        assert!(json.contains("\"profile\": \"balanced\""));
        assert!(json.ends_with('}'));
    }
}
