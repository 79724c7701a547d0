//! Property-based tests for the executor: coverage and re-scan invariants
//! over randomized table shapes and plan parameters, and the equivalences
//! the scan's filter and fusion keep.

#![cfg(test)]

use crate::database::Database;
use crate::error::DbError;
use crate::exec::{stream, ExecContext, SqlScan};
use crate::plan::PhysicalPlan;
use crate::session::QueryResult;
use crate::sql::{parse, Predicate, Query, StrategyKind};
use corgipile_core::{EpochDriver, EpochHook, EpochOutcome, EpochSource, Fill, StrategySource};
use corgipile_ml::{build_model, ModelKind, OptimizerKind, TrainOptions};
use corgipile_shuffle::{EpochStream, RowBatch, StrategyParams};
use corgipile_storage::{
    ComputeCostModel, DeviceHandle, SimDevice, Table, TableConfig, Telemetry, Tuple,
};
use proptest::prelude::*;
use std::ops::ControlFlow;
use std::sync::Arc;

/// The reference the scan's filter is checked against: an *unfiltered* run
/// whose fills drop non-matching tuples on their way to the kernel —
/// PostgreSQL's plain `Filter` above a materialization, the placement the
/// engine itself no longer has. A fill left empty is not handed on.
struct PostBufferFilter<S> {
    source: S,
    predicate: Predicate,
    kept: RowBatch,
}

impl<S: EpochSource<Error = DbError>> EpochSource for PostBufferFilter<S> {
    type Error = DbError;

    fn replay(&mut self, epochs: usize) -> Result<(), DbError> {
        self.source.replay(epochs)
    }

    fn stream_epoch(
        &mut self,
        epoch: usize,
        fill: &mut Fill,
        _kernel_waits: &dyn Fn() -> bool,
        fill_io: &mut Vec<f64>,
        emit: &mut dyn FnMut(&mut Fill) -> bool,
    ) -> Result<f64, DbError> {
        let (predicate, kept) = (&self.predicate, &mut self.kept);
        let mut filter = |fill: &mut Fill| {
            kept.clear();
            for &r in fill.batch.refs() {
                if predicate.matches(fill.batch.row(r)) {
                    kept.push_from(&fill.batch, r);
                }
            }
            std::mem::swap(&mut fill.batch, kept);
            fill.features = fill.batch.features();
            fill.batch.is_empty() || emit(fill)
        };
        self.source
            .stream_epoch(epoch, fill, &|| false, fill_io, &mut filter)
    }

    fn epoch_done(&mut self, done: EpochOutcome<'_>) -> ControlFlow<()> {
        self.source.epoch_done(done)
    }
}

/// Counts the rows the kernel trained on.
struct Rows(u64);

impl<S> EpochHook<S> for Rows {
    fn epoch_done(&mut self, _: &mut S, done: EpochOutcome<'_>) -> ControlFlow<()> {
        self.0 += done.stats.examples as u64;
        ControlFlow::Continue(())
    }
}

fn table(n: u64, width: usize, block_pages: usize) -> Arc<Table> {
    let cfg = TableConfig::new("prop", 1).with_block_bytes(block_pages * 8192);
    Arc::new(
        Table::from_tuples(
            cfg,
            (0..n).map(|id| {
                Tuple::dense(
                    id,
                    vec![id as f32; width],
                    if id % 2 == 0 { 1.0 } else { -1.0 },
                )
            }),
        )
        .unwrap(),
    )
}

/// The `io=` seconds an `EXPLAIN ANALYZE` plan line reports.
fn io_of(line: &str) -> f64 {
    let at = line.find(" io=").expect("every node reports io") + 4;
    let end = at + line[at..].find('s').expect("io ends in s");
    line[at..end].parse().unwrap()
}

/// Each of `epochs` epochs' ids, in stream order, and its fill slots.
fn drain_ids(plan: &mut PhysicalPlan, epochs: usize) -> (Vec<Vec<u64>>, Vec<Vec<f64>>) {
    let mut dev = DeviceHandle::private(SimDevice::in_memory());
    let mut ids = vec![Vec::new(); epochs];
    let each = |epoch: usize, fill: &Fill| ids[epoch].extend(fill.batch.rows().map(|r| r.id));
    let (slots, _) = stream(plan, &mut ExecContext::new(&mut dev), epochs, each).unwrap();
    (ids, slots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any BlockShuffle plan emits every tuple exactly once per pass, for
    /// any table shape and scan mode, across re-scans.
    #[test]
    fn prop_block_shuffle_covers_table_across_rescans(
        n in 1u64..400,
        width in 1usize..8,
        block_pages in 1usize..4,
        random in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let t = table(n, width, block_pages);
        let kind = if random { StrategyKind::BlockOnly } else { StrategyKind::NoShuffle };
        let mut plan = PhysicalPlan::new(t, kind, StrategyParams::default().with_seed(seed));
        for mut ids in drain_ids(&mut plan, 3).0 {
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..n).collect::<Vec<_>>());
        }
    }

    /// TupleShuffle preserves coverage for any buffer capacity (counted
    /// in source blocks), and its fill accounting tiles the stream.
    #[test]
    fn prop_tuple_shuffle_coverage_and_fills(
        n in 1u64..400,
        capacity_blocks in 1usize..8,
        seed in any::<u64>(),
    ) {
        let t = table(n, 4, 1);
        let blocks = t.num_blocks();
        let fraction = (capacity_blocks as f64 / blocks as f64).min(1.0);
        let params = StrategyParams::default().with_seed(seed).with_buffer_fraction(fraction);
        let mut plan = PhysicalPlan::new(t, StrategyKind::CorgiPile, params);
        let (mut ids, slots) = drain_ids(&mut plan, 1);
        prop_assert_eq!(ids[0].len() as u64, n);
        ids[0].sort_unstable();
        prop_assert_eq!(&ids[0], &(0..n).collect::<Vec<_>>());
        // One fill entry per ceil(blocks / capacity) block windows.
        let expected_fills = blocks.div_ceil(capacity_blocks);
        prop_assert_eq!(slots[0].len(), expected_fills);
    }

    /// Re-scan of a full CorgiPile plan replays full coverage with a fresh
    /// order (random block mode, capacity < n).
    #[test]
    fn prop_full_plan_rescan_fresh_order(
        n in 50u64..300,
        seed in any::<u64>(),
    ) {
        let t = table(n, 4, 1);
        let fraction = ((n as usize / 4).max(2) as f64 / t.num_blocks() as f64).min(1.0);
        let params = StrategyParams::default().with_seed(seed).with_buffer_fraction(fraction);
        let mut plan = PhysicalPlan::new(t, StrategyKind::CorgiPile, params);
        let [first, second] = <[Vec<u64>; 2]>::try_from(drain_ids(&mut plan, 2).0).unwrap();
        prop_assert_eq!(first.len(), second.len());
        let mut a = first.clone();
        let mut b = second.clone();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        // With ≥ 50 tuples the chance of an identical replay is negligible
        // unless the block order degenerated (1 block) — skip that case.
        if n as usize > 2 * 8192 / 40 {
            prop_assert_ne!(first, second);
        }
    }

    /// Evaluating a random WHERE predicate in the scan, below the
    /// tuple-shuffle buffer, is an equivalence: for any seed, the SQL plan
    /// and an unfiltered run whose fills are filtered on their way to the
    /// kernel (`PostBufferFilter`) visit the surviving tuples in the same
    /// order, so the trained models are bit-identical and the SGD node sees
    /// the same row count.
    #[test]
    fn prop_scan_filter_is_bit_identical_to_post_buffer(
        n in 100u64..500,
        seed in 0u64..1_000_000,
        cutoff in 0.05f64..0.95,
        op_idx in 0usize..4,
        disjunct in any::<bool>(),
    ) {
        let ops = ["<", "<=", ">", ">="];
        let thr = (n as f64 * cutoff).round();
        let mut pred = format!("f0 {} {thr}", ops[op_idx]);
        if disjunct {
            pred = format!("{pred} OR label = 1");
        }
        let sql = format!(
            "SELECT * FROM t WHERE {pred} TRAIN BY svm WITH max_epoch_num = 2, seed = {seed}, \
             buffer_fraction = 0.5, strategy = 'corgipile', model_name = m"
        );
        let t = table(n, 4, 1);

        let db = Database::new(SimDevice::in_memory());
        db.register_table("t", (*t).clone());
        let mut s = db.connect();
        let summary = match s.execute(&sql).unwrap() {
            QueryResult::Train(t) => t,
            _ => unreachable!("TRAIN returns a train summary"),
        };
        let scan_params = s.catalog().model("m").unwrap().params.clone();

        // What the statement resolves to, rebuilt by hand with the filter
        // above the buffer instead of in the scan.
        let Query::Train { filter: Some(predicate), .. } = parse(&sql).unwrap() else {
            unreachable!("the statement has a WHERE clause")
        };
        let sparams = StrategyParams::default().with_buffer_fraction(0.5).with_seed(seed);
        let mut plan = PhysicalPlan::new(t.clone(), StrategyKind::CorgiPile, sparams);
        let mut dev = DeviceHandle::private(SimDevice::in_memory());
        let mut ctx = ExecContext::new(&mut dev);
        let mut post = PostBufferFilter {
            source: StrategySource {
                stream: EpochStream::new(&mut plan.strategy, &plan.table, "post"),
                scan: &mut SqlScan::new(&mut ctx, None, None),
                hook: Rows(0),
            },
            predicate,
            kept: RowBatch::default(),
        };
        let mut sgd = EpochDriver::new(
            build_model(&ModelKind::Svm, 4, seed),
            OptimizerKind::Sgd { lr0: 0.1, decay: 0.95 }.build(),
            TrainOptions::default(),
            ComputeCostModel::in_db_core(),
            2,
            true,
        );
        sgd.run(&Telemetry::disabled(), &mut post, None).unwrap();
        prop_assert_eq!(scan_params.as_slice(), sgd.model.params());
        prop_assert_eq!(summary.op_stats[0].rows, post.source.hook.0);
    }

    /// The fused pipeline is an exact oracle match of the interpreted
    /// operator tree: for any seed, selectivity and strategy, `fuse = 1`
    /// and `fuse = 0` train bit-identical models, drop
    /// the same number of rows, report bit-identical training loss and
    /// final metric — while the fused run's simulated compute never
    /// exceeds the interpreted run's (batched overhead accounting).
    #[test]
    fn prop_fused_is_bit_identical_to_interpreted(
        n in 100u64..400,
        seed in 0u64..1_000_000,
        cutoff in 0.05f64..0.95,
        strat_idx in 0usize..5,
        filtered in any::<bool>(),
    ) {
        let strategies = ["corgipile", "block_only", "no", "once", "tuple_only"];
        let strategy = strategies[strat_idx];
        let thr = (n as f64 * cutoff).round();
        let wher = if filtered {
            format!("WHERE f0 < {thr} OR label = 1 ")
        } else {
            String::new()
        };
        let run = |fuse: usize| {
            let db = Database::new(SimDevice::in_memory());
            db.register_table("t", (*table(n, 4, 1)).clone());
            let mut s = db.connect();
            let r = s
                .execute(&format!(
                    "SELECT * FROM t {wher}TRAIN BY svm WITH \
                     max_epoch_num = 2, seed = {seed}, buffer_fraction = 0.5, \
                     strategy = '{strategy}', fuse = {fuse}, \
                     report_metrics = 1, model_name = m"
                ))
                .unwrap();
            let summary = match r {
                QueryResult::Train(t) => t,
                _ => unreachable!("TRAIN returns a train summary"),
            };
            let params = s.catalog().model("m").unwrap().params.clone();
            let filtered: u64 = summary.op_stats.iter().map(|o| o.rows_filtered).sum();
            let losses: Vec<u64> = summary
                .epochs
                .iter()
                .map(|e| e.train_loss.to_bits())
                .collect();
            let compute: f64 = summary
                .epochs
                .iter()
                .map(|e| e.compute_seconds)
                .sum();
            (params, filtered, losses, summary.final_train_metric.to_bits(), compute)
        };
        let (f_params, f_filtered, f_losses, f_metric, f_compute) = run(1);
        let (i_params, i_filtered, i_losses, i_metric, i_compute) = run(0);
        prop_assert_eq!(f_params, i_params);
        prop_assert_eq!(f_filtered, i_filtered);
        prop_assert_eq!(f_losses, i_losses);
        prop_assert_eq!(f_metric, i_metric);
        prop_assert!(
            f_compute <= i_compute,
            "fused compute {} must not exceed interpreted {}",
            f_compute,
            i_compute
        );
    }
}

proptest! {
    // 420 cells in the sweep; each case is two 1 200-row TRAINs.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The simulated clock is conserved, for every DB strategy, executor
    /// toggle, `WHERE` selectivity and buffer size down to two-block fills:
    /// every device second a TRAIN spends lands once in its setup or in one
    /// epoch's loading seconds (reads of windows the filter empties at an
    /// epoch's end too), and EXPLAIN ANALYZE's scan-side node reports the
    /// same loading seconds as the `SGD` root, counting each read once.
    #[test]
    fn prop_train_clock_is_conserved(
        seed in 0u64..1_000_000,
        strat_idx in 0usize..7,
        double_buffer in any::<bool>(),
        fuse in any::<bool>(),
        selectivity in 0usize..5,
        fill_blocks in 2usize..5,
    ) {
        let strategies = [
            "corgipile", "block_only", "no", "once", "tuple_only", "corgi2", "block_reversal",
        ];
        let n = 1200u64;
        let blocks = table(n, 4, 1).num_blocks();
        let fraction = (fill_blocks as f64 / blocks as f64).min(1.0);
        let wher = match [0.0, 0.3, 0.5, 0.8, 1.0][selectivity] {
            1.0 => String::new(),
            f => format!("WHERE f0 < {} ", (n as f64 * f).round()),
        };
        let sql = format!(
            "SELECT * FROM t {wher}TRAIN BY svm WITH max_epoch_num = 2, seed = {seed}, \
             strategy = '{}', buffer_fraction = {fraction}, double_buffer = {}, \
             fuse = {}, model_name = m",
            strategies[strat_idx],
            u8::from(double_buffer),
            u8::from(fuse),
        );
        let connect = || {
            let db = Database::new(SimDevice::hdd_scaled(1000.0, 0));
            db.register_table("t", (*table(n, 4, 1)).clone());
            db.connect()
        };
        let mut s = connect();
        let before = s.device().stats().io_seconds;
        let QueryResult::Train(t) = s.execute(&sql).unwrap() else {
            unreachable!("TRAIN returns a train summary")
        };
        let device = s.device().stats().io_seconds - before;
        let charged = t.setup_seconds + t.epochs.iter().map(|e| e.io_seconds).sum::<f64>();
        prop_assert!(
            (charged - device).abs() <= 1e-12 * device,
            "{sql}: setup + epoch io {charged} against the device's {device}"
        );
        let QueryResult::Plan(lines) = connect().execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap()
        else {
            unreachable!("EXPLAIN ANALYZE returns a plan")
        };
        let root = lines.iter().position(|l| l.starts_with("SGD ")).unwrap();
        let (sgd, scan) = (io_of(&lines[root]), io_of(&lines[root + 1]));
        prop_assert!(
            (sgd - scan).abs() <= 1.5e-6,
            "{sql}: the scan side reports io={scan}s under SGD's io={sgd}s"
        );
    }
}
