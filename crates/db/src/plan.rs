//! Query planning: logical plans and physical operator construction.
//!
//! This is the single plan-construction site of the engine. A prepared
//! `TRAIN BY` statement (`train.rs`) or a `PREDICT` becomes a
//! [`LogicalPlan`] of the one shape the paper's PostgreSQL integration has
//! (§6: `BlockShuffle`, `TupleShuffle`, `SGD`, qualifiers evaluated by the
//! scan):
//!
//! ```text
//! Sgd|Predict ← TupleShuffle? ← Scan{predicate, projection}
//! ```
//!
//! validated against the catalog (feature indices in predicates and
//! projections must exist; `id` is not selectable as a training input).
//! The scan owns the `WHERE` predicate and the column list: it evaluates
//! the predicate on each row in place *below* the tuple-shuffle buffer and
//! materializes only survivors over the named columns. That placement
//! matters for convergence-per-byte: the buffer holds a fixed block budget,
//! so filtering before buffering raises the effective buffer fraction of
//! the post-filter dataset that CorgiPile's convergence analysis depends
//! on — and the projection shrinks every buffered tuple besides.
//!
//! Filtering below the buffer trains the same model, bit for bit, as
//! filtering the buffer's output would: the tuple shuffle counts its window
//! in source blocks (not tuples) and orders survivors by a deterministic
//! per-tuple key, so the tuple visit sequence is the same either way. That
//! is checked against the test-side `PostBufferFilter` reference in
//! `proptests.rs` and against the `WHERE` constants in
//! `tests/golden_bits.rs`, which were recorded with the filter above the
//! buffer.
//!
//! Lowering runs a *pipeline-fusion* pass: [`build_physical_with`] wraps
//! the chain in a single [`FusedPipelineOp`] that moves whole
//! [`RowBatch`](crate::RowBatch)es. Fusion never changes semantics:
//! `WITH fuse = 0` runs the same operators bare, and both paths replay the
//! same tuple sequence. Only the *compute accounting* differs (the fused
//! path charges its per-tuple dispatch overhead once per batch).

use crate::catalog::Catalog;
use crate::error::DbError;
use crate::exec::{BlockShuffleOp, FusedPipelineOp, PhysicalOperator};
use crate::sql::{ColumnRef, Predicate, Projection, StrategyKind};
use corgipile_shuffle::StrategyParams;
use corgipile_storage::{DeviceHandle, Table};
use std::sync::Arc;

/// Planner input distilled from a parsed `TRAIN BY` query.
#[derive(Debug, Clone)]
pub struct TrainPlanSpec {
    /// Source table name (for plan rendering).
    pub table: String,
    /// Resolved model kind name (for plan rendering).
    pub model: String,
    /// Number of epochs (`max_epoch_num`).
    pub epochs: usize,
    /// Shuffle strategy.
    pub strategy: StrategyKind,
    /// Projection list.
    pub projection: Projection,
    /// Optional `WHERE` predicate.
    pub filter: Option<Predicate>,
    /// Tuple-shuffle buffer capacity in source blocks.
    pub buffer_blocks: usize,
}

/// Planner input distilled from a parsed `PREDICT … ON …` query (the
/// serving subsystem's batched inference path).
#[derive(Debug, Clone)]
pub struct PredictPlanSpec {
    /// Source table name (for plan rendering).
    pub table: String,
    /// Served model name (for plan rendering).
    pub model: String,
    /// Explicit version pin, `None` for the active version.
    pub version: Option<u32>,
    /// Optional `WHERE` predicate.
    pub filter: Option<Predicate>,
    /// Tuples per prediction batch.
    pub batch_rows: usize,
}

/// A logical operator tree, root first.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// The serving root: one sequential pass of batched inference.
    Predict {
        /// Served model name.
        model: String,
        /// Explicit version pin, `None` for the active version.
        version: Option<u32>,
        /// Tuples per prediction batch.
        batch_rows: usize,
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// The training root: re-scans its input once per epoch.
    Sgd {
        /// Model kind name.
        model: String,
        /// Epoch count.
        epochs: usize,
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Buffered tuple shuffle over block windows.
    TupleShuffle {
        /// Buffer capacity in source blocks.
        buffer_blocks: usize,
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// The block scan; it owns the statement's `WHERE` predicate and
    /// column list.
    Scan {
        /// Table name.
        table: String,
        /// The strategy whose orders the scan runs.
        strategy: StrategyKind,
        /// Number of blocks in the table.
        blocks: usize,
        /// Number of tuples in the table.
        tuples: u64,
        /// `WHERE` predicate, evaluated on pre-projection feature indices
        /// before a tuple is buffered.
        predicate: Option<Predicate>,
        /// Feature columns to keep (the label always rides along), applied
        /// to survivors of the predicate.
        projection: Option<Vec<usize>>,
    },
}

impl LogicalPlan {
    /// Build the logical plan for a training query, validating every
    /// column reference against the table's feature count. Errors here are
    /// planning-time [`DbError`]s — an out-of-range `f<N>` never survives
    /// to execution.
    pub fn build(spec: &TrainPlanSpec, table: &Table) -> Result<LogicalPlan, DbError> {
        let dim = table.dim()?;
        validate_columns(spec, dim)?;
        if !spec.strategy.available_in_db() {
            return Err(DbError::UnknownStrategy(spec.strategy.name().to_string()));
        }
        let mut node = LogicalPlan::Scan {
            table: spec.table.clone(),
            strategy: spec.strategy,
            blocks: table.num_blocks(),
            tuples: table.num_tuples(),
            predicate: spec.filter.clone(),
            projection: spec.projection.feature_indices(),
        };
        if spec.strategy.is_tuple_buffered() {
            node = LogicalPlan::TupleShuffle {
                buffer_blocks: spec.buffer_blocks,
                input: Box::new(node),
            };
        }
        Ok(LogicalPlan::Sgd {
            model: spec.model.clone(),
            epochs: spec.epochs,
            input: Box::new(node),
        })
    }

    /// Build the logical plan for a serving query: `Predict ←
    /// Scan(sequential)`, the predicate on the scan exactly as for training,
    /// so it is evaluated on each row in place before any tuple is
    /// batched.
    pub fn build_predict(spec: &PredictPlanSpec, table: &Table) -> Result<LogicalPlan, DbError> {
        let dim = table.dim()?;
        validate_filter(spec.filter.as_ref(), dim)?;
        if spec.batch_rows == 0 {
            return Err(DbError::BadParam("batch_rows must be >= 1".into()));
        }
        Ok(LogicalPlan::Predict {
            model: spec.model.clone(),
            version: spec.version,
            batch_rows: spec.batch_rows,
            input: Box::new(LogicalPlan::Scan {
                table: spec.table.clone(),
                strategy: StrategyKind::NoShuffle,
                blocks: table.num_blocks(),
                tuples: table.num_tuples(),
                predicate: spec.filter.clone(),
                projection: None,
            }),
        })
    }

    /// The root kernel's `EXPLAIN` line; `None` for non-root nodes.
    fn root_line(&self) -> Option<String> {
        match self {
            LogicalPlan::Sgd { model, epochs, .. } => Some(format!(
                "SGD (model={model}, epochs={epochs}, re-scan per epoch)"
            )),
            LogicalPlan::Predict {
                model,
                version,
                batch_rows,
                ..
            } => {
                let pin = match version {
                    Some(v) => format!("version={v}"),
                    None => "version=active".to_string(),
                };
                Some(format!(
                    "Predict (model={model}, {pin}, batch_rows={batch_rows})"
                ))
            }
            _ => None,
        }
    }

    /// Render the plan as the vectorized executor will run it: the root
    /// kernel, then one `Fused Pipeline (…)` node standing in for the
    /// whole collapsed chain, annotated with the scan order, buffer, and
    /// any predicate/projection. Falls back to [`Self::explain_lines`]
    /// when the shape is not fusable (the current planner always is).
    pub fn explain_lines_fused(&self) -> Vec<String> {
        let Some(chain) = fuse_chain(self) else {
            return self.explain_lines();
        };
        let mut lines = vec![self.root_line().expect("fuse_chain roots are Sgd/Predict")];
        lines.push(format!("  -> Fused Pipeline ({})", chain.label()));
        let pad = "       ";
        let LogicalPlan::Scan {
            table,
            strategy,
            blocks,
            tuples,
            predicate,
            projection,
        } = chain.scan
        else {
            unreachable!("fuse_chain scan is Scan")
        };
        lines.push(format!("{pad}Scan: {}", strategy.scan_wording(*blocks)));
        if let Some(bb) = chain.shuffle_blocks {
            lines.push(format!(
                "{pad}Buffer: {bb} source blocks (double-buffered tuple shuffle)"
            ));
        }
        if let Some(cols) = projection {
            lines.push(format!("{pad}Output: {}", feature_list(cols)));
        }
        if let Some(p) = predicate {
            lines.push(format!("{pad}Filter: ({p})"));
        }
        if let Some(note) = strategy.setup_note() {
            lines.push(format!("{pad}{note}"));
        }
        lines.push(format!("  Scan target: {table} ({tuples} tuples)"));
        lines
    }

    /// Render the plan, PostgreSQL `EXPLAIN`-style (root first). The
    /// scan's predicate/projection appear as `Filter:` / `Output:` sub-lines
    /// on the scan node itself.
    pub fn explain_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        let mut target = None;
        self.render_into(0, &mut lines, &mut target);
        if let Some((table, tuples)) = target {
            lines.push(format!("  Scan target: {table} ({tuples} tuples)"));
        }
        lines
    }

    fn render_into(
        &self,
        depth: usize,
        lines: &mut Vec<String>,
        target: &mut Option<(String, u64)>,
    ) {
        let head = if depth == 0 {
            String::new()
        } else {
            format!("{}-> ", " ".repeat(2 + 6 * (depth - 1)))
        };
        let pad = " ".repeat(2 * depth + if depth > 0 { 5 } else { 2 });
        match self {
            LogicalPlan::Predict { input, .. } | LogicalPlan::Sgd { input, .. } => {
                let root = self.root_line().expect("Sgd/Predict render a root line");
                lines.push(format!("{head}{root}"));
                input.render_into(depth + 1, lines, target);
            }
            LogicalPlan::TupleShuffle {
                buffer_blocks,
                input,
            } => {
                lines.push(format!(
                    "{head}TupleShuffle (double-buffered, buffer={buffer_blocks} blocks)"
                ));
                input.render_into(depth + 1, lines, target);
            }
            LogicalPlan::Scan {
                table,
                strategy,
                blocks,
                tuples,
                predicate,
                projection,
            } => {
                lines.push(format!(
                    "{head}BlockShuffle ({})",
                    strategy.scan_wording(*blocks)
                ));
                if let Some(cols) = projection {
                    lines.push(format!("{pad}Output: {}", feature_list(cols)));
                }
                if let Some(p) = predicate {
                    lines.push(format!("{pad}Filter: ({p})"));
                }
                if let Some(note) = strategy.setup_note() {
                    lines.push(format!("{pad}{note}"));
                }
                *target = Some((table.clone(), *tuples));
            }
        }
    }
}

/// The decomposed chain `Sgd|Predict ← TupleShuffle? ← Scan`, borrowed
/// from a logical plan. Produced by [`fuse_chain`]; consumed by the fusion
/// pass in [`build_physical_with`] and by fused `EXPLAIN` rendering.
struct FuseChain<'a> {
    /// `"sgd"` or `"predict"` — the root kernel, last stage of the label.
    kernel: &'static str,
    /// Tuple-shuffle buffer capacity in source blocks, if the strategy
    /// buffers at all.
    shuffle_blocks: Option<usize>,
    /// The `LogicalPlan::Scan` leaf.
    scan: &'a LogicalPlan,
}

impl FuseChain<'_> {
    /// Stage list in execution order, e.g. `scan→filter→sgd` for a
    /// filtered block-only TRAIN or `scan→filter→project→shuffle→sgd` for
    /// a filtered, projected CorgiPile one.
    fn label(&self) -> String {
        let LogicalPlan::Scan {
            predicate,
            projection,
            ..
        } = self.scan
        else {
            unreachable!("fuse_chain scan is Scan")
        };
        let mut stages = vec!["scan"];
        if predicate.is_some() {
            stages.push("filter");
        }
        if projection.is_some() {
            stages.push("project");
        }
        if self.shuffle_blocks.is_some() {
            stages.push("shuffle");
        }
        stages.push(self.kernel);
        stages.join("→")
    }
}

/// Decompose a plan into the fusable chain, or `None` when `plan` is not
/// rooted at `Sgd`/`Predict` (the planner only ever emits rooted plans; a
/// caller may still hand [`build_physical_with`] a bare subtree).
fn fuse_chain(plan: &LogicalPlan) -> Option<FuseChain<'_>> {
    let (kernel, mut node) = match plan {
        LogicalPlan::Sgd { input, .. } => ("sgd", input.as_ref()),
        LogicalPlan::Predict { input, .. } => ("predict", input.as_ref()),
        _ => return None,
    };
    let mut shuffle_blocks = None;
    if let LogicalPlan::TupleShuffle {
        buffer_blocks,
        input,
    } = node
    {
        shuffle_blocks = Some(*buffer_blocks);
        node = input.as_ref();
    }
    match node {
        scan @ LogicalPlan::Scan { .. } => Some(FuseChain {
            kernel,
            shuffle_blocks,
            scan,
        }),
        _ => None,
    }
}

/// `"f0, f3, label"`-style rendering of a projected feature list.
pub(crate) fn feature_list(columns: &[usize]) -> String {
    let mut s = String::new();
    for c in columns {
        s.push_str(&format!("f{c}, "));
    }
    s.push_str("label");
    s
}

fn check_feature(i: usize, dim: usize) -> Result<(), DbError> {
    if i >= dim {
        Err(DbError::UnknownColumn(format!(
            "f{i} (table has features f0..f{})",
            dim - 1
        )))
    } else {
        Ok(())
    }
}

/// Validate every feature index a predicate references against the
/// table's dimensionality (shared by the train and predict planners).
fn validate_filter(filter: Option<&Predicate>, dim: usize) -> Result<(), DbError> {
    if let Some(p) = filter {
        let mut cols = Vec::new();
        p.for_each_column(&mut |c| cols.push(c));
        for c in cols {
            if let ColumnRef::Feature(i) = c {
                check_feature(i, dim)?;
            }
        }
    }
    Ok(())
}

fn validate_columns(spec: &TrainPlanSpec, dim: usize) -> Result<(), DbError> {
    let check_feature = |i: usize| check_feature(i, dim);
    validate_filter(spec.filter.as_ref(), dim)?;
    if let Projection::Columns(cols) = &spec.projection {
        let mut seen = Vec::new();
        for c in cols {
            match c {
                ColumnRef::Id => {
                    return Err(DbError::UnknownColumn(
                        "id (not selectable as a training input)".into(),
                    ))
                }
                ColumnRef::Label => {}
                ColumnRef::Feature(i) => check_feature(*i)?,
            }
            if seen.contains(c) {
                return Err(DbError::Parse(format!(
                    "duplicate column {c} in projection"
                )));
            }
            seen.push(*c);
        }
        if !cols.iter().any(|c| matches!(c, ColumnRef::Feature(_))) {
            return Err(DbError::Parse(
                "projection must include at least one feature column".into(),
            ));
        }
    }
    Ok(())
}

/// A built physical plan: the operator tree below the SGD root, plus the
/// one-off setup cost charged while building it (`strategy = 'once'`
/// pays its offline shuffle here).
pub struct PhysicalPlan {
    /// Input operator for [`crate::exec::SgdOperator`].
    pub child: Box<dyn PhysicalOperator>,
    /// Simulated seconds spent on one-off setup (offline shuffle).
    pub setup_seconds: f64,
    /// Whether lowering collapsed the chain into a [`FusedPipelineOp`]
    /// (the root operator should then run in batched-accounting mode).
    pub fused: bool,
}

/// Lower a logical plan to physical operators. This is the only place in
/// the engine that constructs scan operators for queries — `TRAIN`, both
/// `PREDICT` forms, and `EXPLAIN ANALYZE` all route here.
///
/// The scan is one [`BlockShuffleOp`] running the strategy's orders (a
/// `TupleShuffle` node is its ranked fills); the strategy's setup runs here,
/// charged to `dev`, its copy under a fresh catalog table id. With `fuse`
/// set (`WITH fuse = 1`, the session default), the pass wraps the scan below
/// `Sgd|Predict` in one [`FusedPipelineOp`]; off, it runs bare — the
/// bit-identity oracle.
pub fn build_physical_with(
    plan: &LogicalPlan,
    table: &Arc<Table>,
    params: &StrategyParams,
    dev: &mut DeviceHandle,
    catalog: &Catalog,
    fuse: bool,
) -> Result<PhysicalPlan, DbError> {
    let mut node = plan;
    while let LogicalPlan::Sgd { input, .. }
    | LogicalPlan::Predict { input, .. }
    | LogicalPlan::TupleShuffle { input, .. } = node
    {
        node = input;
    }
    let LogicalPlan::Scan {
        strategy,
        predicate,
        projection,
        ..
    } = node
    else {
        unreachable!("every plan bottoms out in its scan")
    };
    let mut scan = BlockShuffleOp::new(table.clone(), *strategy, params.clone());
    if let Some(p) = predicate {
        scan = scan.with_predicate(p.clone());
    }
    if let Some(cols) = projection {
        scan = scan.with_projection(cols.clone());
    }
    let setup_seconds = scan.setup(dev, &|| catalog.fresh_table_id())?;
    let (child, fused): (Box<dyn PhysicalOperator>, _) = match fuse_chain(plan).filter(|_| fuse) {
        Some(chain) => (
            Box::new(FusedPipelineOp::new(Box::new(scan), chain.label())),
            true,
        ),
        None => (Box::new(scan), false),
    };
    Ok(PhysicalPlan {
        child,
        setup_seconds,
        fused,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::CmpOp;
    use corgipile_data::{DatasetSpec, Order};

    fn spec(strategy: StrategyKind) -> TrainPlanSpec {
        TrainPlanSpec {
            table: "t".into(),
            model: "svm".into(),
            epochs: 3,
            strategy,
            projection: Projection::All,
            filter: None,
            buffer_blocks: 2,
        }
    }

    fn table() -> Table {
        DatasetSpec::higgs_like(500)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(8192)
            .build_table(1)
            .unwrap()
    }

    fn pred() -> Predicate {
        Predicate::Cmp {
            col: ColumnRef::Feature(0),
            op: CmpOp::Gt,
            value: 0.0,
        }
    }

    #[test]
    fn build_puts_filter_and_projection_on_the_scan_below_the_shuffle() {
        let mut s = spec(StrategyKind::CorgiPile);
        s.filter = Some(pred());
        s.projection = Projection::Columns(vec![ColumnRef::Feature(1), ColumnRef::Feature(3)]);
        let plan = LogicalPlan::build(&s, &table()).unwrap();
        // Shape: Sgd -> TupleShuffle -> Scan{pred, proj}.
        let LogicalPlan::Sgd { input, .. } = plan else {
            panic!("root must be Sgd")
        };
        let LogicalPlan::TupleShuffle { input, .. } = *input else {
            panic!("filter/project must sit below the tuple shuffle")
        };
        let LogicalPlan::Scan {
            predicate,
            projection,
            ..
        } = *input
        else {
            panic!("filter/project must fuse into the scan")
        };
        assert_eq!(predicate, Some(pred()));
        assert_eq!(projection, Some(vec![1, 3]));
    }

    #[test]
    fn explain_shows_predicate_on_the_scan_node() {
        let mut s = spec(StrategyKind::CorgiPile);
        s.filter = Some(pred());
        let lines = LogicalPlan::build(&s, &table()).unwrap().explain_lines();
        assert!(lines[0].starts_with("SGD (model=svm, epochs=3"));
        assert!(lines.iter().any(|l| l.contains("TupleShuffle")));
        let scan = lines
            .iter()
            .position(|l| l.contains("BlockShuffle (random"))
            .expect("scan node");
        assert!(
            lines[scan + 1].trim_start().starts_with("Filter: (f0 > 0)"),
            "predicate must annotate the scan node: {lines:?}"
        );
        assert!(!lines.iter().any(|l| l.contains("-> Filter")));
    }

    #[test]
    fn once_plan_renders_setup_line_and_sequential_copy_scan() {
        let lines = LogicalPlan::build(&spec(StrategyKind::ShuffleOnce), &table())
            .unwrap()
            .explain_lines();
        assert!(lines.iter().any(|l| l.contains("of the shuffled copy")));
        assert!(lines.iter().any(|l| l.contains("offline full shuffle")));
    }

    #[test]
    fn predict_plan_puts_the_filter_on_a_sequential_scan() {
        let s = PredictPlanSpec {
            table: "t".into(),
            model: "m".into(),
            version: Some(2),
            filter: Some(pred()),
            batch_rows: 256,
        };
        let plan = LogicalPlan::build_predict(&s, &table()).unwrap();
        let LogicalPlan::Predict {
            version,
            batch_rows,
            input,
            ..
        } = plan
        else {
            panic!("root must be Predict")
        };
        assert_eq!((version, batch_rows), (Some(2), 256));
        let LogicalPlan::Scan {
            strategy,
            predicate,
            ..
        } = *input
        else {
            panic!("the scan sits directly under Predict")
        };
        assert_eq!(strategy, StrategyKind::NoShuffle);
        assert_eq!(predicate, Some(pred()));
    }

    #[test]
    fn predict_plan_renders_and_validates() {
        let s = PredictPlanSpec {
            table: "t".into(),
            model: "m".into(),
            version: None,
            filter: None,
            batch_rows: 64,
        };
        let lines = LogicalPlan::build_predict(&s, &table())
            .unwrap()
            .explain_lines();
        assert!(
            lines[0].starts_with("Predict (model=m, version=active, batch_rows=64)"),
            "{lines:?}"
        );
        assert!(lines.iter().any(|l| l.contains("BlockShuffle (sequential")));

        let mut bad = s.clone();
        bad.batch_rows = 0;
        assert!(matches!(
            LogicalPlan::build_predict(&bad, &table()),
            Err(DbError::BadParam(_))
        ));
        let mut bad = s;
        bad.filter = Some(Predicate::Cmp {
            col: ColumnRef::Feature(99),
            op: CmpOp::Gt,
            value: 0.0,
        });
        assert!(matches!(
            LogicalPlan::build_predict(&bad, &table()),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn fuse_chain_labels_follow_execution_order() {
        let t = table();
        // CorgiPile TRAIN with filter + projection.
        let mut s = spec(StrategyKind::CorgiPile);
        s.filter = Some(pred());
        s.projection = Projection::Columns(vec![ColumnRef::Feature(1)]);
        let plan = LogicalPlan::build(&s, &t).unwrap();
        assert_eq!(
            fuse_chain(&plan).unwrap().label(),
            "scan→filter→project→shuffle→sgd"
        );
        // Block-only (no tuple shuffle) with a filter.
        let mut s = spec(StrategyKind::BlockOnly);
        s.filter = Some(pred());
        let plan = LogicalPlan::build(&s, &t).unwrap();
        assert_eq!(fuse_chain(&plan).unwrap().label(), "scan→filter→sgd");
        // Serving chain.
        let ps = PredictPlanSpec {
            table: "t".into(),
            model: "m".into(),
            version: None,
            filter: Some(pred()),
            batch_rows: 64,
        };
        let plan = LogicalPlan::build_predict(&ps, &t).unwrap();
        assert_eq!(fuse_chain(&plan).unwrap().label(), "scan→filter→predict");
    }

    #[test]
    fn fused_explain_renders_one_pipeline_node() {
        let mut s = spec(StrategyKind::BlockOnly);
        s.filter = Some(pred());
        let lines = LogicalPlan::build(&s, &table())
            .unwrap()
            .explain_lines_fused();
        assert!(lines[0].starts_with("SGD (model=svm"), "{lines:?}");
        assert_eq!(lines[1], "  -> Fused Pipeline (scan→filter→sgd)");
        assert!(
            lines.iter().any(|l| l.trim() == "Filter: (f0 > 0)"),
            "{lines:?}"
        );
        assert!(
            lines.last().unwrap().starts_with("  Scan target: t ("),
            "{lines:?}"
        );
        // No interpreted operator nodes survive fusion.
        assert!(!lines.iter().any(|l| l.contains("-> BlockShuffle")));
        assert!(!lines.iter().any(|l| l.contains("-> Filter")));
    }

    #[test]
    fn fused_lowering_builds_one_pipeline_operator() {
        use corgipile_storage::{CacheConfig, DeviceProfile, SimDevice};
        let t = Arc::new(table());
        let catalog = Catalog::new();
        let shared = corgipile_storage::SharedDevice::new(SimDevice::new(
            DeviceProfile::ssd(),
            CacheConfig::disabled(),
        ));
        let mut dev = shared.handle();
        let mut s = spec(StrategyKind::CorgiPile);
        s.filter = Some(pred());
        let plan = LogicalPlan::build(&s, &t).unwrap();
        let params = StrategyParams {
            seed: 1,
            ..Default::default()
        };
        let fused = build_physical_with(&plan, &t, &params, &mut dev, &catalog, true).unwrap();
        assert!(fused.fused);
        assert_eq!(fused.child.name(), "Fused Pipeline");
        let interp = build_physical_with(&plan, &t, &params, &mut dev, &catalog, false).unwrap();
        assert!(!interp.fused);
        assert_eq!(interp.child.name(), "TupleShuffle");
    }

    #[test]
    fn out_of_range_feature_is_a_planning_error() {
        let mut s = spec(StrategyKind::CorgiPile);
        s.filter = Some(Predicate::Cmp {
            col: ColumnRef::Feature(99),
            op: CmpOp::Gt,
            value: 0.0,
        });
        assert!(matches!(
            LogicalPlan::build(&s, &table()),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn id_and_duplicates_are_rejected_in_projections() {
        let t = table();
        let mut s = spec(StrategyKind::CorgiPile);
        s.projection = Projection::Columns(vec![ColumnRef::Id]);
        assert!(matches!(
            LogicalPlan::build(&s, &t),
            Err(DbError::UnknownColumn(_))
        ));
        s.projection = Projection::Columns(vec![ColumnRef::Feature(1), ColumnRef::Feature(1)]);
        assert!(matches!(LogicalPlan::build(&s, &t), Err(DbError::Parse(_))));
        s.projection = Projection::Columns(vec![ColumnRef::Label]);
        assert!(matches!(LogicalPlan::build(&s, &t), Err(DbError::Parse(_))));
    }

    #[test]
    fn corgi2_and_block_reversal_map_to_their_scan_orders() {
        let t = table();
        // Corgi²: tuple-buffered shuffle over the reclustered copy.
        let plan = LogicalPlan::build(&spec(StrategyKind::Corgi2), &t).unwrap();
        let LogicalPlan::Sgd { input, .. } = &plan else {
            panic!("Sgd root expected");
        };
        let LogicalPlan::TupleShuffle { input, .. } = input.as_ref() else {
            panic!("corgi2 keeps the tuple-level shuffle");
        };
        let LogicalPlan::Scan { strategy, .. } = input.as_ref() else {
            panic!("Scan leaf expected");
        };
        assert_eq!(*strategy, StrategyKind::Corgi2);

        // Block reversal: block-granular, no tuple buffer.
        let plan = LogicalPlan::build(&spec(StrategyKind::BlockReversal), &t).unwrap();
        let LogicalPlan::Sgd { input, .. } = &plan else {
            panic!("Sgd root expected");
        };
        let LogicalPlan::Scan { strategy, .. } = input.as_ref() else {
            panic!("block_reversal scans directly under Sgd");
        };
        assert_eq!(*strategy, StrategyKind::BlockReversal);

        // Library-only strategies stay rejected at plan time.
        assert!(matches!(
            LogicalPlan::build(&spec(StrategyKind::Mrs), &t),
            Err(DbError::UnknownStrategy(_))
        ));
    }
}
