//! Query planning: logical plans, and their lowering to the scan they run.
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
//! materializes only survivors over the named columns, so the buffer's
//! fixed block budget holds a larger fraction of the post-filter dataset
//! (CorgiPile's convergence depends on it) and smaller tuples. This trains
//! the same model, bit for bit, as filtering the buffer's output would
//! (`PostBufferFilter` in `proptests.rs`, and the `WHERE` constants of
//! `tests/golden_bits.rs`, recorded with the filter above the buffer).
//!
//! The plan is what `EXPLAIN` renders. Lowering ([`build_physical_with`])
//! turns it into the scan it runs — strategy, table, predicate and column
//! list, a [`PhysicalPlan`] — and runs the strategy's setup; every plan
//! executes as one loop (`exec.rs`). A fused plan (`WITH fuse = 1`, the
//! default) renders as one `Fused Pipeline (…)` node and charges its
//! per-tuple dispatch overhead once per batch; `fuse = 0` renders the
//! operator nodes. Both replay the same tuple sequence.

use crate::catalog::Catalog;
use crate::error::DbError;
use crate::sql::{ColumnRef, Predicate, Projection, StrategyKind};
use corgipile_shuffle::{BlockStrategy, ShuffleStrategy, StrategyParams};
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

    /// Render a fused plan: the root kernel, then one `Fused Pipeline (…)`
    /// node standing in for the operator nodes, annotated with the scan
    /// order, buffer, and any predicate/projection. A plan not rooted at
    /// `Sgd`/`Predict` renders as [`Self::explain_lines`] does.
    pub fn explain_lines_fused(&self) -> Vec<String> {
        let (kernel, input) = match self {
            LogicalPlan::Sgd { input, .. } => ("sgd", input),
            LogicalPlan::Predict { input, .. } => ("predict", input),
            _ => return self.explain_lines(),
        };
        let (buffer, scan) = match &**input {
            LogicalPlan::TupleShuffle {
                buffer_blocks,
                input,
            } => (Some(*buffer_blocks), &**input),
            scan => (None, scan),
        };
        let LogicalPlan::Scan {
            table,
            strategy,
            blocks,
            tuples,
            predicate,
            projection,
        } = scan
        else {
            return self.explain_lines();
        };
        let (filter, project) = (predicate.is_some(), projection.is_some());
        let label = stage_label(filter, project, buffer.is_some(), kernel);
        let pad = "       ";
        let mut lines = vec![
            self.root_line().expect("Sgd/Predict render a root line"),
            format!("  -> Fused Pipeline ({label})"),
            format!("{pad}Scan: {}", strategy.scan_wording(*blocks)),
        ];
        if let Some(bb) = buffer {
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

/// A fused plan's stages in execution order, e.g. `scan→filter→sgd`.
pub(crate) fn stage_label(filter: bool, project: bool, shuffle: bool, kernel: &str) -> String {
    let stages = [(true, "scan"), (filter, "filter"), (project, "project")];
    let stages = stages
        .into_iter()
        .chain([(shuffle, "shuffle"), (true, kernel)]);
    let stages: Vec<&str> = stages.filter_map(|(on, s)| on.then_some(s)).collect();
    stages.join("→")
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

/// A lowered plan: the scan every `TRAIN` and `PREDICT` runs — a
/// strategy's orders over a table, read through the scan step with the
/// statement's `WHERE` predicate and column list — the seconds of the
/// strategy's setup, and whether the plan is fused.
pub struct PhysicalPlan {
    /// The table scanned (the strategy holds the copy its setup made).
    pub table: Arc<Table>,
    /// The strategy whose orders the scan runs.
    pub kind: StrategyKind,
    /// Its order generator.
    pub strategy: BlockStrategy,
    /// `WHERE` predicate, evaluated on each row in place.
    pub predicate: Option<Predicate>,
    /// Feature columns the survivors are projected onto.
    pub projection: Option<Vec<usize>>,
    /// Simulated seconds of the one-off setup (offline shuffle).
    pub setup_seconds: f64,
    /// Fused accounting and rendering: the dispatch cost charged once per
    /// batch, one `Fused Pipeline` node in `EXPLAIN ANALYZE`.
    pub fused: bool,
}

impl PhysicalPlan {
    /// Scan `table` in the orders of strategy `kind` under `params`: no
    /// qualifier, no setup run, not fused.
    pub fn new(table: Arc<Table>, kind: StrategyKind, params: StrategyParams) -> Self {
        PhysicalPlan {
            table,
            kind,
            strategy: BlockStrategy::new(kind, params),
            predicate: None,
            projection: None,
            setup_seconds: 0.0,
            fused: false,
        }
    }
}

/// Lower a logical plan. This is the only place in the engine that builds
/// the scan for a query — `TRAIN`, both `PREDICT` forms, and `EXPLAIN
/// ANALYZE` all route here.
///
/// The strategy's setup runs here, charged to `dev`, its copy under a fresh
/// catalog table id. With `fuse` set (`WITH fuse = 1`, the session default)
/// the plan is fused; either way it runs the same loop.
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
    let mut physical = PhysicalPlan::new(table.clone(), *strategy, params.clone());
    (physical.predicate, physical.projection) = (predicate.clone(), projection.clone());
    let copy_id = || catalog.fresh_table_id();
    physical.setup_seconds = dev.with(|d| physical.strategy.setup(table, &copy_id, d))?;
    physical.fused = fuse;
    Ok(physical)
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
    fn fused_labels_follow_execution_order() {
        let t = table();
        let fused = |plan: LogicalPlan| plan.explain_lines_fused()[1].clone();
        // CorgiPile TRAIN with filter + projection.
        let mut s = spec(StrategyKind::CorgiPile);
        s.filter = Some(pred());
        s.projection = Projection::Columns(vec![ColumnRef::Feature(1)]);
        assert_eq!(
            fused(LogicalPlan::build(&s, &t).unwrap()),
            "  -> Fused Pipeline (scan→filter→project→shuffle→sgd)"
        );
        // Block-only (no tuple shuffle) with a filter.
        let mut s = spec(StrategyKind::BlockOnly);
        s.filter = Some(pred());
        let plan = LogicalPlan::build(&s, &t).unwrap();
        assert_eq!(fused(plan), "  -> Fused Pipeline (scan→filter→sgd)");
        // Serving chain.
        let ps = PredictPlanSpec {
            table: "t".into(),
            model: "m".into(),
            version: None,
            filter: Some(pred()),
            batch_rows: 64,
        };
        let plan = LogicalPlan::build_predict(&ps, &t).unwrap();
        assert_eq!(fused(plan), "  -> Fused Pipeline (scan→filter→predict)");
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
    fn lowering_carries_the_scan_and_the_fuse_flag() {
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
        assert_eq!(fused.kind, StrategyKind::CorgiPile);
        assert_eq!((fused.predicate, fused.projection), (Some(pred()), None));
        let interp = build_physical_with(&plan, &t, &params, &mut dev, &catalog, false).unwrap();
        assert!(!interp.fused);
        // Shuffle Once's copy is made at lowering, and its seconds kept.
        let once = LogicalPlan::build(&spec(StrategyKind::ShuffleOnce), &t).unwrap();
        let once = build_physical_with(&once, &t, &params, &mut dev, &catalog, true).unwrap();
        assert!(once.setup_seconds > 0.0 && once.strategy.copy().is_some());
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
