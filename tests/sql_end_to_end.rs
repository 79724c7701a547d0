//! Integration: the SQL surface over the Volcano executor, end to end.

use corgipile::data::{DatasetSpec, Order};
use corgipile::db::{Database, DbError, QueryResult, Session};
use corgipile::storage::SimDevice;

fn session() -> Session {
    let table = DatasetSpec::susy_like(8_000)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8 << 10)
        .build_table(1)
        .unwrap();
    let cache = table.total_bytes() * 3;
    let s = Database::new(SimDevice::ssd_scaled(1280.0, cache)).connect();
    s.register_table("susy", table);
    s
}

#[test]
fn paper_query_template_works_end_to_end() {
    let mut s = session();
    // The exact query shape from §6: SELECT * FROM table TRAIN BY model WITH params.
    let r = s
        .execute(
            "SELECT * FROM susy TRAIN BY svm WITH learning_rate = 0.03, decay = 0.8, \
             max_epoch_num = 6, block_size = 8KB, buffer_fraction = 0.1, \
             strategy = 'corgipile', model_name = susy_svm;",
        )
        .unwrap();
    let summary = match r {
        QueryResult::Train(t) => t,
        _ => panic!("expected train summary"),
    };
    assert_eq!(summary.epochs.len(), 6);
    assert!(
        summary.final_train_metric > 0.70,
        "CorgiPile SVM on clustered susy should learn: {:.3}",
        summary.final_train_metric
    );
    // Per-epoch records monotone in simulated time.
    for w in summary.epochs.windows(2) {
        assert!(w[1].sim_seconds_end > w[0].sim_seconds_end);
    }

    // Inference against the stored model.
    match s.execute("SELECT * FROM susy PREDICT BY susy_svm").unwrap() {
        QueryResult::Predict {
            predictions,
            metric,
        } => {
            assert_eq!(predictions.len(), 8_000);
            assert!(metric > 0.70);
        }
        _ => panic!("expected predictions"),
    }
}

#[test]
fn sql_strategies_reproduce_the_accuracy_ordering() {
    let mut s = session();
    let mut acc = std::collections::BTreeMap::new();
    for strategy in ["corgipile", "once", "no"] {
        let r = s
            .execute(&format!(
                "SELECT * FROM susy TRAIN BY lr WITH learning_rate = 0.03, decay = 0.8, \
                 max_epoch_num = 6, strategy = '{strategy}', model_name = m_{strategy}"
            ))
            .unwrap();
        match r {
            QueryResult::Train(t) => {
                acc.insert(strategy, t.final_train_metric);
            }
            _ => unreachable!(),
        }
    }
    assert!((acc["corgipile"] - acc["once"]).abs() < 0.06);
    assert!(acc["corgipile"] > acc["no"] + 0.10);
}

#[test]
fn once_pays_setup_corgipile_does_not() {
    let mut s = session();
    let total = |strategy: &str, s: &mut Session| match s
        .execute(&format!(
            "SELECT * FROM susy TRAIN BY svm WITH max_epoch_num = 3, \
                 strategy = '{strategy}', model_name = t_{strategy}"
        ))
        .unwrap()
    {
        QueryResult::Train(t) => (t.setup_seconds, t.total_seconds()),
        _ => unreachable!(),
    };
    let (corgi_setup, corgi_total) = total("corgipile", &mut s);
    let (once_setup, once_total) = total("once", &mut s);
    assert_eq!(corgi_setup, 0.0);
    assert!(once_setup > 0.0);
    assert!(corgi_total < once_total);
}

#[test]
fn explain_analyze_reports_per_operator_actuals() {
    let mut s = session();
    let r = s
        .execute(
            "EXPLAIN ANALYZE SELECT * FROM susy TRAIN BY svm WITH learning_rate = 0.03, \
             max_epoch_num = 3, buffer_fraction = 0.1, strategy = 'corgipile', \
             model_name = ea_svm",
        )
        .unwrap();
    let lines = match r {
        QueryResult::Plan(lines) => lines,
        _ => panic!("expected plan output"),
    };
    let text = lines.join("\n");
    // Root-first operator tree with actual row counts and loop counts.
    assert!(
        lines[0].starts_with("SGD (actual rows=24000 loops=3"),
        "root line: {}",
        lines[0]
    );
    // The default plan fuses the whole chain into one pipeline node with
    // per-batch actuals.
    assert!(
        text.contains("-> Fused Pipeline (scan→shuffle→sgd)"),
        "plan: {text}"
    );
    assert!(text.contains("batches="), "batch actuals: {text}");
    assert!(text.contains("fills="), "buffer fill actuals: {text}");
    assert!(text.contains("cache_hit_rate="), "scan actuals: {text}");
    assert!(text.contains("retries=0"), "retry actuals: {text}");
    // I/O summary and training summary lines.
    assert!(
        lines.iter().any(|l| l.starts_with("I/O:")),
        "io line: {text}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("Training: epochs=3")),
        "training line: {text}"
    );
    // The query actually ran: the model is queryable afterwards.
    match s.execute("SELECT * FROM susy PREDICT BY ea_svm").unwrap() {
        QueryResult::Predict { predictions, .. } => assert_eq!(predictions.len(), 8_000),
        _ => panic!("expected predictions"),
    }

    // fuse = 0 restores the interpreted operator tree, node by node.
    let r = s
        .execute(
            "EXPLAIN ANALYZE SELECT * FROM susy TRAIN BY svm WITH learning_rate = 0.03, \
             max_epoch_num = 3, buffer_fraction = 0.1, strategy = 'corgipile', \
             fuse = 0, model_name = ea_svm0",
        )
        .unwrap();
    let lines = match r {
        QueryResult::Plan(lines) => lines,
        _ => panic!("expected plan output"),
    };
    let text = lines.join("\n");
    assert!(text.contains("TupleShuffle"), "plan: {text}");
    assert!(text.contains("BlockShuffle"), "plan: {text}");
    assert!(!text.contains("Fused Pipeline"), "plan: {text}");
}

#[test]
fn show_stats_exposes_telemetry_counters() {
    let mut s = session();
    s.execute(
        "SELECT * FROM susy TRAIN BY lr WITH max_epoch_num = 2, strategy = 'corgipile', \
         model_name = stats_lr",
    )
    .unwrap();
    let lines = match s.execute("SHOW STATS").unwrap() {
        QueryResult::Plan(lines) => lines,
        _ => panic!("expected stats output"),
    };
    let text = lines.join("\n");
    assert!(
        text.contains("counter storage.device."),
        "device counters: {text}"
    );
    assert!(
        text.contains("counter db.sgd.gradient_steps"),
        "sgd counter: {text}"
    );
    assert!(
        text.contains("histogram db.tuple_shuffle.fill"),
        "fill spans: {text}"
    );
    assert!(text.contains("events "), "event summary: {text}");
}

#[test]
fn sql_errors_surface_cleanly() {
    let mut s = session();
    assert!(matches!(
        s.execute("SELECT * FROM missing TRAIN BY svm"),
        Err(DbError::UnknownTable(_))
    ));
    assert!(matches!(
        s.execute("DROP TABLE susy"),
        Err(DbError::Parse(_))
    ));
    assert!(matches!(
        s.execute("SELECT * FROM susy TRAIN BY svm WITH learning_rate = fast"),
        Err(DbError::BadParam(_))
    ));
}

#[test]
fn engine_owned_knobs_are_unknown_parameters() {
    // The engine owns durability (`durable = 1`, auto-resume) and the buffer
    // pool (`Database::with_shared_buffers`): the per-statement checkpoint
    // file, resume switch, private pool and pooled-seqscan knobs are gone.
    let mut s = session();
    s.execute("SELECT * FROM susy TRAIN BY svm WITH max_epoch_num = 1, model_name = m")
        .unwrap();
    for (key, sql) in [
        (
            "checkpoint",
            "SELECT * FROM susy TRAIN BY svm WITH checkpoint = 'x.ckpt'",
        ),
        ("resume", "SELECT * FROM susy TRAIN BY svm WITH resume = 1"),
        (
            "shared_buffers",
            "SELECT * FROM susy TRAIN BY svm WITH shared_buffers = 32MB",
        ),
        ("shared_scan", "PREDICT m ON susy WITH shared_scan = 1"),
    ] {
        match s.execute(sql) {
            Err(DbError::BadParam(msg)) => {
                assert!(
                    msg.starts_with(&format!("unknown parameter {key}")),
                    "{msg}"
                )
            }
            other => panic!("{sql}: expected unknown parameter, got {other:?}"),
        }
    }
}

#[test]
fn regression_model_via_sql_reports_r2() {
    let table = DatasetSpec::msd_like(4_000)
        .with_block_bytes(8 << 10)
        .build_table(2)
        .unwrap();
    let mut s = Database::new(SimDevice::ssd_scaled(1280.0, table.total_bytes() * 3)).connect();
    s.register_table("songs", table);
    let r = s
        .execute(
            "SELECT * FROM songs TRAIN BY linreg WITH learning_rate = 0.01, \
             max_epoch_num = 6, model_name = year_model",
        )
        .unwrap();
    match r {
        QueryResult::Train(t) => {
            assert!(t.final_train_metric > 0.9, "R² {:.3}", t.final_train_metric);
        }
        _ => unreachable!(),
    }
}

#[test]
fn where_pushdown_end_to_end() {
    let mut s = session();
    // Train on the first quarter of the table only. The scan evaluates the
    // predicate below the shuffle buffer, so per epoch the SGD root sees —
    // and the buffer ever holds — exactly the 2000 survivors, not the
    // 8000 stored tuples.
    let trained = match s
        .execute(
            "SELECT * FROM susy WHERE id < 2000 TRAIN BY svm WITH learning_rate = 0.03, \
             max_epoch_num = 3, strategy = 'corgipile', model_name = m_where",
        )
        .unwrap()
    {
        QueryResult::Train(t) => t,
        _ => panic!("expected train summary"),
    };
    assert_eq!(trained.op_stats[0].rows, 3 * 2000);
    // (The fused default folds the chain into one stats node, so sum.)
    let buffered: u64 = trained.op_stats.iter().map(|o| o.buffered_tuples).sum();
    assert_eq!(buffered, 3 * 2000);

    // EXPLAIN (fused default) folds the predicate into the pipeline node.
    let lines = match s
        .execute("EXPLAIN SELECT f0, f2 FROM susy WHERE f0 > 0 OR label = 1 TRAIN BY svm")
        .unwrap()
    {
        QueryResult::Plan(lines) => lines,
        _ => panic!("expected a plan"),
    };
    assert!(
        lines
            .iter()
            .any(|l| l.contains("-> Fused Pipeline (scan→filter→project→shuffle→sgd)")),
        "fused node: {lines:?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.trim_start().starts_with("Filter: (f0 > 0 OR label = 1)")),
        "fused filter sub-line: {lines:?}"
    );

    // With fuse = 0, the predicate sits on the interpreted scan node, not
    // a Filter node.
    let lines = match s
        .execute(
            "EXPLAIN SELECT f0, f2 FROM susy WHERE f0 > 0 OR label = 1 TRAIN BY svm \
             WITH fuse = 0",
        )
        .unwrap()
    {
        QueryResult::Plan(lines) => lines,
        _ => panic!("expected a plan"),
    };
    let scan = lines
        .iter()
        .position(|l| l.contains("BlockShuffle (random"))
        .expect("scan node");
    assert!(lines[scan + 1]
        .trim_start()
        .starts_with("Output: f0, f2, label"));
    assert!(lines[scan + 2]
        .trim_start()
        .starts_with("Filter: (f0 > 0 OR label = 1)"));
    assert!(!lines.iter().any(|l| l.contains("-> Filter")));

    // EXPLAIN ANALYZE reports PostgreSQL-style "Rows Removed by Filter".
    let lines = match s
        .execute(
            "EXPLAIN ANALYZE SELECT * FROM susy WHERE id < 2000 TRAIN BY svm \
             WITH max_epoch_num = 2",
        )
        .unwrap()
    {
        QueryResult::Plan(lines) => lines,
        _ => panic!("expected plan lines"),
    };
    assert!(
        lines
            .iter()
            .any(|l| l.trim_start() == "Rows Removed by Filter: 12000"),
        "rows removed: {lines:?}"
    );

    // Unknown columns fail at planning time with a structured error.
    assert!(matches!(
        s.execute("EXPLAIN SELECT * FROM susy WHERE f99 > 0 TRAIN BY svm"),
        Err(DbError::UnknownColumn(_))
    ));
}

/// Both PREDICT forms and their `EXPLAIN`s must refuse with the same typed
/// width error.
fn assert_width_mismatch(s: &mut Session, table: &str, model_dim: usize, table_dim: usize) {
    for stmt in [
        format!("PREDICT m ON {table}"),
        format!("EXPLAIN PREDICT m ON {table}"),
        format!("SELECT * FROM {table} PREDICT BY m"),
        format!("EXPLAIN SELECT * FROM {table} PREDICT BY m"),
    ] {
        match s.execute(&stmt) {
            Err(DbError::BadParam(msg)) => assert!(
                msg.contains(&format!("expects {model_dim} features"))
                    && msg.contains(&format!("table {table} has {table_dim}")),
                "{stmt}: {msg}"
            ),
            other => panic!("{stmt}: expected BadParam, got {other:?}"),
        }
    }
}

#[test]
fn predict_by_refuses_a_model_trained_on_a_projection() {
    // Used to answer: f0, f1 scored against the weights of f5, f9.
    let mut s = session();
    s.execute("SELECT f5, f9, label FROM susy TRAIN BY svm WITH max_epoch_num = 1, model_name = m")
        .unwrap();
    assert_width_mismatch(&mut s, "susy", 2, 18);
}

#[test]
fn predict_by_refuses_a_dense_model_on_a_sparse_table() {
    // Used to panic: a sparse feature id indexing a 28-wide weight vector.
    let mut s = session();
    s.register_table(
        "higgs",
        DatasetSpec::higgs_like(500).build_table(1).unwrap(),
    );
    let criteo = DatasetSpec::criteo_like(300).build_table(1).unwrap();
    let width = criteo.dim().unwrap();
    assert!(width > 28);
    s.register_table("criteo", criteo);
    s.execute("SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 1, model_name = m")
        .unwrap();
    assert_width_mismatch(&mut s, "criteo", 28, width);
}

#[test]
fn predict_charges_every_sparse_row_its_own_flops() {
    // Rows of 1 to 33 stored components, the lightest one first in every
    // batch of nine: charging a batch `len × flops(first row's nnz)` — what
    // `PREDICT` used to do — bills every row as if it were the lightest.
    use corgipile::ml::{build_model, ModelKind};
    use corgipile::storage::{ComputeCostModel, Table, TableConfig, Tuple};
    let nnz_of = |i: u64| 1 + 4 * (i % 9) as usize;
    let rows: Vec<Tuple> = (0..900u64)
        .map(|i| {
            let nnz = nnz_of(i);
            let indices = (0..nnz as u32).map(|k| 3 * k).collect();
            let label = if i % 2 == 0 { 1.0 } else { -1.0 };
            Tuple::sparse(i, 100, indices, vec![label * 0.5; nnz], label)
        })
        .collect();
    let table = Table::from_tuples(TableConfig::new("sp", 9).with_block_bytes(8 << 10), rows)
        .expect("lay out the sparse table");
    let mut s = Database::new(SimDevice::ssd_scaled(1000.0, 0)).connect();
    s.register_table("sp", table);
    s.execute("SELECT * FROM sp TRAIN BY lr WITH max_epoch_num = 1, model_name = m")
        .unwrap();

    let cost = ComputeCostModel::in_db_core();
    let model = build_model(&ModelKind::LogisticRegression, 100, 0);
    let flops = |i: u64| model.inference_flops_per_example(nnz_of(i));
    let (overhead, rate) = (cost.per_tuple_overhead, cost.flops_per_second);
    let per_tuple: f64 = (0..900).map(|i| overhead + flops(i) / rate).sum();
    let batched: f64 = (0..100u64)
        .map(|b| overhead + (9 * b..9 * b + 9).map(flops).sum::<f64>() / rate)
        .sum();
    for (fuse, want) in [(0, per_tuple), (1, batched)] {
        let sql = format!("PREDICT m ON sp WITH batch_rows = 9, fuse = {fuse}");
        let QueryResult::Serve(p) = s.execute(&sql).unwrap() else {
            panic!("{sql}: expected a serving summary")
        };
        assert_eq!((p.rows, p.batches), (900, 100));
        assert!(
            (p.compute_seconds - want).abs() <= 1e-9 * want,
            "fuse = {fuse}: charged {} for {want} of inference",
            p.compute_seconds
        );
    }
}
