//! `corgi-sql`: an interactive SQL shell over the in-DB CorgiPile engine.
//!
//! ```sh
//! cargo run --release -p corgipile-bench --bin corgi-sql
//! ```
//!
//! Starts a session over a simulated device with the five GLM demo tables
//! pre-registered (clustered order, scaled blocks). Supports the full §6
//! surface plus introspection:
//!
//! ```sql
//! SHOW TABLES;
//! EXPLAIN SELECT * FROM higgs TRAIN BY svm WITH strategy = 'corgipile';
//! SELECT * FROM higgs TRAIN BY svm WITH learning_rate = 0.03, max_epoch_num = 5;
//! SELECT * FROM higgs PREDICT BY higgs_svm;
//! ```
//!
//! Meta-commands: `\d` (tables), `\m` (models), `\q` (quit), `\help`.

use corgipile_bench::common::glm_datasets;
use corgipile_data::Order;
use corgipile_db::{known_keys, Database, QueryResult, Statement};
use corgipile_storage::SimDevice;
use std::io::{BufRead, Write};

fn main() {
    let db = Database::with_shared_buffers(SimDevice::ssd_scaled(1280.0, 256 << 20), 64 << 20);
    let mut session = db.connect();
    eprint!("loading demo tables");
    for spec in glm_datasets(Order::ClusteredByLabel) {
        let name = spec.name.clone();
        let table = spec.build_table(1).expect("demo table builds");
        session.register_table(name, table);
        eprint!(".");
    }
    eprintln!(" done.");
    eprintln!("corgi-sql — type \\help for help, \\q to quit.");

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        eprint!("corgi=# ");
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            "\\q" | "\\quit" | "exit" | "quit" => break,
            "\\d" => {
                writeln!(out, "{}", session.catalog().table_names().join("\n")).ok();
                continue;
            }
            "\\m" => {
                writeln!(out, "{}", session.catalog().model_names().join("\n")).ok();
                continue;
            }
            "\\help" => {
                writeln!(
                    out,
                    "queries:\n  SELECT * FROM <t> TRAIN BY <lr|svm|linreg|softmax|mlp> \
                     [WITH k = v, ...];\n  SELECT * FROM <t> PREDICT BY <model>;\n  \
                     EXPLAIN <train query>;\n  SHOW TABLES; SHOW MODELS;\n\
                     params: {}\nstrategy = corgipile | corgi2 | block_only | tuple_only | \
                     block_reversal | no_shuffle ('no') | shuffle_once ('once')\n\
                     meta: \\d tables, \\m models, \\q quit",
                    known_keys(Statement::Train).join(", ")
                )
                .ok();
                continue;
            }
            _ => {}
        }
        match session.execute(line) {
            Ok(QueryResult::Train(t)) => {
                writeln!(
                    out,
                    "TRAIN OK: model '{}' ({}), strategy {}, {} epochs",
                    t.model_name,
                    t.model_kind,
                    t.strategy,
                    t.epochs.len()
                )
                .ok();
                for e in &t.epochs {
                    writeln!(
                        out,
                        "  epoch {:>2}: loss {:.4}  epoch_time {:>9.3}ms  total {:>9.3}ms",
                        e.epoch,
                        e.train_loss,
                        e.epoch_seconds * 1e3,
                        e.sim_seconds_end * 1e3
                    )
                    .ok();
                }
                writeln!(
                    out,
                    "  final train metric {:.2}%  (setup {:.3}ms)",
                    t.final_train_metric * 100.0,
                    t.setup_seconds * 1e3
                )
                .ok();
            }
            Ok(QueryResult::Predict {
                predictions,
                metric,
            }) => {
                writeln!(
                    out,
                    "PREDICT OK: {} rows, metric {:.2}% (first 10: {:?})",
                    predictions.len(),
                    metric * 100.0,
                    &predictions[..predictions.len().min(10)]
                )
                .ok();
            }
            Ok(QueryResult::Serve(p)) => {
                let metric = p
                    .metric
                    .map(|m| format!("{:.2}%", m * 100.0))
                    .unwrap_or_else(|| "n/a".into());
                let (p50, p99) = (
                    p.latency_quantile(0.5).unwrap_or(0.0) * 1e3,
                    p.latency_quantile(0.99).unwrap_or(0.0) * 1e3,
                );
                writeln!(
                    out,
                    "SERVE OK: model {} v{} ({}), {} rows in {} batches, metric {}, \
                     batch p50 {:.4}ms p99 {:.4}ms, io {:.3}ms compute {:.3}ms \
                     (first 10: {:?})",
                    p.model_name,
                    p.version,
                    if p.cache_hit {
                        "cache hit"
                    } else {
                        "cache miss"
                    },
                    p.rows,
                    p.batches,
                    metric,
                    p50,
                    p99,
                    p.io_seconds * 1e3,
                    p.compute_seconds * 1e3,
                    &p.predictions[..p.predictions.len().min(10)]
                )
                .ok();
            }
            Ok(QueryResult::Plan(lines)) => {
                for l in lines {
                    writeln!(out, "{l}").ok();
                }
            }
            Ok(QueryResult::Names(names)) => {
                for n in names {
                    writeln!(out, "{n}").ok();
                }
            }
            Ok(other) => {
                // QueryResult is #[non_exhaustive].
                writeln!(out, "OK: {other:?}").ok();
            }
            Err(e) => {
                writeln!(out, "ERROR: {e}").ok();
            }
        }
        out.flush().ok();
    }
}
