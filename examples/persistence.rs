//! Persistence workflow: import a LIBSVM file, save/load heap tables and
//! trained models to real files.
//!
//! ```sh
//! cargo run --release --example persistence
//! ```
//!
//! 1. write a LIBSVM dataset to disk (the format of the paper's
//!    higgs/susy/epsilon/criteo downloads);
//! 2. import it into a heap table with 8 KB blocks;
//! 3. save the table as a table file (CRC-framed blocks) and reload it;
//! 4. train via SQL, export the model blob, reload it in a fresh session
//!    and predict with it.

use corgipile::data::libsvm::{load_libsvm_table, write_libsvm_file};
use corgipile::data::{DatasetSpec, Order};
use corgipile::db::{Database, QueryResult, StoredModel};
use corgipile::shuffle::{BlockStrategy, EpochOrder, StrategyKind, StrategyParams};
use corgipile::storage::{load_table, save_table, FileTable, RetryPolicy, SimDevice, TableConfig};

fn main() {
    let dir = std::env::temp_dir().join(format!("corgipile_demo_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // 1. Materialize a clustered dataset as a LIBSVM text file.
    let ds = DatasetSpec::criteo_like(4_000)
        .with_order(Order::ClusteredByLabel)
        .build(17);
    let libsvm_path = dir.join("criteo_like.libsvm");
    write_libsvm_file(&libsvm_path, &ds.train).expect("write libsvm");
    println!(
        "wrote {} ({} tuples, LIBSVM text)",
        libsvm_path.display(),
        ds.train.len()
    );

    // 2. Import into a heap table.
    let cfg = TableConfig::new("criteo", 1).with_block_bytes(16 << 10);
    let table = load_libsvm_table(&libsvm_path, cfg, Some(100_000), 0.5).expect("import libsvm");
    println!(
        "imported: {} tuples in {} blocks of ~{:.0} tuples",
        table.num_tuples(),
        table.num_blocks(),
        table.tuples_per_block()
    );

    // 3. Save + reload the table through a table file.
    let table_path = dir.join("criteo.tbl");
    save_table(&table, &table_path).expect("save table");
    let reloaded = load_table(&table_path).expect("load table");
    assert_eq!(reloaded.all_tuples(), table.all_tuples());
    println!(
        "table file round-trip OK ({} bytes on disk)",
        std::fs::metadata(&table_path).unwrap().len()
    );

    // 3b. Block-addressable access against the real file: one epoch of
    // CorgiPile's block order, each block a real positioned read.
    let ft = FileTable::open(&table_path).expect("open table file");
    let mut order = EpochOrder::default();
    BlockStrategy::new(
        StrategyKind::CorgiPile,
        StrategyParams::default().with_seed(99),
    )
    .order(ft.num_blocks(), 1, &mut order);
    let mut ids = Vec::new();
    for &block in &order.blocks {
        let rows = ft.read_block_retry(block, &RetryPolicy::default());
        ids.extend(rows.expect("read table file").iter().map(|t| t.id));
    }
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..table.num_tuples()).collect::<Vec<_>>(),
        "every tuple arrives once"
    );
    println!(
        "file-backed CorgiPile epoch: streamed {} tuples from {} on-disk blocks",
        ids.len(),
        ft.num_blocks()
    );

    // 4. Train in a session, export the model, reload elsewhere.
    let mut session = Database::new(SimDevice::ssd_scaled(640.0, 64 << 20)).connect();
    session.register_table("criteo", reloaded.clone());
    let summary = match session
        .execute(
            "SELECT * FROM criteo TRAIN BY lr WITH learning_rate = 0.03, decay = 0.8, \
             max_epoch_num = 6, model_name = clicks",
        )
        .expect("train")
    {
        QueryResult::Train(t) => t,
        _ => unreachable!(),
    };
    println!(
        "trained '{}': accuracy {:.1}% in {:.1} simulated ms",
        summary.model_name,
        summary.final_train_metric * 100.0,
        summary.total_seconds() * 1e3
    );

    let model_path = dir.join("clicks.model");
    session
        .catalog()
        .model("clicks")
        .unwrap()
        .save(&model_path)
        .expect("save model");

    // A brand-new session, as a different process would see it.
    let mut fresh = Database::new(SimDevice::ssd_scaled(640.0, 64 << 20)).connect();
    fresh.register_table("criteo", reloaded);
    let restored = StoredModel::load(&model_path).expect("load model");
    fresh.catalog().store_model("clicks", restored);
    match fresh
        .execute("SELECT * FROM criteo PREDICT BY clicks")
        .expect("predict")
    {
        QueryResult::Predict { metric, .. } => {
            println!(
                "model blob round-trip OK: fresh session predicts at {:.1}%",
                metric * 100.0
            );
        }
        _ => unreachable!(),
    }

    std::fs::remove_dir_all(&dir).ok();
}
