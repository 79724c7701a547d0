//! Integration: the persistence path end to end — generate → export to
//! LIBSVM → import → save a table file → open file-backed → train through
//! the SQL engine over a buffer pool → export/reload the model.

use corgipile::data::libsvm::{load_libsvm_table, write_libsvm_file};
use corgipile::data::{DatasetSpec, Order};
use corgipile::db::{Database, QueryResult, StoredModel};
use corgipile::ml::accuracy;
use corgipile::storage::{load_table, save_table, FileTable, SimDevice, TableConfig};
use std::sync::Arc;

fn tempdir() -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "corgi_it_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn full_persistence_pipeline() {
    let dir = tempdir();
    let ds = DatasetSpec::susy_like(4_000)
        .with_order(Order::ClusteredByLabel)
        .build(77);

    // Export → import through the LIBSVM text format.
    let libsvm = dir.join("susy.libsvm");
    write_libsvm_file(&libsvm, &ds.train).unwrap();
    let table = load_libsvm_table(
        &libsvm,
        TableConfig::new("susy", 1).with_block_bytes(8 << 10),
        Some(18),
        0.5,
    )
    .unwrap();
    assert_eq!(table.num_tuples(), 4_000);

    // Table-file round trip.
    let heap = dir.join("susy.tbl");
    save_table(&table, &heap).unwrap();
    let reloaded = load_table(&heap).unwrap();
    assert_eq!(reloaded.all_tuples(), table.all_tuples());

    // File-backed block access agrees with memory.
    let ft = Arc::new(FileTable::open(&heap).unwrap());
    assert_eq!(ft.num_blocks(), table.num_blocks());
    for b in [0usize, ft.num_blocks() / 2, ft.num_blocks() - 1] {
        assert_eq!(ft.read_block(b).unwrap(), table.block_tuples(b).unwrap());
    }

    // Train via SQL over the reloaded table, on an engine with a buffer pool.
    let mut s = Database::with_shared_buffers(SimDevice::hdd_scaled(1280.0, 0), 32 << 20).connect();
    s.register_table("susy", reloaded);
    let summary = match s
        .execute(
            "SELECT * FROM susy TRAIN BY lr WITH learning_rate = 0.03, decay = 0.8, \
             max_epoch_num = 5, model_name = susy_lr",
        )
        .unwrap()
    {
        QueryResult::Train(t) => t,
        _ => panic!("expected train result"),
    };
    assert!(
        summary.final_train_metric > 0.7,
        "acc {}",
        summary.final_train_metric
    );
    // Warm epochs are pool-served: their loading cost collapses.
    let cold = summary.epochs[0].io_seconds;
    let warm = summary.epochs[2].io_seconds;
    assert!(warm < cold / 5.0, "warm {warm} vs cold {cold}");

    // Model blob round trip into a fresh process-equivalent session.
    let blob = dir.join("susy_lr.model");
    let model = s.catalog().model("susy_lr").unwrap();
    model.save(&blob).unwrap();
    let restored = StoredModel::load(&blob).unwrap().instantiate();
    let acc = accuracy(restored.as_ref(), &ds.test);
    assert!(acc > 0.7, "restored model accuracy {acc}");

    // The save is atomic (temp sibling + rename). What a save killed before
    // its rename leaves behind — a torn temp beside the intact model — never
    // shadows the model, and the next save replaces it and cleans up.
    let residue = dir.join("susy_lr.model.tmp");
    std::fs::write(&residue, &model.to_bytes()[..20]).unwrap();
    assert_eq!(StoredModel::load(&blob).unwrap().params, model.params);
    model.save(&blob).unwrap();
    assert!(!residue.exists(), "save must rename its temp sibling away");
    assert_eq!(
        StoredModel::load(&blob).unwrap().to_bytes(),
        model.to_bytes()
    );

    std::fs::remove_dir_all(dir).ok();
}
