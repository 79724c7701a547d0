//! Corgi²'s offline pass (Livne et al. 2023): bounded-I/O partial
//! re-clustering, run once before CorgiPile's online two-level shuffle.
//!
//! CorgiPile's convergence factor depends on the block-level data variance
//! h_D; on adversarially clustered storage, block-random sampling alone
//! converges slowly. Corgi² prepends a *partial* offline pass: a random
//! subset of blocks is read, their tuples pooled, shuffled, and written
//! back into the same block slots: each selected slot takes back as many
//! rows as it held, and the table builder packs them into pages. The subset
//! is sized so the pass costs at most `io_budget` × the I/O of a full
//! offline shuffle (the two-pass external sort of Shuffle Once). Every
//! rewritten block then holds a near-uniform mixture of the whole table,
//! dropping the effective block variance to roughly `(1 − io_budget)` × the
//! original before the online two-level shuffle even starts.
//!
//! The same pass backs the SQL `RECLUSTER <table> [WITH io_budget = f]`
//! statement.

use corgipile_data::rng::shuffle_in_place;
use corgipile_storage::clock::full_shuffle_seconds;
use corgipile_storage::{Access, Result, RetryPolicy, SimDevice, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of one bounded-I/O partial re-clustering pass.
#[derive(Debug)]
pub struct ReclusterOutcome {
    /// The partially re-clustered copy (same name semantics as the input;
    /// callers choose the registered name and table id).
    pub table: Table,
    /// Number of block slots whose contents were pooled and rewritten.
    pub blocks_rewritten: usize,
    /// Total blocks in the table.
    pub blocks_total: usize,
    /// Simulated I/O seconds actually charged by the pass.
    pub io_seconds: f64,
    /// The budget the pass was held to: `io_budget × full_shuffle_io`.
    pub budget_io: f64,
    /// Predicted I/O of a full offline shuffle on this device (the
    /// two-pass external sort Shuffle Once pays).
    pub full_shuffle_io: f64,
}

/// Partially re-cluster `table` within an I/O budget.
///
/// Selects a seeded-random subset of blocks whose *planned* read + write
/// cost fits under `io_budget × full_shuffle_io`, reads them (charging
/// `dev` for real), pools their rows (borrowed in place) and shuffles them,
/// and deals the pool back through the one table builder into the same
/// block slots; unselected blocks are carried over untouched (their on-disk
/// extents are never visited, so they cost nothing). The bound therefore
/// holds by construction on any device profile. Tuple ids are preserved, so
/// order diagnostics still see original storage positions.
pub fn recluster_table(
    table: &Table,
    new_name: impl Into<String>,
    new_table_id: u32,
    io_budget: f64,
    seed: u64,
    dev: &mut SimDevice,
) -> Result<ReclusterOutcome> {
    assert!(
        io_budget > 0.0 && io_budget <= 1.0,
        "io budget must be in (0, 1]"
    );
    let blocks_total = table.num_blocks();
    let full_io = full_shuffle_seconds(dev.profile(), table.total_bytes());
    let budget_io = io_budget * full_io;
    let profile = dev.profile().clone();

    // Seeded-random candidate order, then greedy selection under budget.
    let mut candidates: Vec<usize> = (0..blocks_total).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC2_C2);
    shuffle_in_place(&mut rng, &mut candidates);
    let (mut planned, mut rewritten_bytes) = (0.0f64, 0usize);
    let mut selected = vec![false; blocks_total];
    let mut chosen: Vec<usize> = Vec::new();
    for &b in &candidates {
        let bytes = table.block(b)?.bytes;
        let cost =
            profile.read_time(bytes, Access::Random) + profile.read_time(bytes, Access::Sequential);
        if planned + cost > budget_io {
            continue;
        }
        planned += cost;
        rewritten_bytes += bytes;
        selected[b] = true;
        chosen.push(b);
    }

    // Charge the reads for real, pool the rows read, in place.
    let before = dev.stats().io_seconds;
    let slots = (0..blocks_total).map(|b| table.block_handle(b));
    let mut slots = slots.collect::<Result<Vec<_>>>()?;
    for &b in &chosen {
        slots[b] = table.read(b, Access::Random, dev, &RetryPolicy::default())?;
    }
    let rows = chosen.iter().map(|&b| slots[b].len()).sum();
    let mut pool = Vec::with_capacity(rows);
    pool.extend(chosen.iter().flat_map(|&b| slots[b].rows()));
    shuffle_in_place(&mut rng, &mut pool);
    // Write the rewritten slots back in one appending pass.
    dev.write(rewritten_bytes, Access::Sequential);
    let io_seconds = dev.stats().io_seconds - before;

    // Rebuild: a selected slot draws its row count from the shuffled pool,
    // a carried one appends its own rows.
    let mut cfg = table.config().clone();
    cfg.name = new_name.into();
    cfg.table_id = new_table_id;
    let mut copy = corgipile_storage::TableBuilder::new(cfg)?;
    let mut pool = pool.into_iter();
    for (slot, &is_selected) in slots.iter().zip(&selected) {
        let drawn = if is_selected { slot.len() } else { 0 };
        for row in pool.by_ref().take(drawn).chain(slot.rows().skip(drawn)) {
            copy.append(row)?;
        }
    }
    Ok(ReclusterOutcome {
        table: copy.finish(),
        blocks_rewritten: chosen.len(),
        blocks_total,
        io_seconds,
        budget_io,
        full_shuffle_io: full_io,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::block_variance_exact;
    use corgipile_data::{DatasetSpec, Order};

    fn clustered(n: usize) -> Table {
        DatasetSpec::higgs_like(n)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(2 * 8192)
            .build_table(1)
            .unwrap()
    }

    #[test]
    fn recluster_respects_the_io_budget() {
        let t = clustered(4000);
        for budget in [0.1, 0.25, 0.5, 1.0] {
            for mut dev in [SimDevice::hdd_scaled(1000.0, 0), SimDevice::ssd(0)] {
                let out = recluster_table(&t, "t_rc", 99, budget, 7, &mut dev).unwrap();
                assert!(
                    out.io_seconds <= out.budget_io + 1e-12,
                    "budget {budget}: {} > {}",
                    out.io_seconds,
                    out.budget_io
                );
                assert!(out.blocks_rewritten > 0, "budget {budget} rewrote nothing");
                assert!(out.blocks_rewritten <= out.blocks_total);
                assert_eq!(out.table.num_tuples(), t.num_tuples());
            }
        }
    }

    #[test]
    fn seek_bound_device_with_tiny_budget_rewrites_nothing_rather_than_overspend() {
        // On an unscaled HDD a single random block read costs a full seek;
        // when the whole budget is smaller than one seek the honest answer
        // is to rewrite nothing — the bound must hold, not be "almost held".
        let t = clustered(4000);
        let mut dev = SimDevice::hdd(0);
        let out = recluster_table(&t, "t_rc", 99, 0.1, 7, &mut dev).unwrap();
        assert_eq!(out.blocks_rewritten, 0);
        assert_eq!(out.io_seconds, 0.0);
        assert_eq!(out.table.num_tuples(), t.num_tuples());
    }

    #[test]
    fn recluster_preserves_the_tuple_multiset() {
        let t = clustered(1500);
        let mut dev = SimDevice::hdd_scaled(1000.0, 0);
        let out = recluster_table(&t, "t_rc", 99, 0.4, 3, &mut dev).unwrap();
        let mut before: Vec<u64> = t.all_tuples().iter().map(|tp| tp.id).collect();
        let mut after: Vec<u64> = out.table.all_tuples().iter().map(|tp| tp.id).collect();
        assert_ne!(before, after, "recluster must move tuples");
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn recluster_lowers_block_variance_on_clustered_data() {
        let t = clustered(4000);
        let hd_before = block_variance_exact(&t).hd;
        assert!(
            hd_before > 0.8,
            "clustered table should start high: {hd_before}"
        );
        let mut dev = SimDevice::hdd_scaled(1000.0, 0);
        let out = recluster_table(&t, "t_rc", 99, 0.5, 7, &mut dev).unwrap();
        let hd_after = block_variance_exact(&out.table).hd;
        assert!(
            hd_after < 0.7 * hd_before,
            "recluster should cut h_D: {hd_before} -> {hd_after}"
        );
    }
}
