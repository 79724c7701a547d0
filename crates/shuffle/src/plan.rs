//! Epoch orders, and the epoch plans collected from them.
//!
//! An [`EpochOrder`] is what a strategy generates per epoch: which blocks to
//! read, how each read is charged, where the fills end, how a fill's rows
//! are ranked and, for multi-process CorgiPile, how the fills are dealt to
//! the workers. It holds no tuple and costs no I/O. An [`EpochPlan`] is one
//! epoch run through the fill and copied out, segment by segment.

use corgipile_storage::{Access, Tuple};

/// How a fill's rows are ranked into SGD order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Rank {
    /// Stored order: block by block, slot by slot.
    #[default]
    Stored,
    /// Ascending `splitmix64(salt ⊕ id)`: the SQL `TupleShuffle` key sort.
    /// The key depends on the row alone, so the rank of the rows a `WHERE`
    /// admits does not depend on where the filter runs.
    Key(u64),
    /// Fill `k` is the rows at [`EpochOrder::picks`]`(k)`, positions in the
    /// epoch's scan so far: Sliding-Window's window, MRS's reservoir. The
    /// epoch has one fill more than it has blocks, the drain.
    Picks,
}

/// Multi-process CorgiPile's deal (§5, Figure 5): fill `k` goes to worker
/// `k mod workers`, and the stream takes `share` rows from every worker per
/// round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deal {
    /// Number of processes (`PN`).
    pub workers: usize,
    /// Rows per worker per round (`batch/PN`, at least one).
    pub share: usize,
}

/// One epoch of a strategy, as block ids.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochOrder {
    /// Block ids, in read order.
    pub blocks: Vec<usize>,
    /// Blocks a fill reads: fill `k` reads the `k`-th run of this many.
    pub fill_blocks: usize,
    /// Every read is a random block read (CorgiPile's I/O primitive, and
    /// the reads a buffer pool serves); otherwise the reads are one scan
    /// that seeks only where it jumps.
    pub random: bool,
    /// How each fill's rows are ranked.
    pub rank: Rank,
    /// [`Rank::Picks`] only: positions in the epoch's scan, fill after fill.
    pub picks: Vec<u32>,
    /// [`Rank::Picks`] only, one per fill: where its picks end, and the
    /// bytes it copies through the buffer (priced by the clock's buffering).
    pub cuts: Vec<(usize, usize)>,
    /// The fills' deal to workers, if multi-process.
    pub deal: Option<Deal>,
}

impl EpochOrder {
    /// Overwrite the order with `blocks`, cut into fills of `fill_blocks`.
    pub fn set(
        &mut self,
        blocks: impl IntoIterator<Item = usize>,
        fill_blocks: usize,
        random: bool,
        rank: Rank,
    ) {
        self.blocks.clear();
        self.blocks.extend(blocks);
        self.fill_blocks = fill_blocks.max(1);
        (self.random, self.rank, self.deal) = (random, rank, None);
        self.picks.clear();
        self.cuts.clear();
    }

    /// Fills in the epoch.
    pub fn fills(&self) -> usize {
        self.blocks.len().div_ceil(self.fill_blocks.max(1))
    }

    /// The blocks fill `k` reads (none past the end: a [`Rank::Picks`]
    /// drain).
    pub fn fill(&self, k: usize) -> &[usize] {
        &self.blocks[self.reads(k)]
    }

    /// The positions in the order of fill `k`'s reads.
    pub fn reads(&self, k: usize) -> std::ops::Range<usize> {
        let start = (k * self.fill_blocks).min(self.blocks.len());
        start..(start + self.fill_blocks).min(self.blocks.len())
    }

    /// What the `i`-th read of the epoch is charged as.
    pub fn access(&self, i: usize) -> Access {
        Access::in_scan(self.random || i == 0 || self.blocks[i].abs_diff(self.blocks[i - 1]) != 1)
    }

    /// The scan positions fill `k` of a [`Rank::Picks`] order emits.
    pub fn picks(&self, k: usize) -> &[u32] {
        let start = k.checked_sub(1).map_or(0, |j| self.cuts[j].0);
        &self.picks[start..self.cuts[k].0]
    }
}

/// One buffer fill's worth of the epoch stream.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Tuples in SGD consumption order.
    pub tuples: Vec<Tuple>,
    /// Simulated seconds of I/O + loading work (block reads, buffer copy,
    /// in-buffer shuffle) spent producing this segment.
    pub io_seconds: f64,
}

impl Segment {
    /// A segment with the given contents and cost.
    pub fn new(tuples: Vec<Tuple>, io_seconds: f64) -> Self {
        Segment { tuples, io_seconds }
    }
}

/// The full stream of one epoch.
#[derive(Debug, Clone, Default)]
pub struct EpochPlan {
    /// Buffer fills, in order.
    pub segments: Vec<Segment>,
    /// One-off cost charged before this epoch's stream (e.g. Shuffle Once's
    /// offline shuffle before epoch 0, or Epoch Shuffle's per-epoch shuffle).
    pub setup_seconds: f64,
}

impl EpochPlan {
    /// Total tuples across segments.
    pub fn num_tuples(&self) -> usize {
        self.segments.iter().map(|s| s.tuples.len()).sum()
    }

    /// Total I/O seconds across segments (excluding setup).
    pub fn io_seconds(&self) -> f64 {
        self.segments.iter().map(|s| s.io_seconds).sum()
    }

    /// Iterate all tuples in consumption order.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.segments.iter().flat_map(|s| s.tuples.iter())
    }

    /// Collect the tuple-id sequence (for order diagnostics).
    pub fn id_sequence(&self) -> Vec<u64> {
        self.tuples().map(|t| t.id).collect()
    }

    /// Collect the label sequence (for order diagnostics).
    pub fn label_sequence(&self) -> Vec<f32> {
        self.tuples().map(|t| t.label).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64, label: f32) -> Tuple {
        Tuple::dense(id, vec![0.0], label)
    }

    #[test]
    fn plan_aggregates_segments() {
        let plan = EpochPlan {
            segments: vec![
                Segment::new(vec![t(0, 1.0), t(1, -1.0)], 0.5),
                Segment::new(vec![t(2, 1.0)], 0.25),
            ],
            setup_seconds: 2.0,
        };
        assert_eq!(plan.num_tuples(), 3);
        assert!((plan.io_seconds() - 0.75).abs() < 1e-12);
        assert_eq!(plan.id_sequence(), vec![0, 1, 2]);
        assert_eq!(plan.label_sequence(), vec![1.0, -1.0, 1.0]);
    }

    #[test]
    fn empty_plan_is_empty() {
        let plan = EpochPlan::default();
        assert_eq!(plan.num_tuples(), 0);
        assert_eq!(plan.io_seconds(), 0.0);
        assert!(plan.id_sequence().is_empty());
    }

    #[test]
    fn orders_cut_fills_and_charge_scans_by_their_jumps() {
        let mut order = EpochOrder::default();
        order.set([4, 5, 6, 0, 1], 2, false, Rank::Stored);
        assert_eq!(order.fills(), 3);
        assert_eq!(
            (order.fill(0), order.fill(2), order.fill(3)),
            (&[4, 5][..], &[1][..], &[][..])
        );
        let access: Vec<Access> = (0..5).map(|i| order.access(i)).collect();
        use Access::{Random as R, Sequential as S};
        assert_eq!(access, [R, S, S, R, S], "the head and the wrap seek");
        order.random = true;
        assert!((0..5).all(|i| order.access(i) == R));
    }
}
