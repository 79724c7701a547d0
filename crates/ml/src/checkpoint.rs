//! Epoch-granular training checkpoints.
//!
//! A [`TrainCheckpoint`] freezes everything a deterministic run needs to
//! continue: the next epoch to execute, the run seed (all RNG streams are
//! derived from it and replayed on resume), the simulated clock, the flat
//! model parameter vector, and the optimizer's internal state. Because the
//! whole system is seed-deterministic, a run killed mid-training and
//! resumed from its last checkpoint produces a **bit-identical** final
//! model to an uninterrupted run.
//!
//! It is a value, not a file format: the epoch driver hands one to its
//! checkpoint sink after every epoch, and the one durable home for it is
//! the database's model store, which frames each record in its own
//! CRC-checked log and snapshot.

/// A resumable snapshot of a training run, taken at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// The next epoch to run (epochs `0..epoch_next` are complete).
    pub epoch_next: usize,
    /// The run's seed; resume refuses a mismatched seed, since the replayed
    /// RNG streams would diverge from the checkpointed trajectory.
    pub seed: u64,
    /// Simulated clock at the checkpoint (end of epoch `epoch_next - 1`).
    pub sim_clock: f64,
    /// Flat model parameter vector.
    pub model_params: Vec<f32>,
    /// Opaque optimizer state (see `Optimizer::state_bytes`).
    pub optimizer_state: Vec<u8>,
}
