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
//! Blob format `CORGICK1` (little-endian), checksummed and written
//! atomically via [`atomic_write_bytes`]:
//!
//! ```text
//! magic "CORGICK1"   8 bytes
//! epoch_next u64, seed u64, sim_clock f64
//! param_count u64, params f32 × param_count
//! state_len u64, optimizer state bytes
//! crc32 u32          CRC-32 of everything above
//! ```

use corgipile_storage::{atomic_write_bytes, crc32, FieldReader, Result, StorageError};
use std::path::Path;

const MAGIC: &[u8; 8] = b"CORGICK1";

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

impl TrainCheckpoint {
    /// Serialize to the checksummed `CORGICK1` blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            8 + 8 + 8 + 8 + 8 + 4 * self.model_params.len() + 8 + self.optimizer_state.len() + 4,
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.epoch_next as u64).to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.sim_clock.to_le_bytes());
        out.extend_from_slice(&(self.model_params.len() as u64).to_le_bytes());
        for p in &self.model_params {
            out.extend_from_slice(&p.to_le_bytes());
        }
        out.extend_from_slice(&(self.optimizer_state.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.optimizer_state);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse a `CORGICK1` blob, verifying magic, checksum and structure.
    /// Every length in the blob is checked against the bytes present before
    /// anything is sized by it, so a hostile blob with a valid checksum is
    /// [`StorageError::Corrupt`], never a panic or an allocation.
    pub fn from_bytes(bytes: &[u8]) -> Result<TrainCheckpoint> {
        let Some(body_len) = bytes.len().checked_sub(4).filter(|&n| n >= MAGIC.len()) else {
            return Err(StorageError::Corrupt("checkpoint too short".into()));
        };
        let (body, trailer) = bytes.split_at(body_len);
        if &body[..MAGIC.len()] != MAGIC {
            return Err(StorageError::Corrupt("bad checkpoint magic".into()));
        }
        let expected = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
        let actual = crc32(body);
        if actual != expected {
            return Err(StorageError::ChecksumMismatch {
                block: None,
                expected,
                actual,
            });
        }
        let mut r = FieldReader::new(&body[MAGIC.len()..], "checkpoint");
        let epoch_next = r.u64()? as usize;
        let seed = r.u64()?;
        let sim_clock = r.f64()?;
        let param_count = r.u64()? as usize;
        let model_params = r.f32s(param_count)?;
        let state_len = r.u64()? as usize;
        let optimizer_state = r.take(state_len)?.to_vec();
        r.finish()?;
        Ok(TrainCheckpoint {
            epoch_next,
            seed,
            sim_clock,
            model_params,
            optimizer_state,
        })
    }

    /// Atomically write the checkpoint to `path` (temp sibling + rename —
    /// a crash mid-save leaves the previous checkpoint intact).
    pub fn save(&self, path: &Path) -> Result<()> {
        atomic_write_bytes(path, &self.to_bytes())
    }

    /// Load and verify a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<TrainCheckpoint> {
        let bytes = std::fs::read(path).map_err(|e| StorageError::Io {
            op: "read checkpoint",
            message: e.to_string(),
        })?;
        TrainCheckpoint::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            epoch_next: 3,
            seed: 0xDEAD_BEEF,
            sim_clock: 12.75,
            model_params: vec![1.5, -2.25, 0.0, 42.0],
            optimizer_state: vec![9, 8, 7, 6, 5],
        }
    }

    #[test]
    fn roundtrip_in_memory() {
        let ck = sample();
        assert_eq!(TrainCheckpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
    }

    #[test]
    fn roundtrip_through_file() {
        let path = std::env::temp_dir().join(format!("corgi_ck_{}.ckpt", std::process::id()));
        let ck = sample();
        ck.save(&path).unwrap();
        assert_eq!(TrainCheckpoint::load(&path).unwrap(), ck);
        // Overwrite is atomic: a second save replaces, never corrupts.
        let mut ck2 = sample();
        ck2.epoch_next = 4;
        ck2.save(&path).unwrap();
        assert_eq!(TrainCheckpoint::load(&path).unwrap().epoch_next, 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_params_and_state_roundtrip() {
        let ck = TrainCheckpoint {
            epoch_next: 0,
            seed: 1,
            sim_clock: 0.0,
            model_params: vec![],
            optimizer_state: vec![],
        };
        assert_eq!(TrainCheckpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let bytes = sample().to_bytes();
        for victim in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[victim] ^= 0x10;
            assert!(
                TrainCheckpoint::from_bytes(&bad).is_err(),
                "flip at byte {victim} undetected"
            );
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0, 1, 10, bytes.len() - 1] {
            assert!(TrainCheckpoint::from_bytes(&bytes[..cut]).is_err());
        }
        assert!(TrainCheckpoint::from_bytes(b"not a checkpoint at all....").is_err());

        // A hostile length under a valid checksum: 4 × param_count + 48
        // wraps a u64, and the count alone would size a 2^62-float vector.
        for (offset, len) in [
            (32, 0x3FFF_FFFF_FFFF_FFF5u64),
            (32, u64::MAX),
            (56, u64::MAX),
        ] {
            let mut bad = bytes.clone();
            bad[offset..offset + 8].copy_from_slice(&len.to_le_bytes());
            let body = bad.len() - 4;
            let crc = crc32(&bad[..body]);
            bad[body..].copy_from_slice(&crc.to_le_bytes());
            assert!(
                matches!(
                    TrainCheckpoint::from_bytes(&bad),
                    Err(StorageError::Corrupt(_))
                ),
                "length {len:#x} at byte {offset}"
            );
        }
        assert!(TrainCheckpoint::load(Path::new("/nonexistent/ck")).is_err());
    }
}
