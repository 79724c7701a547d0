//! Host calibration: a fixed loop run before and after every rep.
//!
//! On this shared 2-core host the same binary's wall time drifts by 15-45 %
//! between minutes, and not uniformly: in a slow state a streaming pass can
//! take 2.2x as long, a dependent multiply-add chain 1.07x and an fsync 5x. A
//! workload slows by something in between, depending on where its time goes.
//! So the loop has three parts, timed separately,
//!
//! * **compute**: a chain of 10 M dependent 64-bit multiply-adds;
//! * **memory**: 12 read-modify-write passes over a 16 MiB `f32` buffer;
//!   twice allocate, touch and free 100 000 `Vec<f32>` of 28 elements; 24
//!   copies of an 8 MiB byte buffer;
//! * **io**: 20 appends of 8 521 bytes (one 64-row table-WAL frame) to a
//!   scratch file, each followed by `sync_all`
//!
//! and each workload states its [`Shares`]: the weights of the parts in its
//! normaliser. A time divided by that mix of the loops either side of it
//! repeats where the raw time does not (`REPEATABILITY.md` has the
//! measurements).
//!
//! **Frozen.** The loop's composition, the three reference times and the
//! shares define the unit of every `norm_*` metric and of `setup_s`; changing
//! any of them rescales those metrics.

use std::fs::File;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Reference host speed: the parts taking this long, which is what they take
/// on the host the benchmark was defined on when it is calm. Timings are
/// reported as if the host ran the loop in exactly these times.
pub const COMPUTE_REF_S: f64 = 0.014;
pub const MEMORY_REF_S: f64 = 0.040;
pub const IO_REF_S: f64 = 0.0066;

const CHAIN_STEPS: u64 = 10_000_000;
const STREAM_F32S: usize = 16 << 20 >> 2; // 16 MiB of f32
const STREAM_PASSES: usize = 12;
const SMALL_VECS: usize = 100_000;
const SMALL_VEC_ROUNDS: usize = 2;
const SMALL_VEC_LEN: usize = 28;
const COPY_BYTES: usize = 8 << 20;
const COPIES: usize = 24;
const SYNCED_APPENDS: usize = 20;
const APPEND_BYTES: usize = 8521;

/// One run of the loop: wall seconds of each part.
#[derive(Debug, Clone, Copy)]
pub struct CalSample {
    pub compute_s: f64,
    pub memory_s: f64,
    pub io_s: f64,
}

impl CalSample {
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.memory_s + self.io_s
    }
}

/// The weights of the compute and io parts in a normaliser; the memory part
/// has the rest.
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    pub compute: f64,
    pub io: f64,
}

impl Shares {
    /// The shares for CPU time, which does not include waiting for a flush:
    /// the io part's weight goes to the memory part.
    pub fn without_io(self) -> Shares {
        Shares { io: 0.0, ..self }
    }
}

/// The calibration loop's buffers and scratch file, set up once per run.
pub struct Cal {
    stream: Vec<f32>,
    bytes: Vec<u8>,
    copy: Vec<u8>,
    scratch: File,
    scratch_path: PathBuf,
}

impl Cal {
    /// `dir` is where the scratch file of the io part lives: the same file
    /// system the durable workload's engine writes to.
    pub fn new(dir: &Path) -> std::io::Result<Cal> {
        std::fs::create_dir_all(dir)?;
        let scratch_path = dir.join(format!("cal-{}.tmp", std::process::id()));
        Ok(Cal {
            stream: vec![1.0; STREAM_F32S],
            bytes: vec![7; COPY_BYTES],
            copy: vec![0; COPY_BYTES],
            scratch: File::create(&scratch_path)?,
            scratch_path,
        })
    }

    pub fn run(&mut self) -> CalSample {
        let t0 = Instant::now();
        let mut x = 1u64;
        for i in 0..CHAIN_STEPS {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        let compute_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        for _ in 0..STREAM_PASSES {
            for x in self.stream.iter_mut() {
                *x = *x * 0.999 + 0.001;
            }
            black_box(&mut self.stream);
        }
        for _ in 0..SMALL_VEC_ROUNDS {
            let mut rows: Vec<Vec<f32>> = Vec::with_capacity(SMALL_VECS);
            for i in 0..SMALL_VECS {
                let mut v = vec![0.0f32; SMALL_VEC_LEN];
                v[i % SMALL_VEC_LEN] = i as f32;
                rows.push(v);
            }
            drop(black_box(rows));
        }
        // Copies land in a buffer kept across runs: a fresh 8 MiB allocation
        // is served by mmap or by the heap depending on the allocator's
        // history, and the page faults of the first would time the allocator's
        // state instead of the host's.
        for _ in 0..COPIES {
            self.copy.copy_from_slice(&self.bytes);
            black_box(&mut self.copy);
        }
        let memory_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        self.scratch
            .set_len(0)
            .expect("truncate calibration scratch file");
        for _ in 0..SYNCED_APPENDS {
            self.scratch
                .write_all(&self.bytes[..APPEND_BYTES])
                .and_then(|()| self.scratch.sync_all())
                .expect("append to calibration scratch file");
        }
        CalSample {
            compute_s,
            memory_s,
            io_s: t0.elapsed().as_secs_f64(),
        }
    }
}

impl Drop for Cal {
    fn drop(&mut self) {
        std::fs::remove_file(&self.scratch_path).ok();
    }
}

/// `seconds` of wall or CPU time expressed at the reference host speed, given
/// the calibration loops run just before and just after it and the shares of
/// the loop's parts in the measured work's normaliser.
pub fn normalise(seconds: f64, before: CalSample, after: CalSample, shares: Shares) -> f64 {
    let compute = (before.compute_s + after.compute_s) / 2.0 / COMPUTE_REF_S;
    let memory = (before.memory_s + after.memory_s) / 2.0 / MEMORY_REF_S;
    let io = (before.io_s + after.io_s) / 2.0 / IO_REF_S;
    let memory_share = 1.0 - shares.compute - shares.io;
    seconds / (shares.compute * compute + memory_share * memory + shares.io * io)
}

#[cfg(test)]
mod tests {
    use super::*;

    const REFERENCE: CalSample = CalSample {
        compute_s: COMPUTE_REF_S,
        memory_s: MEMORY_REF_S,
        io_s: IO_REF_S,
    };

    fn shares(compute: f64, io: f64) -> Shares {
        Shares { compute, io }
    }

    #[test]
    fn normalise_scales_by_the_workloads_mix_of_adjacent_calibrations() {
        assert!((normalise(2.0, REFERENCE, REFERENCE, shares(0.3, 0.2)) - 2.0).abs() < 1e-12);
        // Memory twice as slow as the reference, the rest unchanged: a
        // memory-bound measurement halves, a compute-bound one stays, and an
        // even mix is divided by 1.5.
        let slow = CalSample {
            memory_s: 2.0 * MEMORY_REF_S,
            ..REFERENCE
        };
        assert!((normalise(2.0, slow, slow, shares(0.0, 0.0)) - 1.0).abs() < 1e-12);
        assert!((normalise(2.0, slow, slow, shares(1.0, 0.0)) - 2.0).abs() < 1e-12);
        assert!((normalise(3.0, slow, slow, shares(0.5, 0.0)) - 2.0).abs() < 1e-12);
        // Before and after are averaged.
        let slower = CalSample {
            memory_s: 3.0 * MEMORY_REF_S,
            ..REFERENCE
        };
        assert!((normalise(3.0, REFERENCE, slower, shares(0.0, 0.0)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn io_share_weighs_the_flush_part_and_cpu_time_ignores_it() {
        let slow_disk = CalSample {
            io_s: 6.0 * IO_REF_S,
            ..REFERENCE
        };
        let s = shares(0.0, 0.1);
        // 0.9 x 1 + 0.1 x 6 = 1.5
        assert!((normalise(3.0, slow_disk, slow_disk, s) - 2.0).abs() < 1e-12);
        assert!((normalise(3.0, slow_disk, slow_disk, s.without_io()) - 3.0).abs() < 1e-12);
    }
}
