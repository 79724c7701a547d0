//! I/O model experiments: Appendix Figure 20.

use crate::report::Report;
use corgipile_storage::{Access, CacheConfig, DeviceProfile, SimDevice};

/// Figure 20: effective random-read throughput vs block size, against the
/// sequential-scan ceiling, for HDD and SSD.
pub fn fig20() {
    let mut rep = Report::new(
        "fig20",
        "random block-read throughput vs block size",
        &[
            "device",
            "block_size",
            "random_MBps",
            "sequential_MBps",
            "fraction_of_seq",
        ],
    );
    for profile in [DeviceProfile::hdd(), DeviceProfile::ssd()] {
        let seq = profile.bandwidth / 1e6;
        for shift in [16u32, 18, 20, 21, 22, 23, 24, 25, 26, 27] {
            let block = 1usize << shift;
            // Measure through an actual device rather than the closed form:
            // read 64 random blocks and divide.
            let mut dev = SimDevice::new(profile.clone(), CacheConfig::disabled());
            let reads = 64usize;
            for i in 0..reads {
                dev.read(Some(i as u64), block, Access::Random, None);
            }
            let throughput = (reads * block) as f64 / dev.stats().io_seconds / 1e6;
            rep.row_strings(vec![
                profile.name.clone(),
                human_bytes(block),
                format!("{throughput:.1}"),
                format!("{seq:.1}"),
                format!("{:.0}%", 100.0 * throughput / seq),
            ]);
        }
    }
    rep.note("At ~10MB blocks random access reaches the sequential ceiling on both devices (paper Appendix A / Fig. 20).");
    rep.finish();
}

fn human_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{}MB", b >> 20)
    } else {
        format!("{}KB", b >> 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(64 << 10), "64KB");
        assert_eq!(human_bytes(10 << 20), "10MB");
    }
}
