//! CRC-32 (IEEE 802.3 polynomial), slice-by-8 table-driven and dependency-free.
//!
//! Every frame on disk ([`crate::codec`]) carries one, to detect torn writes
//! and bit rot: a frame's bytes are trusted only after its CRC verifies.

/// Reflected IEEE polynomial (the one used by zip, PNG, ethernet).
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `TABLES[0]` is the classic byte-at-a-time table and
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so eight
/// input bytes fold into the state with eight independent lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

fn crc32_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 of `data` (IEEE, init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    !crc32_bytewise(crc, chunks.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_value() {
        // The canonical CRC-32/IEEE check: crc32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_loop() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        let buf: Vec<u8> = (0..4096 + 8).map(|_| rng.gen()).collect();
        for start in 0..8 {
            for _ in 0..200 {
                let len = rng.gen_range(0..=4096usize);
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    !crc32_bytewise(0xFFFF_FFFF, data),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn any_single_bit_flip_changes_the_crc() {
        let data: Vec<u8> = (0u16..512).map(|i| (i * 31 % 251) as u8).collect();
        let base = crc32(&data);
        for byte in [0usize, 1, 100, 511] {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
