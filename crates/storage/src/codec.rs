//! Shared binary codec for CorgiPile's durable on-disk formats.
//!
//! Three layers, each used by more than one subsystem:
//!
//! * **`CORGIWL1` frames** — the CRC-framed record encoding shared by the
//!   model-store WAL ([`crate::wal::Wal`]) and the table WAL
//!   ([`crate::append::AppendableTable`]). [`encode_frame`] and
//!   [`scan_valid_prefix`] are the single source of truth for the frame
//!   layout; the byte format is unchanged from when it lived in `wal.rs`.
//! * **Length-prefixed fields** — [`put_bytes`] and [`FieldReader`], the
//!   `u32 len ∥ bytes` record-field convention used by model-store records
//!   and table-WAL row batches.
//! * **CRC-trailed containers** — [`encode_container`] /
//!   [`decode_container`], the `magic ∥ count ∥ fields ∥ crc32` snapshot
//!   shape (`CORGIMS1` model snapshots).
//!
//! All integers are little-endian. Everything here is pure (no I/O), so
//! property tests can drive the codec over arbitrary corruptions.

use crate::crc::crc32;
use crate::error::StorageError;
use crate::Result;

/// File magic identifying a CorgiPile write-ahead log.
pub const WAL_MAGIC: &[u8; 8] = b"CORGIWL1";

/// Upper bound on a record payload (guards recovery against interpreting
/// garbage as a multi-gigabyte length and stalling on allocation).
pub const WAL_MAX_PAYLOAD: usize = 1 << 28;

/// Frame overhead per record: len (4) + rtype (1) + crc (4).
pub const WAL_FRAME_OVERHEAD: usize = 9;

/// One recovered log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Caller-defined record type tag.
    pub rtype: u8,
    /// Record payload bytes.
    pub payload: Vec<u8>,
}

/// Encode one `CORGIWL1` record frame (len ∥ rtype ∥ payload ∥ crc).
pub fn encode_frame(rtype: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(WAL_FRAME_OVERHEAD + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.push(rtype);
    frame.extend_from_slice(payload);
    let crc = crc32(&frame[..5 + payload.len()]);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// Scan `bytes` (a whole WAL file image, magic included) for the longest
/// valid record prefix.
///
/// Returns the decoded records and the byte length of the valid prefix
/// (magic included). Everything past the returned length is a torn tail.
/// Pure function so the recovery property test can drive it over arbitrary
/// truncations without touching the filesystem.
pub fn scan_valid_prefix(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return (Vec::new(), 0);
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    while let Some(len_bytes) = bytes.get(pos..pos + 4) {
        let payload_len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
        if payload_len > WAL_MAX_PAYLOAD {
            break;
        }
        let frame_end = pos + 4 + 1 + payload_len + 4;
        if frame_end > bytes.len() {
            break;
        }
        let body = &bytes[pos..pos + 5 + payload_len];
        let stored_crc = u32::from_le_bytes(bytes[frame_end - 4..frame_end].try_into().unwrap());
        if crc32(body) != stored_crc {
            break;
        }
        records.push(WalRecord {
            rtype: bytes[pos + 4],
            payload: bytes[pos + 5..pos + 5 + payload_len].to_vec(),
        });
        pos = frame_end;
    }
    (records, pos)
}

/// Append a `u32 len ∥ bytes` length-prefixed field to `out`.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Cursor over a record payload that reads the fixed-width and
/// length-prefixed fields written by [`put_bytes`] and friends.
///
/// Every accessor fails with [`StorageError::Corrupt`] (tagged with `what`)
/// rather than panicking, so torn or bit-rotted records surface as typed
/// errors all the way up.
#[derive(Debug)]
pub struct FieldReader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> FieldReader<'a> {
    /// Start reading `buf`; `what` names the record kind in error messages.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        FieldReader { buf, pos: 0, what }
    }

    fn corrupt(&self, detail: &str) -> StorageError {
        StorageError::Corrupt(format!("{}: {detail}", self.what))
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.corrupt("truncated record"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read `n` little-endian `f32`s. `n` is checked against the bytes left
    /// before anything is sized by it.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>> {
        let raw = self.take(n.saturating_mul(4))?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Read a `u32 len ∥ bytes` field written by [`put_bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| self.corrupt("invalid utf-8 in string field"))
    }

    /// All bytes not yet consumed (consumes them).
    pub fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the record was consumed exactly.
    pub fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(self.corrupt("trailing bytes"));
        }
        Ok(())
    }
}

/// Encode a CRC-trailed container: `magic ∥ count u32 ∥ (len ∥ payload)* ∥
/// crc32(everything preceding)`.
///
/// This is the exact byte shape of the `CORGIMS1` model-store snapshot, now
/// shared so other subsystems can persist snapshot files the same way.
pub fn encode_container(magic: &[u8; 8], payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(magic);
    out.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    for p in payloads {
        put_bytes(&mut out, p);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decode a container written by [`encode_container`], verifying magic and
/// CRC and returning the payloads. `what` names the file kind in errors.
pub fn decode_container(magic: &[u8; 8], bytes: &[u8], what: &'static str) -> Result<Vec<Vec<u8>>> {
    let corrupt = |detail: &str| StorageError::Corrupt(format!("{what}: {detail}"));
    if bytes.len() < magic.len() + 8 {
        return Err(corrupt("too short"));
    }
    if &bytes[..magic.len()] != magic {
        return Err(corrupt("bad magic"));
    }
    let crc_at = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[crc_at..].try_into().unwrap());
    if crc32(&bytes[..crc_at]) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    let mut r = FieldReader::new(&bytes[magic.len()..crc_at], what);
    let count = r.u32()? as usize;
    let mut payloads = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        payloads.push(r.bytes()?.to_vec());
    }
    r.finish()?;
    Ok(payloads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips_through_scan() {
        let mut image = WAL_MAGIC.to_vec();
        for i in 0..5u8 {
            image.extend_from_slice(&encode_frame(i, &vec![i; i as usize * 3]));
        }
        let (records, valid) = scan_valid_prefix(&image);
        assert_eq!(valid, image.len());
        assert_eq!(records.len(), 5);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.rtype, i as u8);
            assert_eq!(r.payload, vec![i as u8; i * 3]);
        }
    }

    #[test]
    fn frame_layout_is_stable() {
        // Pin the exact bytes so refactors can't silently change the format.
        let frame = encode_frame(7, b"ab");
        assert_eq!(frame.len(), WAL_FRAME_OVERHEAD + 2);
        assert_eq!(&frame[..4], &2u32.to_le_bytes());
        assert_eq!(frame[4], 7);
        assert_eq!(&frame[5..7], b"ab");
        let crc = u32::from_le_bytes(frame[7..11].try_into().unwrap());
        assert_eq!(crc, crc32(&frame[..7]));
    }

    #[test]
    fn field_reader_roundtrips_mixed_fields() {
        let mut buf = Vec::new();
        buf.push(9u8);
        buf.extend_from_slice(&1234u32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&(-2.5f64).to_le_bytes());
        put_bytes(&mut buf, b"field");
        put_bytes(&mut buf, "søme ütf8".as_bytes());

        let mut r = FieldReader::new(&buf, "test record");
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(r.u32().unwrap(), 1234);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), -2.5);
        assert_eq!(r.bytes().unwrap(), b"field");
        assert_eq!(r.string().unwrap(), "søme ütf8");
        r.finish().unwrap();
    }

    #[test]
    fn field_reader_rejects_truncation_and_trailing_bytes() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"xyz");
        // Truncated length prefix.
        let mut r = FieldReader::new(&buf[..2], "short");
        assert!(matches!(r.bytes(), Err(StorageError::Corrupt(m)) if m.contains("short")));
        // Length prefix promising more than is present.
        let mut r = FieldReader::new(&buf[..5], "torn");
        assert!(r.bytes().is_err());
        // Trailing bytes.
        let mut r = FieldReader::new(&buf, "trailing");
        r.u32().unwrap();
        assert!(matches!(
            r.finish(),
            Err(StorageError::Corrupt(m)) if m.contains("trailing bytes")
        ));
    }

    #[test]
    fn field_reader_rest_consumes_remainder() {
        let buf = [1u8, 2, 3, 4, 5];
        let mut r = FieldReader::new(&buf, "rest");
        r.u8().unwrap();
        assert_eq!(r.rest(), &[2, 3, 4, 5]);
        assert_eq!(r.remaining(), 0);
        r.finish().unwrap();
    }

    #[test]
    fn container_roundtrips() {
        let magic = b"CORGITST";
        let payloads = vec![b"one".to_vec(), Vec::new(), vec![0u8; 300]];
        let bytes = encode_container(magic, &payloads);
        assert_eq!(decode_container(magic, &bytes, "test").unwrap(), payloads);
        // Empty container is valid too.
        let empty = encode_container(magic, &[]);
        assert!(decode_container(magic, &empty, "test").unwrap().is_empty());
    }

    #[test]
    fn container_detects_corruption() {
        let magic = b"CORGITST";
        let good = encode_container(magic, &[b"payload".to_vec()]);

        let mut flipped = good.clone();
        flipped[10] ^= 0x40;
        assert!(matches!(
            decode_container(magic, &flipped, "test"),
            Err(StorageError::Corrupt(m)) if m.contains("checksum")
        ));

        assert!(matches!(
            decode_container(b"WRONGMAG", &good, "test"),
            Err(StorageError::Corrupt(m)) if m.contains("bad magic")
        ));

        assert!(decode_container(magic, &good[..4], "test").is_err());

        // Truncating inside a payload breaks the CRC before field decoding.
        assert!(decode_container(magic, &good[..good.len() - 6], "test").is_err());

        // Trailing garbage after the declared fields breaks the CRC too.
        let mut padded = good.clone();
        padded.insert(good.len() - 4, 0xAB);
        assert!(decode_container(magic, &padded, "test").is_err());
    }
}
