//! The one on-disk codec. Every file the engine writes is an 8-byte magic
//! followed by `CORGIWL1` frames (`len u32 ∥ rtype u8 ∥ payload ∥ crc32`):
//! the model and table WALs (`CORGIWL1`), table files (`CORGITF1`, see
//! [`crate::persist`]), model snapshots (`CORGIMS2`) and saved model files
//! (`CORGIMF1`). [`put_frame`] is the one frame encoder, `decode_frame`
//! the one frame parser. A log keeps its longest valid run of frames
//! ([`scan_valid_prefix`]); any other file must be frames to its last byte
//! ([`read_frames`], or the table file's index), so a file cut or padded
//! anywhere is refused rather than read short.
//!
//! Inside a payload: [`put_bytes`] / [`FieldReader`] fields, and the row
//! batch (`encode_rows` / `decode_rows`) that a table-WAL
//! `RT_TABLE_ROWS` record and a table-file block both carry. All integers
//! are little-endian. Everything here is pure (no I/O), so property tests
//! can drive the codec over arbitrary corruptions.

use crate::crc::crc32;
use crate::error::StorageError;
use crate::tuple::{Tuple, TupleView};
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

/// One checked frame, borrowed from the bytes it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Caller-defined record type tag.
    pub rtype: u8,
    /// Payload bytes.
    pub payload: &'a [u8],
}

/// Append one frame (len ∥ rtype ∥ payload ∥ crc) to `out`.
pub fn put_frame(out: &mut Vec<u8>, rtype: u8, payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.push(rtype);
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

fn corrupt(what: &str, detail: &str) -> StorageError {
    StorageError::Corrupt(format!("{what}: {detail}"))
}

/// Parse `bytes` as exactly one frame (of table block `block`, if it is
/// one). The CRC is checked first, so a damaged frame is
/// [`StorageError::ChecksumMismatch`] whichever byte was hit, its length
/// field included; a length field that disagrees with an intact CRC is
/// `Corrupt`.
pub(crate) fn decode_frame<'a>(
    bytes: &'a [u8],
    what: &str,
    block: Option<usize>,
) -> Result<Frame<'a>> {
    if bytes.len() < WAL_FRAME_OVERHEAD {
        return Err(corrupt(what, "truncated frame"));
    }
    let (body, crc) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_le_bytes(crc.try_into().expect("split off four bytes"));
    let actual = crc32(body);
    if actual != expected {
        return Err(StorageError::ChecksumMismatch {
            block,
            expected,
            actual,
        });
    }
    if body[..4] != ((body.len() - 5) as u32).to_le_bytes() {
        return Err(corrupt(what, "frame length field disagrees"));
    }
    Ok(Frame {
        rtype: body[4],
        payload: &body[5..],
    })
}

/// The byte length of the frame whose length field starts `head`, when
/// that length is within [`WAL_MAX_PAYLOAD`] and the `present` bytes from
/// `head` on can hold it: no length read from disk sizes anything before
/// this check.
pub(crate) fn frame_len(head: &[u8], present: usize) -> Option<usize> {
    let len = u32::from_le_bytes(head.get(..4)?.try_into().expect("four bytes")) as usize;
    Some(len + WAL_FRAME_OVERHEAD).filter(|&end| len <= WAL_MAX_PAYLOAD && end <= present)
}

/// Scan `bytes` (a whole WAL file image, magic included) for the longest
/// valid record prefix.
///
/// Returns the decoded records and the byte length of the valid prefix
/// (magic included). Everything past the returned length is a torn tail.
/// Pure function so the recovery property test can drive it over arbitrary
/// truncations without touching the filesystem.
pub fn scan_valid_prefix(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    if !bytes.starts_with(WAL_MAGIC) {
        return (Vec::new(), 0);
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    while let Some(end) = frame_len(&bytes[pos..], bytes.len() - pos) {
        let Ok(frame) = decode_frame(&bytes[pos..pos + end], "wal", None) else {
            break;
        };
        records.push(WalRecord {
            rtype: frame.rtype,
            payload: frame.payload.to_vec(),
        });
        pos += end;
    }
    (records, pos)
}

/// Refuse `bytes` unless it starts with `magic`; the error names the magic
/// found, so a retired format is told apart from garbage.
pub(crate) fn check_magic(magic: &[u8; 8], bytes: &[u8], what: &str) -> Result<()> {
    if bytes.starts_with(magic) {
        return Ok(());
    }
    let found = String::from_utf8_lossy(&bytes[..bytes.len().min(magic.len())]);
    let detail = format!(
        "bad magic {found:?} (not a {})",
        String::from_utf8_lossy(magic)
    );
    Err(corrupt(what, &detail))
}

/// Read a whole non-log file: `magic`, then frames to its last byte. A
/// foreign magic, a torn or damaged frame, or a byte past the last frame
/// is an error, never a shorter file.
pub fn read_frames<'a>(magic: &[u8; 8], bytes: &'a [u8], what: &str) -> Result<Vec<Frame<'a>>> {
    check_magic(magic, bytes, what)?;
    let mut frames = Vec::new();
    let mut pos = magic.len();
    while pos < bytes.len() {
        let end = frame_len(&bytes[pos..], bytes.len() - pos)
            .ok_or_else(|| corrupt(what, "truncated frame"))?;
        frames.push(decode_frame(&bytes[pos..pos + end], what, None)?);
        pos += end;
    }
    Ok(frames)
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

/// Smallest encoded row: its `u32` length and a tuple with no feature.
const MIN_ROW_BYTES: usize = 4 + 21;

/// Encode `rows`, ids as given, into `payload` as one row batch.
pub(crate) fn encode_rows<'a>(
    rows: impl IntoIterator<Item = TupleView<'a>>,
    payload: &mut Vec<u8>,
) {
    payload.clear();
    payload.extend_from_slice(&0u32.to_le_bytes());
    let mut count = 0u32;
    for t in rows {
        // A length-prefixed field ([`put_bytes`] layout), encoded in place.
        payload.extend_from_slice(&(t.encoded_len() as u32).to_le_bytes());
        t.encode(payload);
        count += 1;
    }
    payload[..4].copy_from_slice(&count.to_le_bytes());
}

/// Decode a row batch written by `encode_rows`. The declared count
/// reserves no more rows than the bytes present can hold.
pub(crate) fn decode_rows(payload: &[u8]) -> Result<Vec<Tuple>> {
    let mut r = FieldReader::new(payload, "row batch");
    let count = r.u32()? as usize;
    let mut rows = Vec::with_capacity(count.min(r.remaining() / MIN_ROW_BYTES));
    for _ in 0..count {
        let bytes = r.bytes()?;
        let (t, used) = Tuple::decode(bytes)?;
        if used != bytes.len() {
            return Err(corrupt("row batch", "trailing bytes in tuple field"));
        }
        rows.push(t);
    }
    r.finish()?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips_through_scan() {
        let mut image = WAL_MAGIC.to_vec();
        for i in 0..5u8 {
            put_frame(&mut image, i, &vec![i; i as usize * 3]);
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
        let mut frame = Vec::new();
        put_frame(&mut frame, 7, b"ab");
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
    fn whole_files_refuse_foreign_magic_damage_cuts_and_padding() {
        let mut good = b"CORGITST".to_vec();
        put_frame(&mut good, 1, b"one");
        put_frame(&mut good, 2, b"");
        let frames = read_frames(b"CORGITST", &good, "test").unwrap();
        assert_eq!(
            frames,
            [
                Frame {
                    rtype: 1,
                    payload: b"one"
                },
                Frame {
                    rtype: 2,
                    payload: b""
                }
            ]
        );
        assert!(matches!(
            read_frames(b"WRONGMAG", &good, "test"),
            Err(StorageError::Corrupt(m)) if m.contains("CORGITST")
        ));
        let mut flipped = good.clone();
        flipped[13] ^= 0x40;
        assert!(matches!(
            read_frames(b"CORGITST", &flipped, "test"),
            Err(StorageError::ChecksumMismatch { block: None, .. })
        ));
        // Cut anywhere but a frame boundary, or padded: refused.
        for cut in (0..good.len()).filter(|&c| c != 8 && c != 8 + 12) {
            assert!(
                read_frames(b"CORGITST", &good[..cut], "test").is_err(),
                "{cut}"
            );
        }
        let mut padded = good.clone();
        padded.push(0);
        assert!(read_frames(b"CORGITST", &padded, "test").is_err());
    }

    #[test]
    fn a_frame_whose_length_field_lies_under_a_valid_crc_is_corrupt() {
        let mut frame = Vec::new();
        put_frame(&mut frame, 3, b"abcd");
        frame[0] = 2;
        let crc_at = frame.len() - 4;
        let crc = crc32(&frame[..crc_at]);
        frame[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame, "test", None),
            Err(StorageError::Corrupt(m)) if m.contains("length field")
        ));
    }
}
