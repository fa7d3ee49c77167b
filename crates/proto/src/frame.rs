//! Length + CRC framing for append-only logs.
//!
//! The write-ahead log of the sensing server is a byte stream of
//! records, each framed as
//!
//! ```text
//! [payload length: u32 LE][payload][CRC-32 of payload: u32 LE]
//! ```
//!
//! A reader scanning the stream after a crash must distinguish two
//! failure shapes, because they get different treatment:
//!
//! - **Torn** — the stream ends mid-record (header, payload or trailer
//!   incomplete). This is the expected signature of a crash during an
//!   append; recovery stops cleanly at the tear and truncates it.
//! - **Corrupt** — the record is structurally complete but its CRC does
//!   not match (bit rot, misdirected write). Also never replayed, but
//!   worth telling apart in reports: corruption *before* the tail means
//!   the medium, not the crash, ate the data.

use crate::checksum::crc32;

/// Bytes of framing around every payload (length header + CRC trailer).
pub const FRAME_OVERHEAD: usize = 8;

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends mid-record — the torn tail of a crashed append.
    Torn {
        /// Bytes present at the tear.
        have: usize,
        /// Bytes the record declared it needed.
        need: usize,
    },
    /// The record is complete but its checksum does not match.
    Corrupt {
        /// CRC computed over the payload as read.
        computed: u32,
        /// CRC stored in the trailer.
        stored: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Torn { have, need } => {
                write!(f, "torn frame: {have} of {need} bytes present")
            }
            FrameError::Corrupt { computed, stored } => {
                write!(f, "corrupt frame: computed crc {computed:08x}, stored {stored:08x}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Frames a payload for appending to a log.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    encode_frame_into(&mut out, payload);
    out
}

/// Appends a framed payload to an existing buffer (one commit's batch
/// is many frames in one write).
pub fn encode_frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Frames in place the payload that fills `buf[payload_start..]`: writes
/// its length header into the four bytes before it and appends its CRC
/// trailer. A caller that encodes a large payload behind reserved room
/// (a whole-database checkpoint) frames it without a copy. Returns the
/// offset the frame starts at, `payload_start - 4`; the bytes before it
/// are left as they were. The frame equals [`encode_frame`] of the
/// payload byte for byte.
///
/// # Panics
///
/// If `payload_start` is below 4 or past the end of `buf`, or if the
/// payload is longer than a `u32` length header can state.
pub fn encode_frame_in_place(buf: &mut Vec<u8>, payload_start: usize) -> usize {
    let start = payload_start.checked_sub(4).expect("room for the length header");
    let len = u32::try_from(buf.len() - payload_start).expect("payload fits a u32 length");
    buf[start..payload_start].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&buf[payload_start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
    start
}

/// Decodes the frame at the start of `buf`.
///
/// Returns the payload and the total bytes the frame occupied, so a
/// scanner can advance to the next record.
///
/// # Errors
///
/// [`FrameError::Torn`] if the buffer ends mid-record,
/// [`FrameError::Corrupt`] on a checksum mismatch.
pub fn decode_frame(buf: &[u8]) -> Result<(&[u8], usize), FrameError> {
    if buf.len() < 4 {
        return Err(FrameError::Torn { have: buf.len(), need: 4 });
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    let total = len + FRAME_OVERHEAD;
    if buf.len() < total {
        return Err(FrameError::Torn { have: buf.len(), need: total });
    }
    let payload = &buf[4..4 + len];
    let stored = u32::from_le_bytes(buf[4 + len..total].try_into().expect("4 bytes"));
    let computed = crc32(payload);
    if computed != stored {
        return Err(FrameError::Corrupt { computed, stored });
    }
    Ok((payload, total))
}

/// Walks a log byte stream frame by frame.
///
/// After iteration stops, [`FrameScanner::valid_len`] is the byte
/// offset of the clean prefix — exactly what recovery keeps (and what
/// the log is truncated to when the tail is torn).
#[derive(Debug)]
pub struct FrameScanner<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameScanner<'a> {
    /// A scanner positioned at the start of the stream.
    pub fn new(buf: &'a [u8]) -> Self {
        FrameScanner { buf, pos: 0 }
    }

    /// The next payload: `None` at a clean end of stream, `Some(Err)`
    /// at a tear or corruption (the scanner does not advance past it).
    pub fn next_frame(&mut self) -> Option<Result<&'a [u8], FrameError>> {
        if self.pos == self.buf.len() {
            return None;
        }
        match decode_frame(&self.buf[self.pos..]) {
            Ok((payload, consumed)) => {
                self.pos += consumed;
                Some(Ok(payload))
            }
            Err(e) => Some(Err(e)),
        }
    }

    /// Byte length of the valid prefix scanned so far.
    pub fn valid_len(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let framed = encode_frame(b"hello");
        let (payload, consumed) = decode_frame(&framed).unwrap();
        assert_eq!(payload, b"hello");
        assert_eq!(consumed, framed.len());
        assert_eq!(consumed, 5 + FRAME_OVERHEAD);
    }

    #[test]
    fn in_place_frame_equals_encode_frame() {
        for payload in [b"".as_slice(), b"x", b"wal record"] {
            let mut buf = vec![0xee; 6];
            buf.extend_from_slice(payload);
            let start = encode_frame_in_place(&mut buf, 6);
            assert_eq!(start, 2);
            assert_eq!(buf[..2], [0xee, 0xee], "bytes before the frame are left alone");
            assert_eq!(buf[start..], encode_frame(payload));
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let framed = encode_frame(b"");
        let (payload, consumed) = decode_frame(&framed).unwrap();
        assert!(payload.is_empty());
        assert_eq!(consumed, FRAME_OVERHEAD);
    }

    #[test]
    fn every_truncation_is_torn_not_corrupt() {
        let framed = encode_frame(b"wal record");
        for cut in 0..framed.len() {
            match decode_frame(&framed[..cut]) {
                Err(FrameError::Torn { have, .. }) => assert_eq!(have, cut),
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_payload_byte_is_corrupt() {
        let mut framed = encode_frame(b"wal record");
        framed[6] ^= 0x01;
        assert!(matches!(decode_frame(&framed), Err(FrameError::Corrupt { .. })));
    }

    #[test]
    fn oversized_declared_length_is_torn() {
        // A length header promising more than the buffer holds is
        // indistinguishable from a partial append: torn, not corrupt.
        let mut framed = encode_frame(b"x");
        framed[0] = 0xff;
        framed[1] = 0xff;
        assert!(matches!(decode_frame(&framed), Err(FrameError::Torn { .. })));
    }

    #[test]
    fn scanner_walks_clean_stream() {
        let mut log = Vec::new();
        for p in [b"one".as_slice(), b"two", b"three"] {
            encode_frame_into(&mut log, p);
        }
        let mut scanner = FrameScanner::new(&log);
        let mut seen = Vec::new();
        while let Some(frame) = scanner.next_frame() {
            seen.push(frame.unwrap().to_vec());
        }
        assert_eq!(seen, vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]);
        assert_eq!(scanner.valid_len(), log.len());
    }

    #[test]
    fn scanner_stops_at_tear_and_reports_valid_prefix() {
        let mut log = Vec::new();
        encode_frame_into(&mut log, b"committed");
        let prefix = log.len();
        encode_frame_into(&mut log, b"torn away");
        log.truncate(log.len() - 3);

        let mut scanner = FrameScanner::new(&log);
        assert_eq!(scanner.next_frame().unwrap().unwrap(), b"committed");
        assert!(matches!(scanner.next_frame(), Some(Err(FrameError::Torn { .. }))));
        assert_eq!(scanner.valid_len(), prefix, "tear excluded from valid prefix");
        // The scanner does not advance past the tear.
        assert!(matches!(scanner.next_frame(), Some(Err(FrameError::Torn { .. }))));
    }

    #[test]
    fn scanner_distinguishes_interior_corruption() {
        let mut log = Vec::new();
        encode_frame_into(&mut log, b"first");
        let corrupt_at = log.len() + 6;
        encode_frame_into(&mut log, b"second");
        encode_frame_into(&mut log, b"third");
        log[corrupt_at] ^= 0x80;

        let mut scanner = FrameScanner::new(&log);
        assert!(scanner.next_frame().unwrap().is_ok());
        assert!(matches!(scanner.next_frame(), Some(Err(FrameError::Corrupt { .. }))));
    }
}
