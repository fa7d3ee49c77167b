//! Cursor-style primitive writer/reader used by the message codec.

use crate::varint;
use crate::ProtoError;

/// Appends SOR wire primitives to a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer { buf: Vec::with_capacity(cap) }
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Unsigned varint.
    pub fn put_uvar(&mut self, v: u64) {
        varint::write_u64(&mut self.buf, v);
    }

    /// Signed (zigzag) varint.
    pub fn put_ivar(&mut self, v: i64) {
        varint::write_i64(&mut self.buf, v);
    }

    /// IEEE-754 double, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Fixed-width u32, little-endian (used for the CRC trailer).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed byte blob.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_uvar(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Length-prefixed vector of doubles.
    pub fn put_f64_seq(&mut self, vs: &[f64]) {
        self.put_uvar(vs.len() as u64);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Raw bytes, no length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// One log record framed as [`crate::frame`] lays it out: `encode`
    /// writes the payload in place, behind room for the length header,
    /// and the CRC trailer follows it. Byte for byte what
    /// [`crate::frame::encode_frame_into`] appends for the same payload.
    ///
    /// # Panics
    ///
    /// If the payload is longer than a `u32` length header can state.
    pub fn put_framed(&mut self, encode: impl FnOnce(&mut Writer)) {
        let payload_start = self.buf.len() + 4;
        self.put_u32(0);
        encode(self);
        crate::frame::encode_frame_in_place(&mut self.buf, payload_start);
    }

    /// Empties the writer, keeping its capacity for the next use.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// View of the buffer.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Reads SOR wire primitives from a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::UnexpectedEof { needed: n - self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One raw byte.
    ///
    /// # Errors
    ///
    /// [`ProtoError::UnexpectedEof`] if the buffer is exhausted. All
    /// other getters share this condition.
    pub fn get_u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    /// Unsigned varint.
    pub fn get_uvar(&mut self) -> Result<u64, ProtoError> {
        let (v, n) = varint::read_u64(&self.buf[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    /// Signed (zigzag) varint.
    pub fn get_ivar(&mut self) -> Result<i64, ProtoError> {
        let (v, n) = varint::read_i64(&self.buf[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    /// IEEE-754 double, little-endian.
    pub fn get_f64(&mut self) -> Result<f64, ProtoError> {
        let s = self.take(8)?;
        Ok(f64::from_le_bytes(s.try_into().expect("slice is 8 bytes")))
    }

    /// Fixed-width u32, little-endian.
    pub fn get_u32(&mut self) -> Result<u32, ProtoError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().expect("slice is 4 bytes")))
    }

    /// Length-prefixed byte blob.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], ProtoError> {
        let len = self.get_uvar()? as usize;
        self.take(len)
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, ProtoError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| ProtoError::InvalidUtf8)
    }

    /// Length-prefixed vector of doubles, decoded in one pass into a
    /// vector of exactly its length.
    pub fn get_f64_seq(&mut self) -> Result<Vec<f64>, ProtoError> {
        let len = self.get_uvar()? as usize;
        // Guard against hostile lengths before allocating.
        let bytes = len.saturating_mul(8);
        if bytes > self.remaining() {
            return Err(ProtoError::UnexpectedEof { needed: bytes - self.remaining() });
        }
        let mut out = Vec::with_capacity(len);
        out.extend(
            self.take(bytes)?
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("chunk is 8 bytes"))),
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_uvar(300);
        w.put_ivar(-42);
        w.put_f64(2.5);
        w.put_u32(0xDEADBEEF);
        w.put_str("hello");
        w.put_f64_seq(&[1.0, -1.0]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_uvar().unwrap(), 300);
        assert_eq!(r.get_ivar().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 2.5);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.get_f64_seq().unwrap(), vec![1.0, -1.0]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn eof_reports_shortfall() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.get_u32(), Err(ProtoError::UnexpectedEof { needed: 2 }));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str(), Err(ProtoError::InvalidUtf8));
    }

    #[test]
    fn hostile_sequence_length_rejected() {
        // Declares 2^40 doubles with a 3-byte body.
        let mut w = Writer::new();
        w.put_uvar(1 << 40);
        w.put_raw(&[0, 0, 0]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_f64_seq(), Err(ProtoError::UnexpectedEof { .. })));
    }

    #[test]
    fn f64_seq_count_of_2_pow_61_is_rejected_without_allocating() {
        // 2^61 doubles would be 2^64 bytes: the shortfall must saturate,
        // not overflow, and nothing is allocated.
        let mut w = Writer::new();
        w.put_uvar(1 << 61);
        w.put_raw(&[0, 0, 0]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_f64_seq(), Err(ProtoError::UnexpectedEof { needed: usize::MAX - 3 }));
    }

    #[test]
    fn decoded_f64_seqs_have_exact_capacity() {
        for len in [0usize, 1, 3, 30, 120] {
            let values: Vec<f64> = (0..len).map(|i| i as f64 * 0.5 - 3.0).collect();
            let mut w = Writer::new();
            w.put_f64_seq(&values);
            let bytes = w.into_bytes();
            let decoded = Reader::new(&bytes).get_f64_seq().unwrap();
            assert_eq!(decoded, values);
            assert_eq!(decoded.capacity(), decoded.len(), "{len} readings");
        }
    }

    #[test]
    fn framed_records_equal_encode_frame_into() {
        let mut w = Writer::new();
        let mut reference = Vec::new();
        for payload in [b"".as_slice(), b"x", b"wal record"] {
            w.put_framed(|w| w.put_raw(payload));
            crate::frame::encode_frame_into(&mut reference, payload);
        }
        assert_eq!(w.as_slice(), reference);
        w.clear();
        assert!(w.is_empty());
        w.put_framed(|w| w.put_u8(7));
        assert_eq!(w.as_slice(), crate::frame::encode_frame(&[7]));
    }

    #[test]
    fn empty_string_and_seq() {
        let mut w = Writer::new();
        w.put_str("");
        w.put_f64_seq(&[]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str().unwrap(), "");
        assert!(r.get_f64_seq().unwrap().is_empty());
    }

    #[test]
    fn nan_and_infinity_roundtrip() {
        let mut w = Writer::new();
        w.put_f64(f64::NAN);
        w.put_f64(f64::INFINITY);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
    }
}
