//! LEB128 variable-length integers and zigzag signed mapping.
//!
//! Small values (sensor counts, instant indexes, short lengths) dominate
//! SOR traffic; varints keep the paper's "minimize traffic load" promise
//! measurable in the `proto` bench.

use crate::ProtoError;

/// Maximum encoded length of a 64-bit varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `value` as an unsigned LEB128 varint.
pub fn write_u64(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Bytes [`write_u64`] takes for `value`: one per started group of 7
/// bits, and one for zero.
pub(crate) fn encoded_len(value: u64) -> usize {
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

/// Reads an unsigned LEB128 varint, returning `(value, bytes_consumed)`.
///
/// # Errors
///
/// - [`ProtoError::UnexpectedEof`] if the buffer ends mid-varint.
/// - [`ProtoError::VarintOverflow`] if the encoding exceeds 64 bits.
pub fn read_u64(buf: &[u8]) -> Result<(u64, usize), ProtoError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(ProtoError::VarintOverflow);
        }
        let payload = (byte & 0x7f) as u64;
        if shift == 63 && payload > 1 {
            return Err(ProtoError::VarintOverflow);
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(ProtoError::UnexpectedEof { needed: 1 })
}

/// Zigzag-maps a signed integer so small magnitudes stay small.
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Appends `value` as a zigzag varint.
pub fn write_i64(buf: &mut Vec<u8>, value: i64) {
    write_u64(buf, zigzag_encode(value));
}

/// Reads a zigzag varint, returning `(value, bytes_consumed)`.
///
/// # Errors
///
/// Same conditions as [`read_u64`].
pub fn read_i64(buf: &[u8]) -> Result<(i64, usize), ProtoError> {
    let (raw, n) = read_u64(buf)?;
    Ok((zigzag_decode(raw), n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_take_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), 1);
            assert_eq!(read_u64(&buf).unwrap(), (v, 1));
        }
    }

    #[test]
    fn boundary_values_roundtrip() {
        for v in [0, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let (back, n) = read_u64(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn encoded_len_matches_write() {
        for v in [0, 1, 127, 128, 16383, 16384, u32::MAX as u64, 1 << 62, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(encoded_len(v), buf.len(), "{v}");
        }
    }

    #[test]
    fn max_u64_takes_ten_bytes() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), MAX_VARINT_LEN);
    }

    #[test]
    fn truncated_varint_is_eof() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 300);
        buf.pop();
        assert_eq!(read_u64(&buf), Err(ProtoError::UnexpectedEof { needed: 1 }));
        assert_eq!(read_u64(&[]), Err(ProtoError::UnexpectedEof { needed: 1 }));
    }

    #[test]
    fn overlong_varint_is_overflow() {
        let buf = [0x80u8; 11];
        assert_eq!(read_u64(&buf), Err(ProtoError::VarintOverflow));
        // 10 bytes but with payload bits beyond bit 63.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x7f);
        assert_eq!(read_u64(&buf), Err(ProtoError::VarintOverflow));
    }

    #[test]
    fn zigzag_maps_small_magnitudes_small() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_encode(2), 4);
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            assert_eq!(read_i64(&buf).unwrap().0, v);
        }
    }

    #[test]
    fn consumed_length_allows_streaming() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 5);
        write_u64(&mut buf, 1000);
        let (a, n1) = read_u64(&buf).unwrap();
        let (b, _) = read_u64(&buf[n1..]).unwrap();
        assert_eq!((a, b), (5, 1000));
    }
}
