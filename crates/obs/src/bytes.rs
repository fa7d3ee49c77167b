//! Shared little-endian byte-codec helpers for the crate's durable
//! serializations (run archives and their sections).
//!
//! Every `sor-obs` byte format follows the same conventions, extracted
//! here so each module's `to_bytes`/`from_bytes` pair stays a direct
//! transcription of its struct:
//!
//! - integers are little-endian, lengths are `u32` prefixes;
//! - `f64` round-trips exactly via [`f64::to_bits`] — exports rebuilt
//!   from a deserialized value must be *byte-identical* to the live
//!   ones, so no decimal formatting is ever involved;
//! - `Option<f64>` is a one-byte tag (0 = `None`, 1 = `Some`) followed
//!   by the payload when present;
//! - readers advance a `pos` cursor and return `None` on any structural
//!   inconsistency (short buffer, invalid UTF-8, bad tag); callers
//!   reject trailing bytes themselves (`pos != bytes.len()`).

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i16(out: &mut Vec<u8>, v: i16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            put_u8(out, 1);
            put_f64(out, v);
        }
        None => put_u8(out, 0),
    }
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_array<const N: usize>(bytes: &[u8], pos: &mut usize) -> Option<[u8; N]> {
    let end = pos.checked_add(N)?;
    let arr: [u8; N] = bytes.get(*pos..end)?.try_into().ok()?;
    *pos = end;
    Some(arr)
}

pub(crate) fn get_u8(bytes: &[u8], pos: &mut usize) -> Option<u8> {
    let b = *bytes.get(*pos)?;
    *pos += 1;
    Some(b)
}

pub(crate) fn get_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    get_array(bytes, pos).map(u32::from_le_bytes)
}

pub(crate) fn get_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    get_array(bytes, pos).map(u64::from_le_bytes)
}

pub(crate) fn get_i16(bytes: &[u8], pos: &mut usize) -> Option<i16> {
    get_array(bytes, pos).map(i16::from_le_bytes)
}

pub(crate) fn get_f64(bytes: &[u8], pos: &mut usize) -> Option<f64> {
    get_u64(bytes, pos).map(f64::from_bits)
}

pub(crate) fn get_opt_f64(bytes: &[u8], pos: &mut usize) -> Option<Option<f64>> {
    match get_u8(bytes, pos)? {
        0 => Some(None),
        1 => get_f64(bytes, pos).map(Some),
        _ => None,
    }
}

pub(crate) fn get_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    let len = get_u32(bytes, pos)? as usize;
    let end = pos.checked_add(len)?;
    let s = std::str::from_utf8(bytes.get(*pos..end)?).ok()?.to_string();
    *pos = end;
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip_exactly() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_i16(&mut out, -42);
        put_f64(&mut out, -0.0);
        put_f64(&mut out, 0.1 + 0.2); // not representable exactly in decimal
        put_opt_f64(&mut out, None);
        put_opt_f64(&mut out, Some(f64::NEG_INFINITY));
        put_str(&mut out, "héllo");
        let mut pos = 0;
        assert_eq!(get_u8(&out, &mut pos), Some(7));
        assert_eq!(get_u32(&out, &mut pos), Some(0xDEAD_BEEF));
        assert_eq!(get_u64(&out, &mut pos), Some(u64::MAX - 1));
        assert_eq!(get_i16(&out, &mut pos), Some(-42));
        let z = get_f64(&out, &mut pos).unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits(), "signed zero preserved bit-exactly");
        assert_eq!(get_f64(&out, &mut pos), Some(0.1 + 0.2));
        assert_eq!(get_opt_f64(&out, &mut pos), Some(None));
        assert_eq!(get_opt_f64(&out, &mut pos), Some(Some(f64::NEG_INFINITY)));
        assert_eq!(get_str(&out, &mut pos).as_deref(), Some("héllo"));
        assert_eq!(pos, out.len());
    }

    #[test]
    fn short_buffers_and_bad_tags_are_rejected() {
        let mut pos = 0;
        assert_eq!(get_u32(&[1, 2, 3], &mut pos), None);
        assert_eq!(pos, 0, "failed read must not advance");
        let mut pos = 0;
        assert_eq!(get_opt_f64(&[2], &mut pos), None, "tag 2 is invalid");
        // A string whose declared length exceeds the buffer.
        let mut out = Vec::new();
        put_u32(&mut out, 100);
        out.extend_from_slice(b"short");
        let mut pos = 0;
        assert_eq!(get_str(&out, &mut pos), None);
        // Non-UTF-8 payload.
        let mut out = Vec::new();
        put_u32(&mut out, 2);
        out.extend_from_slice(&[0xFF, 0xFE]);
        let mut pos = 0;
        assert_eq!(get_str(&out, &mut pos), None);
    }

    #[test]
    fn length_overflow_does_not_panic() {
        // A length prefix near usize::MAX must fail the checked_add, not
        // wrap around and read from the start of the buffer.
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        let mut pos = 0;
        assert_eq!(get_str(&out, &mut pos), None);
    }
}
