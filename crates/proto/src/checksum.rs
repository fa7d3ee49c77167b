//! CRC-32 (IEEE 802.3 polynomial) for frame integrity.
//!
//! Sensed-data uploads cross a lossy simulated transport in `sor-sim`;
//! the checksum lets the server discard corrupted bodies instead of
//! feeding garbage to the Data Processor.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 lookup tables (16 KiB), built at compile time.
/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// state of byte `b` followed by `k` zero bytes, so a 16-byte block
/// folds in with one lookup per byte and no per-byte shift chain.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC-32 of `data`.
///
/// # Example
///
/// ```
/// // The canonical CRC-32 check value.
/// assert_eq!(sor_proto::checksum::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let (blocks, tail) = data.as_chunks::<16>();
    for b in blocks {
        // Bytes 4..16 do not depend on the running CRC, so their lookups
        // can overlap the previous block's; folding them in first leaves
        // only four lookups on the loop-carried chain.
        let mut rest = 0;
        for i in 4..16 {
            rest ^= t[15 - i][b[i] as usize];
        }
        let s = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = rest
            ^ t[15][(s & 0xff) as usize]
            ^ t[14][((s >> 8) & 0xff) as usize]
            ^ t[13][((s >> 16) & 0xff) as usize]
            ^ t[12][(s >> 24) as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-lookup-per-byte loop: the oracle for the sliced kernel.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"temperature 71.5F humidity 40%".to_vec();
        let original = crc32(&data);
        data[7] ^= 0x01;
        assert_ne!(crc32(&data), original);
    }

    #[test]
    fn byte_swap_changes_checksum() {
        let a = crc32(b"ab");
        let b = crc32(b"ba");
        assert_ne!(a, b);
    }

    proptest! {
        /// Unaligned starts, and the 16 lengths ending at `len`, so every
        /// remainder mod 16 reaches the bytewise tail.
        #[test]
        fn sliced_kernel_matches_bytewise(
            buf in proptest::collection::vec(any::<u8>(), 616..=640),
            start in 0usize..16,
            len in 0usize..=600,
        ) {
            for n in len.saturating_sub(15)..=len {
                let data = &buf[start..start + n];
                prop_assert_eq!(crc32(data), crc32_bytewise(data), "start {} len {}", start, n);
            }
        }
    }

    #[test]
    fn sliced_kernel_matches_bytewise_on_4_mib() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        assert_eq!(crc32(&data), crc32_bytewise(&data));
        assert_eq!(crc32(&data[3..]), crc32_bytewise(&data[3..]));
    }
}
