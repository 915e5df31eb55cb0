//! The workspace's one CRC-32: IEEE 802.3 (reflected polynomial
//! `0xEDB88320`, init and final xor `!0`, check value `0xCBF43926`).
//!
//! It lives in this crate because the dependency arrow points from
//! `fm-core` to here: the frame codec re-exports it (`fm_core::crc32`) for
//! the frame trailer, and [`crate::beacon`] uses it for the beacon trailer.
//!
//! Slicing-by-16: sixteen 256-entry tables (16 KiB, built at compile time)
//! let one step fold sixteen input bytes into the running remainder with
//! sixteen independent lookups, instead of sixteen dependent
//! shift-and-lookup steps. The header plus payload of every FM frame is a
//! multiple of sixteen bytes whenever the payload is (32 + 0, 32 + 16,
//! 32 + 128), so the common frames never enter the byte-wise tail.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// remainder of byte `b` followed by `k` zero bytes. A `static`, so every
/// lookup reads the one copy (an unoptimized build copies a `const` array
/// to the stack at each use).
static TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        // The remainder so far folds into the first four bytes; the other
        // twelve enter with their own tables.
        let w0 = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = word(15, w0)
            ^ word(11, u32::from_le_bytes([b[4], b[5], b[6], b[7]]))
            ^ word(7, u32::from_le_bytes([b[8], b[9], b[10], b[11]]))
            ^ word(3, u32::from_le_bytes([b[12], b[13], b[14], b[15]]));
    }
    for &b in blocks.remainder() {
        c = (c >> 8) ^ TABLES[0][((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

/// Four bytes of a block, the lowest of which has `top` bytes after it.
#[inline(always)]
fn word(top: usize, w: u32) -> u32 {
    TABLES[top][(w & 0xFF) as usize]
        ^ TABLES[top - 1][((w >> 8) & 0xFF) as usize]
        ^ TABLES[top - 2][((w >> 16) & 0xFF) as usize]
        ^ TABLES[top - 3][(w >> 24) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference: the definition, no tables.
    fn reference(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn matches_reference_at_every_length_and_offset() {
        // Covers every FM frame (`fm_core::FM_FRAME_MAX` is 164 bytes).
        const MAX_LEN: usize = 256;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..MAX_LEN + 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=MAX_LEN {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), reference(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn matches_reference_on_beacon_sized_inputs() {
        let data: Vec<u8> = (0..8192u32 + 7)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for (start, len) in [(0, 8192), (1, 8192), (7, 8191), (3, 8185), (0, 4099)] {
            let s = &data[start..start + len];
            assert_eq!(crc32(s), reference(s), "start {start} len {len}");
        }
    }
}
