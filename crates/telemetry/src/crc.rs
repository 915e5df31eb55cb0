//! The workspace's one CRC-32: IEEE 802.3 (reflected polynomial
//! `0xEDB88320`, init and final xor `!0`, check value `0xCBF43926`).
//!
//! It lives in this crate because the dependency arrow points from
//! `fm-core` to here: the frame codec re-exports it (`fm_core::crc32`) for
//! the frame trailer, and [`crate::beacon`] uses it for the beacon trailer.
//!
//! Two implementations of the one function, picked at run time by
//! CPU feature detection:
//!
//! - **Carry-less-multiply fold** (x86_64 with `pclmulqdq` and `sse4.1`):
//!   Intel's "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ". Four 16-byte lanes are folded forward 64 bytes at a time,
//!   the lanes are folded into one, the rest folds one lane per 16 bytes,
//!   and a Barrett reduction takes the 128-bit remainder to 32 bits. A
//!   sub-16-byte tail goes through the byte table. 9 ns instead of 59 ns
//!   over a 160-byte frame body.
//! - **Slicing-by-16** everywhere else: sixteen 256-entry tables (16 KiB,
//!   built at compile time) let one step fold sixteen input bytes into the
//!   running remainder with sixteen independent lookups, instead of sixteen
//!   dependent shift-and-lookup steps.
//!
//! The header plus payload of every FM frame is a multiple of sixteen bytes
//! whenever the payload is (32 + 0, 32 + 16, 32 + 128), so the common
//! frames never enter the byte-wise tail on either path.

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
    match folded(bytes) {
        Some(c) => c,
        None => slicing_by_16(bytes),
    }
}

/// The carry-less-multiply fold's CRC of `bytes`, or `None` on a CPU
/// without `pclmulqdq` and `sse4.1`. The standard library caches the CPUID
/// answer, so the check is a load per call.
#[cfg(target_arch = "x86_64")]
fn folded(bytes: &[u8]) -> Option<u32> {
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `fold` is compiled for `pclmulqdq` and `sse4.1`, and the
        // line above has just confirmed at run time that this CPU has
        // both. `fold` itself is safe code: slice indexing and intrinsics
        // on values, no raw pointers.
        return Some(unsafe { fold(bytes) });
    }
    None
}

#[cfg(not(target_arch = "x86_64"))]
fn folded(_: &[u8]) -> Option<u32> {
    None
}

/// The portable path: slicing-by-16, then the byte table for the tail.
fn slicing_by_16(bytes: &[u8]) -> u32 {
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
    !bytewise(c, blocks.remainder())
}

/// Advances the (uninverted) remainder `c` over `bytes` one byte at a time.
fn bytewise(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = (c >> 8) ^ TABLES[0][((c ^ b as u32) & 0xFF) as usize];
    }
    c
}

/// Four bytes of a block, the lowest of which has `top` bytes after it.
#[inline(always)]
fn word(top: usize, w: u32) -> u32 {
    TABLES[top][(w & 0xFF) as usize]
        ^ TABLES[top - 1][((w >> 8) & 0xFF) as usize]
        ^ TABLES[top - 2][((w >> 16) & 0xFF) as usize]
        ^ TABLES[top - 3][(w >> 24) as usize]
}

/// Fold constants for the reflected polynomial: each K is x^n mod P(x) for
/// the P(x) = 0x1_04C1_1DB7, bit-reflected over 32 bits and shifted left
/// one. K1/K2 fold a lane 512 bits forward, K3/K4 128 bits, K5 64.
#[cfg(target_arch = "x86_64")]
mod k {
    pub const K1: i64 = 0x1_5444_2BD4; // x^(512+32)
    pub const K2: i64 = 0x1_C6E4_1596; // x^(512-32)
    pub const K3: i64 = 0x1_7519_97D0; // x^(128+32)
    pub const K4: i64 = 0x0_CCAA_009E; // x^(128-32)
    pub const K5: i64 = 0x1_63CD_6124; // x^64
    /// P(x), reflected (33 bits).
    pub const P: i64 = 0x1_DB71_0641;
    /// Barrett's μ = floor(x^64 / P(x)), reflected (33 bits).
    pub const MU: i64 = 0x1_F701_1641;
}

/// The carry-less-multiply path. Loads go through `u64::from_le_bytes`,
/// so there are no raw pointers and no alignment assumptions. Calling it
/// requires a CPU with `pclmulqdq` and `sse4.1`; [`folded`] checks that.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    if bytes.len() < 16 {
        return !bytewise(!0, bytes);
    }
    let load = |b: &[u8]| {
        let lo = u64::from_le_bytes(b[..8].try_into().unwrap());
        let hi = u64::from_le_bytes(b[8..16].try_into().unwrap());
        _mm_set_epi64x(hi as i64, lo as i64)
    };
    // Carries `acc` forward by the distance `keys` encodes (its low half
    // times one key, its high half times the other) and adds it to `next`.
    let fold_into = |acc: __m128i, next: __m128i, keys: __m128i| {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    };
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let k3k4 = _mm_set_epi64x(k::K4, k::K3);

    let mut rest = bytes;
    let mut x;
    if rest.len() >= 64 {
        let mut lanes = [0, 1, 2, 3].map(|i| load(&rest[16 * i..]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(!0));
        rest = &rest[64..];
        let k1k2 = _mm_set_epi64x(k::K2, k::K1);
        while rest.len() >= 64 {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold_into(*lane, load(&rest[16 * i..]), k1k2);
            }
            rest = &rest[64..];
        }
        x = fold_into(lanes[0], lanes[1], k3k4);
        x = fold_into(x, lanes[2], k3k4);
        x = fold_into(x, lanes[3], k3k4);
    } else {
        x = _mm_xor_si128(load(rest), _mm_cvtsi32_si128(!0));
        rest = &rest[16..];
    }
    while rest.len() >= 16 {
        x = fold_into(x, load(rest), k3k4);
        rest = &rest[16..];
    }

    // 128 -> 64 bits: the low half times x^(128-32) onto the high half,
    // then the low 32 bits times x^64 onto the rest.
    x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, k::K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett reduction, 64 -> 32 bits (bit-reflected form, so the result
    // is the second 32-bit word rather than the first).
    let mu_p = _mm_set_epi64x(k::MU, k::P);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), mu_p, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), mu_p, 0x00);
    let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
    !bytewise(c, rest)
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

    type Crc = fn(&[u8]) -> u32;

    /// Every implementation this host can run, by name, each called
    /// directly: on an x86 host with the fold, `crc32` alone would never
    /// reach the slicing-by-16 code.
    fn paths() -> Vec<(&'static str, Crc)> {
        let mut p: Vec<(&'static str, Crc)> = vec![("slicing_by_16", slicing_by_16)];
        if folded(b"").is_some() {
            p.push(("fold", |b| folded(b).unwrap()));
        }
        p
    }

    #[test]
    fn check_value() {
        for (name, f) in paths() {
            assert_eq!(f(b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(f(b""), 0, "{name}");
        }
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
        for (name, f) in paths() {
            for start in 0..16 {
                for len in 0..=MAX_LEN {
                    let s = &data[start..start + len];
                    assert_eq!(f(s), reference(s), "{name} start {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn matches_reference_on_beacon_sized_inputs() {
        let data: Vec<u8> = (0..8192u32 + 7)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for (name, f) in paths() {
            for (start, len) in [(0, 8192), (1, 8192), (7, 8191), (3, 8185), (0, 4099)] {
                let s = &data[start..start + len];
                assert_eq!(f(s), reference(s), "{name} start {start} len {len}");
            }
        }
    }

    /// A CPU that can run the fold must be routed to it: otherwise every
    /// frame silently pays the slicing-by-16 price again.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn a_pclmulqdq_cpu_takes_the_fold() {
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            assert!(
                folded(b"").is_some(),
                "pclmulqdq CPU not routed to the fold"
            );
        }
    }
}
