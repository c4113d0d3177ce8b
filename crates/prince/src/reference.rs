//! The spec-literal PRINCE implementation — the correctness oracle for the
//! fused fast path in [`crate::cipher`].
//!
//! This module follows the PRINCE specification operation by operation:
//! nibble-wise S-box substitution, the `M'` matrix layer built from the
//! paper's `M̂(0)`/`M̂(1)` block matrices, and the ShiftRows nibble
//! permutation, exactly as written in Borghoff et al. (2012) with the
//! paper's big-endian conventions (nibble 0 is the most-significant nibble
//! of the state, bit 0 of a nibble its most-significant bit).
//!
//! It is deliberately slow and obvious. The production [`crate::Prince`]
//! type uses fused byte-position tables instead (see [`crate::tables`]); the
//! two are cross-checked bit for bit by the test suite and by the
//! `perfbench` harness in `maya-bench`. Keep this module untouched when
//! optimizing — it is the ground truth the fast path is measured against.

/// Round constants `RC_0 .. RC_11`. `RC_i ^ RC_{11-i} = α` for all `i`.
pub(crate) const RC: [u64; 12] = [
    0x0000_0000_0000_0000,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
    0x4528_21e6_38d0_1377,
    0xbe54_66cf_34e9_0c6c,
    0x7ef8_4f78_fd95_5cb1,
    0x8584_0851_f1ac_43aa,
    0xc882_d32f_2532_3c54,
    0x64a5_1195_e0e3_610d,
    0xd3b5_a399_ca0c_2399,
    0xc0ac_29b7_c97c_50dd,
];

/// The PRINCE 4-bit S-box.
pub(crate) const SBOX: [u8; 16] = [
    0xB, 0xF, 0x3, 0x2, 0xA, 0xC, 0x9, 0x1, 0x6, 0x7, 0x8, 0x0, 0xE, 0x5, 0xD, 0x4,
];

/// Inverse of [`SBOX`].
pub(crate) const SBOX_INV: [u8; 16] = [
    0xB, 0x7, 0x3, 0x2, 0xF, 0xD, 0x8, 0x9, 0xA, 0x6, 0x4, 0x0, 0x5, 0xE, 0xC, 0x1,
];

/// The ShiftRows nibble permutation: output nibble `i` (numbered from the
/// most-significant nibble) takes input nibble `SR[i]`.
pub(crate) const SR: [usize; 16] = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11];

/// Inverse of [`SR`].
pub(crate) const SR_INV: [usize; 16] = [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3];

/// Extracts nibble `i` (0 = most significant) of `x`.
#[inline]
pub(crate) fn nibble(x: u64, i: usize) -> u64 {
    (x >> (60 - 4 * i)) & 0xF
}

/// Applies a 16-entry nibble substitution table to all 16 nibbles.
#[inline]
pub(crate) fn sub_nibbles(x: u64, table: &[u8; 16]) -> u64 {
    let mut out = 0u64;
    for i in 0..16 {
        out |= u64::from(table[nibble(x, i) as usize]) << (60 - 4 * i);
    }
    out
}

/// Applies a nibble permutation: output nibble `i` = input nibble `perm[i]`.
#[inline]
pub(crate) fn permute_nibbles(x: u64, perm: &[usize; 16]) -> u64 {
    let mut out = 0u64;
    for (i, &src) in perm.iter().enumerate() {
        out |= nibble(x, src) << (60 - 4 * i);
    }
    out
}

/// Applies `M̂(0)` or `M̂(1)` to one 16-bit chunk.
///
/// The chunk is viewed as four nibbles `x_0..x_3` (MSB first) with bits
/// `b = 0..3` numbered from each nibble's MSB. Block row `i` of `M̂(v)` holds
/// the matrices `m_{(i+v)%4} .. m_{(i+v+3)%4}`, where `m_k` is the 4x4
/// identity with row `k` zeroed. Hence output nibble `i`, bit `b`, is the XOR
/// of input bits `x_j[b]` over all columns `j` except `j = (b - i - v) mod 4`.
#[inline]
fn m_hat(chunk: u16, v: usize) -> u16 {
    let xs = [
        (chunk >> 12) & 0xF,
        (chunk >> 8) & 0xF,
        (chunk >> 4) & 0xF,
        chunk & 0xF,
    ];
    let mut out = 0u16;
    for i in 0..4 {
        let mut nib = 0u16;
        for b in 0..4 {
            let skip = (b + 8 - i - v) % 4;
            let mut bit = 0u16;
            for (j, &xj) in xs.iter().enumerate() {
                if j != skip {
                    bit ^= (xj >> (3 - b)) & 1;
                }
            }
            nib |= bit << (3 - b);
        }
        out |= nib << (12 - 4 * i);
    }
    out
}

/// The involutive `M'` layer: `M̂(0)` on chunks 0 and 3, `M̂(1)` on chunks 1
/// and 2 (chunk 0 = most-significant 16 bits).
#[inline]
pub(crate) fn m_prime(x: u64) -> u64 {
    let c0 = m_hat((x >> 48) as u16, 0);
    let c1 = m_hat((x >> 32) as u16, 1);
    let c2 = m_hat((x >> 16) as u16, 1);
    let c3 = m_hat(x as u16, 0);
    (u64::from(c0) << 48) | (u64::from(c1) << 32) | (u64::from(c2) << 16) | u64::from(c3)
}

/// Encrypts one block with the spec-literal round sequence.
pub fn encrypt(k0: u64, k1: u64, plaintext: u64) -> u64 {
    let k0_prime = k0.rotate_right(1) ^ (k0 >> 63);
    let mut s = plaintext ^ k0;
    s ^= k1;
    s ^= RC[0];
    for &rc in &RC[1..=5] {
        s = sub_nibbles(s, &SBOX);
        s = m_prime(s);
        s = permute_nibbles(s, &SR);
        s ^= rc;
        s ^= k1;
    }
    s = sub_nibbles(s, &SBOX);
    s = m_prime(s);
    s = sub_nibbles(s, &SBOX_INV);
    for &rc in &RC[6..=10] {
        s ^= k1;
        s ^= rc;
        s = permute_nibbles(s, &SR_INV);
        s = m_prime(s);
        s = sub_nibbles(s, &SBOX_INV);
    }
    s ^= RC[11];
    s ^= k1;
    s ^ k0_prime
}

/// Decrypts one block via the alpha-reflection property: decryption is
/// encryption under `(k0', k0, k1 ^ α)` where `α = RC_11`.
pub fn decrypt(k0: u64, k1: u64, ciphertext: u64) -> u64 {
    let k0_prime = k0.rotate_right(1) ^ (k0 >> 63);
    // `encrypt` re-derives its own whitening key, so feed it the reflected
    // outer key directly. Note (k0')' != k0 in general, so reconstruct the
    // reflection explicitly from the raw state.
    let mut s = ciphertext ^ k0_prime;
    let k1r = k1 ^ RC[11];
    s ^= k1r;
    s ^= RC[0];
    for &rc in &RC[1..=5] {
        s = sub_nibbles(s, &SBOX);
        s = m_prime(s);
        s = permute_nibbles(s, &SR);
        s ^= rc;
        s ^= k1r;
    }
    s = sub_nibbles(s, &SBOX);
    s = m_prime(s);
    s = sub_nibbles(s, &SBOX_INV);
    for &rc in &RC[6..=10] {
        s ^= k1r;
        s ^= rc;
        s = permute_nibbles(s, &SR_INV);
        s = m_prime(s);
        s = sub_nibbles(s, &SBOX_INV);
    }
    s ^= RC[11];
    s ^= k1r;
    s ^ k0
}

/// The five test vectors from the PRINCE paper (Appendix A):
/// `(plaintext, k0, k1, ciphertext)`. Shared with the fused-path tests.
#[cfg(test)]
pub(crate) const VECTORS: [(u64, u64, u64, u64); 5] = [
    (
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x818665aa0d02dfda,
    ),
    (
        0xffffffffffffffff,
        0x0000000000000000,
        0x0000000000000000,
        0x604ae6ca03c20ada,
    ),
    (
        0x0000000000000000,
        0xffffffffffffffff,
        0x0000000000000000,
        0x9fb51935fc3df524,
    ),
    (
        0x0000000000000000,
        0x0000000000000000,
        0xffffffffffffffff,
        0x78a54cbe737bb7ef,
    ),
    (
        0x0123456789abcdef,
        0x0000000000000000,
        0xfedcba9876543210,
        0xae25ad3ca8fa9ccf,
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_test_vectors_encrypt() {
        for &(pt, k0, k1, ct) in &VECTORS {
            assert_eq!(
                encrypt(k0, k1, pt),
                ct,
                "encrypt({pt:#018x}) under k0={k0:#018x} k1={k1:#018x}"
            );
        }
    }

    #[test]
    fn published_test_vectors_decrypt() {
        for &(pt, k0, k1, ct) in &VECTORS {
            assert_eq!(decrypt(k0, k1, ct), pt);
        }
    }

    #[test]
    fn round_constants_satisfy_alpha_reflection() {
        let alpha = RC[11];
        for i in 0..12 {
            assert_eq!(RC[i] ^ RC[11 - i], alpha, "RC[{i}] ^ RC[{}]", 11 - i);
        }
    }

    #[test]
    fn sbox_tables_are_mutual_inverses() {
        for v in 0..16u8 {
            assert_eq!(SBOX_INV[SBOX[v as usize] as usize], v);
            assert_eq!(SBOX[SBOX_INV[v as usize] as usize], v);
        }
    }

    #[test]
    fn shift_rows_tables_are_mutual_inverses() {
        for i in 0..16 {
            assert_eq!(SR_INV[SR[i]], i);
            assert_eq!(SR[SR_INV[i]], i);
        }
    }

    #[test]
    fn m_prime_is_an_involution() {
        let mut x = 0x0123_4567_89ab_cdefu64;
        for _ in 0..64 {
            assert_eq!(m_prime(m_prime(x)), x);
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        }
    }

    #[test]
    fn m_prime_is_linear() {
        let mut x = 0xfeed_beef_dead_c0deu64;
        let mut y = 0x0bad_cafe_0ddc_0ffeu64;
        for _ in 0..64 {
            assert_eq!(m_prime(x ^ y), m_prime(x) ^ m_prime(y));
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            y = y
                .rotate_left(13)
                .wrapping_mul(0xd129_42f0_15d5_e2e5)
                .wrapping_add(7);
        }
    }
}
