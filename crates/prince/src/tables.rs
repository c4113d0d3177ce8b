//! Fused per-nibble round tables for the PRINCE fast path.
//!
//! Every PRINCE round is a nibble-local substitution composed with a
//! GF(2)-linear layer (`M'`, and the ShiftRows nibble permutation). Because
//! the linear layer distributes over XOR, the image of a full 64-bit state
//! is the XOR of the images of its 16 nibbles — the classic AES "T-table"
//! construction. Precomputing, per nibble position `i` and nibble value
//! `v`, the 64-bit contribution of that nibble through substitution *and*
//! the linear layer turns a whole round into 16 table loads XORed together.
//!
//! Four nibble tables define the layers (2 KB each, built at compile time):
//!
//! * [`FWD`]`[i][v] = SR(M'(SBOX[v] @ i))` — one full forward round.
//! * [`MID`]`[i][v] = M'(SBOX[v] @ i)` — the middle layer up to (but not
//!   including) its trailing inverse S-box.
//! * [`BWD`]`[i][v] = M'(SR⁻¹(SBOX⁻¹[v] @ i))` — one full backward round,
//!   with the *previous* step's trailing inverse S-box fused in. The state
//!   therefore flows through the back rounds in "pre-S⁻¹" form; round-key
//!   material must be pre-mapped through the same linear layer via [`lb`].
//! * [`SINV`]`[i][v] = SBOX⁻¹[v] @ i` — the final inverse S-box that
//!   converts the last pre-S⁻¹ state back to a normal state.
//!
//! (`x @ i` denotes nibble value `x` placed at nibble position `i` of an
//! otherwise-zero 64-bit word; position 0 is the most significant nibble.)
//!
//! The hot path does not load the nibble tables. [`widen`] merges each
//! pair of adjacent nibble positions into one byte position, giving
//! [`FWD8`], [`MID8`], [`BWD8`] and [`SINV8`] (8 positions × 256 values,
//! 16 KB each): a round is then 8 loads XORed together ([`fuse8`]). The
//! nibble tables remain the source of that widening and the tests' oracle.
//!
//! All tables are `const`-evaluated from the same [`crate::reference`]
//! constants the spec-literal implementation uses, and the test suite
//! checks every entry — and every fused round — against the reference
//! operations bit for bit.

use crate::reference::{RC, SBOX, SBOX_INV, SR, SR_INV};

/// Const re-implementation of `reference::m_hat` (while-loop form: `for`
/// is not available in const fn).
const fn m_hat(chunk: u16, v: usize) -> u16 {
    let xs = [
        (chunk >> 12) & 0xF,
        (chunk >> 8) & 0xF,
        (chunk >> 4) & 0xF,
        chunk & 0xF,
    ];
    let mut out = 0u16;
    let mut i = 0;
    while i < 4 {
        let mut nib = 0u16;
        let mut b = 0;
        while b < 4 {
            let skip = (b + 8 - i - v) % 4;
            let mut bit = 0u16;
            let mut j = 0;
            while j < 4 {
                if j != skip {
                    bit ^= (xs[j] >> (3 - b)) & 1;
                }
                j += 1;
            }
            nib |= bit << (3 - b);
            b += 1;
        }
        out |= nib << (12 - 4 * i);
        i += 1;
    }
    out
}

/// Const re-implementation of `reference::m_prime`.
const fn m_prime(x: u64) -> u64 {
    let c0 = m_hat((x >> 48) as u16, 0);
    let c1 = m_hat((x >> 32) as u16, 1);
    let c2 = m_hat((x >> 16) as u16, 1);
    let c3 = m_hat(x as u16, 0);
    ((c0 as u64) << 48) | ((c1 as u64) << 32) | ((c2 as u64) << 16) | (c3 as u64)
}

/// Const re-implementation of `reference::permute_nibbles`.
const fn permute(x: u64, perm: &[usize; 16]) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < 16 {
        out |= ((x >> (60 - 4 * perm[i])) & 0xF) << (60 - 4 * i);
        i += 1;
    }
    out
}

/// Places nibble value `v` at nibble position `i` (0 = most significant).
const fn place(v: u8, i: usize) -> u64 {
    (v as u64) << (60 - 4 * i)
}

/// The backward linear layer `M' ∘ SR⁻¹` applied to round-key material.
///
/// In pre-S⁻¹ form the backward round computes
/// `t' = BWD(t) ^ lb(k1 ^ rc)`; `lb` maps the key/constant XOR through the
/// same linear layer the state passes through, so the fused round stays
/// exactly equivalent to the spec sequence `(^k ^rc, SR⁻¹, M', S⁻¹)`.
pub(crate) const fn lb(x: u64) -> u64 {
    m_prime(permute(x, &SR_INV))
}

const fn build_fwd() -> [[u64; 16]; 16] {
    let mut t = [[0u64; 16]; 16];
    let mut i = 0;
    while i < 16 {
        let mut v = 0;
        while v < 16 {
            t[i][v] = permute(m_prime(place(SBOX[v], i)), &SR);
            v += 1;
        }
        i += 1;
    }
    t
}

const fn build_mid() -> [[u64; 16]; 16] {
    let mut t = [[0u64; 16]; 16];
    let mut i = 0;
    while i < 16 {
        let mut v = 0;
        while v < 16 {
            t[i][v] = m_prime(place(SBOX[v], i));
            v += 1;
        }
        i += 1;
    }
    t
}

const fn build_bwd() -> [[u64; 16]; 16] {
    let mut t = [[0u64; 16]; 16];
    let mut i = 0;
    while i < 16 {
        let mut v = 0;
        while v < 16 {
            t[i][v] = m_prime(permute(place(SBOX_INV[v], i), &SR_INV));
            v += 1;
        }
        i += 1;
    }
    t
}

const fn build_sinv() -> [[u64; 16]; 16] {
    let mut t = [[0u64; 16]; 16];
    let mut i = 0;
    while i < 16 {
        let mut v = 0;
        while v < 16 {
            t[i][v] = place(SBOX_INV[v], i);
            v += 1;
        }
        i += 1;
    }
    t
}

/// Fused forward round: substitution + `M'` + ShiftRows. The nibble-wide
/// tables survive as the widening source and the tests' cross-check oracle;
/// the hot path uses only the byte-fused variants below.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) static FWD: [[u64; 16]; 16] = build_fwd();
/// Fused middle layer (S-box + `M'`, leaving the state in pre-S⁻¹ form).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) static MID: [[u64; 16]; 16] = build_mid();
/// Fused backward round operating on pre-S⁻¹ states.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) static BWD: [[u64; 16]; 16] = build_bwd();
/// Final inverse S-box as a position table.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) static SINV: [[u64; 16]; 16] = build_sinv();

/// Widens a per-nibble table into a per-byte table: byte position `j`
/// covers nibble positions `2j` (high nibble) and `2j+1` (low nibble), and
/// since every fused layer is XOR-linear across nibble contributions,
/// `T2[j][b] = T[2j][b >> 4] ^ T[2j+1][b & 0xF]`. This halves the loads
/// per round (8 instead of 16) at the cost of 16 KB per table — the
/// classic T-table width/size trade, decided in favor of width because
/// index derivation is the single hottest leaf of the whole simulator.
const fn widen(t: &[[u64; 16]; 16]) -> [[u64; 256]; 8] {
    let mut w = [[0u64; 256]; 8];
    let mut j = 0;
    while j < 8 {
        let mut b = 0;
        while b < 256 {
            w[j][b] = t[2 * j][b >> 4] ^ t[2 * j + 1][b & 0xF];
            b += 1;
        }
        j += 1;
    }
    w
}

/// Byte-fused forward round ([`FWD`] widened).
pub(crate) static FWD8: [[u64; 256]; 8] = widen(&build_fwd());
/// Byte-fused middle layer ([`MID`] widened).
pub(crate) static MID8: [[u64; 256]; 8] = widen(&build_mid());
/// Byte-fused backward round ([`BWD`] widened).
pub(crate) static BWD8: [[u64; 256]; 8] = widen(&build_bwd());
/// Byte-fused final inverse S-box ([`SINV`] widened).
pub(crate) static SINV8: [[u64; 256]; 8] = widen(&build_sinv());

/// `lb`-mapped round constants for the backward rounds (`RC_6 .. RC_10`).
pub(crate) const LB_RC: [u64; 5] = [lb(RC[6]), lb(RC[7]), lb(RC[8]), lb(RC[9]), lb(RC[10])];

/// `lb(α)` — used to reflect the precomputed backward key on decryption.
pub(crate) const LB_ALPHA: u64 = lb(RC[11]);

/// XORs the 16 per-nibble table contributions for state `s` — one fused
/// round (or layer) in 16 loads. Kept as the tests' oracle for [`fuse8`].
#[cfg_attr(not(test), allow(dead_code))]
#[inline(always)]
pub(crate) fn fuse16(t: &[[u64; 16]; 16], s: u64) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < 16 {
        out ^= t[i][((s >> (60 - 4 * i)) & 0xF) as usize];
        i += 1;
    }
    out
}

/// XORs the 8 per-byte table contributions for state `s` — one fused round
/// (or layer) in 8 loads. Byte position 0 is the most significant byte,
/// matching the nibble-position convention of [`fuse16`].
#[inline(always)]
pub(crate) fn fuse8(t: &[[u64; 256]; 8], s: u64) -> u64 {
    let mut out = 0u64;
    let mut j = 0;
    while j < 8 {
        out ^= t[j][((s >> (56 - 8 * j)) & 0xFF) as usize];
        j += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    /// Deterministic pseudo-random u64 stream for cross-checks (SplitMix64;
    /// no entropy sources — exact reproducibility is a workspace invariant).
    pub(crate) fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn const_helpers_match_reference_ops() {
        let mut s = 1u64;
        for _ in 0..256 {
            let x = splitmix(&mut s);
            assert_eq!(m_prime(x), reference::m_prime(x));
            assert_eq!(permute(x, &SR), reference::permute_nibbles(x, &SR));
            assert_eq!(permute(x, &SR_INV), reference::permute_nibbles(x, &SR_INV));
        }
    }

    /// Exhaustive: every entry of every table equals the reference
    /// composition for that (position, nibble value).
    #[test]
    fn all_table_entries_match_reference_compositions() {
        for i in 0..16 {
            for v in 0..16usize {
                let fwd = reference::permute_nibbles(reference::m_prime(place(SBOX[v], i)), &SR);
                assert_eq!(FWD[i][v], fwd, "FWD[{i}][{v}]");
                let mid = reference::m_prime(place(SBOX[v], i));
                assert_eq!(MID[i][v], mid, "MID[{i}][{v}]");
                let bwd =
                    reference::m_prime(reference::permute_nibbles(place(SBOX_INV[v], i), &SR_INV));
                assert_eq!(BWD[i][v], bwd, "BWD[{i}][{v}]");
                assert_eq!(SINV[i][v], place(SBOX_INV[v], i), "SINV[{i}][{v}]");
            }
        }
    }

    /// Full-state fused rounds equal the reference round sequences on a
    /// pseudo-random state sample.
    #[test]
    fn fused_rounds_match_reference_rounds_on_full_states() {
        let mut seed = 0xdead_beefu64;
        for _ in 0..4096 {
            let s = splitmix(&mut seed);
            // Forward round body (before the rc/k1 XOR).
            let fwd_ref = reference::permute_nibbles(
                reference::m_prime(reference::sub_nibbles(s, &SBOX)),
                &SR,
            );
            assert_eq!(fuse16(&FWD, s), fwd_ref);
            // Middle layer in pre-S⁻¹ form.
            let mid_ref = reference::m_prime(reference::sub_nibbles(s, &SBOX));
            assert_eq!(fuse16(&MID, s), mid_ref);
            // Backward round body on a pre-S⁻¹ state: S⁻¹, then SR⁻¹, then M'.
            let bwd_ref = reference::m_prime(reference::permute_nibbles(
                reference::sub_nibbles(s, &SBOX_INV),
                &SR_INV,
            ));
            assert_eq!(fuse16(&BWD, s), bwd_ref);
            // Final inverse S-box.
            assert_eq!(fuse16(&SINV, s), reference::sub_nibbles(s, &SBOX_INV));
            // lb is the linear layer of the backward round.
            assert_eq!(
                lb(s),
                reference::m_prime(reference::permute_nibbles(s, &SR_INV))
            );
        }
    }

    /// The byte-fused (8-load) pass equals the nibble-fused (16-load) pass
    /// for every table on a pseudo-random state sample, and every byte-table
    /// entry is the XOR of its two constituent nibble entries.
    #[test]
    fn byte_fused_tables_match_nibble_tables() {
        type TablePair = (&'static [[u64; 256]; 8], &'static [[u64; 16]; 16]);
        let pairs: [TablePair; 4] = [(&FWD8, &FWD), (&MID8, &MID), (&BWD8, &BWD), (&SINV8, &SINV)];
        for (wide, narrow) in pairs {
            for j in 0..8 {
                for b in 0..256usize {
                    assert_eq!(
                        wide[j][b],
                        narrow[2 * j][b >> 4] ^ narrow[2 * j + 1][b & 0xF]
                    );
                }
            }
        }
        let mut seed = 0x0f0fu64;
        for _ in 0..4096 {
            let s = splitmix(&mut seed);
            for (wide, narrow) in pairs {
                assert_eq!(fuse8(wide, s), fuse16(narrow, s));
            }
        }
    }
}
