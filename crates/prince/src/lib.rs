//! PRINCE — a low-latency 64-bit block cipher — and the cache-index
//! randomization built on top of it.
//!
//! Randomized last-level caches such as ScatterCache, Mirage, and Maya derive
//! the set index of a physical line address from an *encrypted* address so
//! that an attacker cannot predict which lines contend. All three use the
//! 12-round PRINCE cipher ([Borghoff et al., 2012]) because its unrolled
//! hardware implementation adds only a few cycles to a lookup.
//!
//! This crate provides:
//!
//! * [`Prince`] — the full cipher (encrypt/decrypt), validated against the
//!   five published test vectors from the PRINCE paper. The hot path runs
//!   each round as 8 loads from 16 KB byte-indexed tables (S-box, `M'`,
//!   and ShiftRows precomposed per byte position — see the `tables`
//!   module).
//! * [`reference`] — the spec-literal implementation kept as the
//!   correctness oracle; the fused path is cross-checked against it bit
//!   for bit.
//! * [`IndexFunction`] — per-skew set-index derivation for skewed randomized
//!   caches, as used by the `maya-core` cache models. Batch-friendly and
//!   allocation-free ([`IndexFunction::set_indices_into`]), with an
//!   optional per-key-epoch memo table, hashed and 2-way set-associative,
//!   for recently translated addresses.
//!
//! # Examples
//!
//! ```
//! use prince_cipher::Prince;
//!
//! let cipher = Prince::new(0x0011_2233_4455_6677, 0x8899_aabb_ccdd_eeff);
//! let ct = cipher.encrypt(0xdead_beef_cafe_f00d);
//! assert_eq!(cipher.decrypt(ct), 0xdead_beef_cafe_f00d);
//! ```
//!
//! [Borghoff et al., 2012]: https://eprint.iacr.org/2012/529

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cipher;
mod index;
pub mod reference;
mod tables;

pub use cipher::Prince;
pub use index::{IndexFunction, SkewIndex, DEFAULT_MEMO_SLOTS, MAX_SKEWS};
