//! The set-associative line store: a packed key lane and a tag lane, with
//! the way scans. The baseline LLC and the Table XI partitioned designs
//! ([`crate::SetAssocCache`]), the simulator's L1/L2, and each skew of
//! Maya's and MIRAGE's tag stores keep their lines in a [`SetStore`]. A
//! set is a run of consecutive entries; a scan takes the flat index of its
//! first way (`base`) and the number of ways.
//!
//! The key lane packs everything a way scan filters on into 4 bytes a way
//! (see [`key`]), so a 16-way set is one 64-byte line. Its filter byte is a
//! hash of the line address: a non-matching way is rejected without
//! touching the 8-byte tag lane, which is read only on filter hits (~1/256
//! of non-matching valid ways) and on real hits. Tag writes recompute the
//! filter byte, so it never disagrees with the tag. No RNG is consulted.

/// Bits of the packed per-entry `meta` byte.
///
/// Each model uses the subset it needs. The set-associative caches use
/// `VALID`, `DIRTY` and `REUSED`. Maya encodes its `TagState` as
/// `Invalid = 0`, `Priority0 = VALID`, `Priority1Clean = VALID|DATA`,
/// `Priority1Dirty = VALID|DATA|DIRTY`, with `REUSED` tracking dead-block
/// accounting; Mirage uses `VALID|DATA` for every resident entry plus
/// `DIRTY`/`REUSED`.
pub mod meta {
    /// The entry holds a valid tag.
    pub const VALID: u8 = 1 << 0;
    /// The entry owns a data-store entry (decoupled designs).
    pub const DATA: u8 = 1 << 1;
    /// The data is dirty (must be written back on release).
    pub const DIRTY: u8 = 1 << 2;
    /// The data was re-referenced after its fill (dead-block accounting).
    pub const REUSED: u8 = 1 << 3;
}

/// Bit layout of the packed per-entry `key` word.
///
/// The three per-entry scalars a way scan needs (state bits, security
/// domain and a tag-hash filter byte) share one `u32`:
///
/// ```text
/// bit 31        24 23        16 15                 0
///     [ filt (u8) | meta (u8)  |     sdid (u16)    ]
/// ```
pub mod key {
    /// Shift of the meta byte inside the packed key word.
    pub const META_SHIFT: u32 = 16;
    /// Shift of the filter byte inside the packed key word.
    pub const FILT_SHIFT: u32 = 24;
    /// The [`super::meta::VALID`] bit, in key-word position.
    pub const VALID: u32 = (super::meta::VALID as u32) << META_SHIFT;
    /// The [`super::meta::DATA`] bit, in key-word position.
    pub const DATA: u32 = (super::meta::DATA as u32) << META_SHIFT;
    /// Mask selecting the sdid half.
    pub const SDID_MASK: u32 = 0xFFFF;
    /// Mask selecting the meta byte.
    pub const META_MASK: u32 = 0xFF << META_SHIFT;
    /// Mask selecting the filter byte.
    pub const FILT_MASK: u32 = 0xFF << FILT_SHIFT;
    /// Match mask of a scan for a valid line in any domain: set-associative
    /// caches, whose isolation comes from partitioning, not the sdid.
    pub const MATCH_LINE: u32 = FILT_MASK | VALID;
    /// Match mask of a scan for a valid line in one domain.
    pub const MATCH_LINE_SDID: u32 = MATCH_LINE | SDID_MASK;
}

/// The key and tag lanes of a set-associative line store (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct SetStore {
    /// Packed `[filt | meta | sdid]` word per entry (see [`key`]).
    key: Vec<u32>,
    /// Line address per entry (live when `meta & VALID`).
    tag: Vec<u64>,
}

impl SetStore {
    /// A store of `entries` entries, all invalid.
    pub fn new(entries: usize) -> Self {
        Self {
            key: vec![0; entries],
            tag: vec![0; entries],
        }
    }

    /// Number of entries.
    pub fn tag_entries(&self) -> usize {
        self.key.len()
    }

    /// Filter byte for `line`, pre-shifted into key-word position. A cheap
    /// multiplicative hash of the *whole* line address: two lines that
    /// collide in a set under a randomized index function almost never
    /// share a filter byte, so set scans reject them from the key lane
    /// alone. Deterministic (no keys, no RNG) and recomputed on every tag
    /// write, so it can never disagree with the stored tag.
    #[inline]
    fn filt(line: u64) -> u32 {
        (((line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u32) << key::FILT_SHIFT)
            & key::FILT_MASK
    }

    /// The meta byte of entry `i`.
    #[inline]
    pub fn meta(&self, i: usize) -> u8 {
        (self.key[i] >> key::META_SHIFT) as u8
    }

    /// Replaces the meta byte of entry `i` (filter and sdid unchanged).
    #[inline]
    pub fn set_meta(&mut self, i: usize, m: u8) {
        self.key[i] = (self.key[i] & !key::META_MASK) | (u32::from(m) << key::META_SHIFT);
    }

    /// ORs `bits` into the meta byte of entry `i`.
    #[inline]
    pub fn meta_or(&mut self, i: usize, bits: u8) {
        self.key[i] |= u32::from(bits) << key::META_SHIFT;
    }

    /// ANDs the meta byte of entry `i` with `mask`.
    #[inline]
    pub fn meta_and(&mut self, i: usize, mask: u8) {
        self.key[i] &= (u32::from(mask) << key::META_SHIFT) | !key::META_MASK;
    }

    /// XORs `bits` into the meta byte of entry `i`.
    #[inline]
    pub fn meta_xor(&mut self, i: usize, bits: u8) {
        self.key[i] ^= u32::from(bits) << key::META_SHIFT;
    }

    /// The security-domain id of entry `i`.
    #[inline]
    pub fn sdid(&self, i: usize) -> u16 {
        self.key[i] as u16
    }

    /// Replaces the sdid of entry `i`.
    #[inline]
    pub fn set_sdid(&mut self, i: usize, d: u16) {
        self.key[i] = (self.key[i] & !key::SDID_MASK) | u32::from(d);
    }

    /// The line address of entry `i`.
    #[inline]
    pub fn tag(&self, i: usize) -> u64 {
        self.tag[i]
    }

    /// Writes the line address of entry `i`, keeping the filter byte
    /// coherent (meta and sdid unchanged).
    #[inline]
    pub fn set_tag(&mut self, i: usize, line: u64) {
        self.tag[i] = line;
        self.key[i] = (self.key[i] & !key::FILT_MASK) | Self::filt(line);
    }

    /// One-write install: tag, meta and sdid in a single store per lane
    /// (no read-modify-write of the key word).
    #[inline]
    pub fn install(&mut self, i: usize, line: u64, m: u8, sdid: u16) {
        self.tag[i] = line;
        self.key[i] = Self::filt(line) | (u32::from(m) << key::META_SHIFT) | u32::from(sdid);
    }

    /// Invalidates every entry by clearing its meta byte. Tags, filter
    /// bytes and sdids stay, so every filter byte still matches its tag.
    pub fn clear(&mut self) {
        for k in &mut self.key {
            *k &= !key::META_MASK;
        }
    }

    /// The packed key words of ways `[base, base + ways)` (for scans that
    /// need a custom predicate, e.g. Maya's priority-0 victim pick).
    #[inline]
    pub fn keys(&self, base: usize, ways: usize) -> &[u32] {
        &self.key[base..base + ways]
    }

    /// First way in `[base, base + ways)` holding a valid `line`, as a flat
    /// index. `mask` is [`key::MATCH_LINE`] to match in any domain or
    /// [`key::MATCH_LINE_SDID`] to match only entries of domain `sdid`.
    ///
    /// The scan reads only the key lane (filter byte, valid bit and sdid in
    /// one masked compare per way) and touches the tag lane solely to
    /// confirm filter hits, so a miss across a 16-way set costs one cache
    /// line. It matches exactly the ways a full compare
    /// (`valid && tag == line`, plus `sdid ==` under the sdid mask) would,
    /// in the same order: the filter byte is a pure function of the tag,
    /// so it only rejects ways whose tag already differs.
    #[inline]
    pub fn find_way(
        &self,
        base: usize,
        ways: usize,
        line: u64,
        sdid: u16,
        mask: u32,
    ) -> Option<usize> {
        let want = (Self::filt(line) | key::VALID | u32::from(sdid)) & mask;
        let keys = &self.key[base..base + ways];
        for (w, &k) in keys.iter().enumerate() {
            if k & mask == want && self.tag[base + w] == line {
                return Some(base + w);
            }
        }
        None
    }

    /// First invalid way in `[base, base + ways)`, as a flat index.
    #[inline]
    pub fn first_invalid(&self, base: usize, ways: usize) -> Option<usize> {
        self.key[base..base + ways]
            .iter()
            .position(|&k| k & key::VALID == 0)
            .map(|w| base + w)
    }

    /// Number of invalid ways in `[base, base + ways)`.
    #[inline]
    pub fn invalid_ways(&self, base: usize, ways: usize) -> usize {
        self.key[base..base + ways]
            .iter()
            .filter(|&&k| k & key::VALID == 0)
            .count()
    }
}
