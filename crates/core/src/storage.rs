//! Exact storage accounting for the three LLC designs (paper Table VIII).
//!
//! Every quantity is derived from first principles: a 46-bit physical
//! address (40-bit line address), MOESI coherence state, and pointer widths
//! sized as `ceil(log2(entries))`. The module reproduces the paper's
//! table bit-for-bit and generalizes to any geometry for sensitivity
//! studies.

use crate::maya::MayaConfig;
use crate::mirage::MirageConfig;

/// Sentinel for "no pointer" in every arena lane.
pub(crate) const NONE: u32 = u32::MAX;

/// Bit assignments for the arena's packed per-tag `meta` lane.
///
/// Each model uses the subset it needs: Maya encodes its `TagState` as
/// `Invalid = 0`, `Priority0 = VALID`, `Priority1Clean = VALID|DATA`,
/// `Priority1Dirty = VALID|DATA|DIRTY`, with `REUSED` tracking dead-block
/// accounting; Mirage uses `VALID|DATA` for every resident entry plus
/// `DIRTY`/`REUSED`.
pub(crate) mod meta {
    /// The entry holds a valid tag.
    pub const VALID: u8 = 1 << 0;
    /// The entry owns a data-store entry (its `fptr` lane is live).
    pub const DATA: u8 = 1 << 1;
    /// The data is dirty (must be written back on release).
    pub const DIRTY: u8 = 1 << 2;
    /// The data was re-referenced after its fill (dead-block accounting).
    pub const REUSED: u8 = 1 << 3;
}

/// Bit layout of the arena's packed per-tag `key` lane.
///
/// The three per-tag scalars the way scan needs — state bits, security
/// domain, and a tag-hash filter byte — share one `u32` so a 16-way set
/// scan reads exactly one 64-byte cache line:
///
/// ```text
/// bit 31        24 23        16 15                 0
///     [ filt (u8) | meta (u8)  |     sdid (u16)    ]
/// ```
pub(crate) mod key {
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

    /// True when a packed key word encodes Maya's priority-0 state
    /// (valid, no data; `DIRTY`/`REUSED` may ride alongside).
    #[inline]
    pub fn is_p0(k: u32) -> bool {
        k & (VALID | DATA) == VALID
    }
}

/// Struct-of-arrays tag/data arena shared by the decoupled designs
/// (Maya, Mirage).
///
/// The per-tag state is split into parallel lanes sized so the hot paths
/// touch as few distinct cache lines as possible — at multi-MB tag-store
/// geometries the randomized index functions make every access a cold
/// line, so lane count, not instruction count, is the cost model:
///
/// ```text
/// tag entry i:   key[i]  (u32: [filt | meta | sdid], see [`key`])
///                tag[i]  (u64, line address)
///                links[i] (u64: [!fptr (hi 32) | !p0_pos (lo 32)])
/// data entry d:  dslot[d] (u64: [rptr (u32) | pos-or-free-link (u32)])
/// allocated[p]:  (u64: [owner tag (hi 32) | data slot (lo 32)])
/// presence[w]:   (u64: sixteen 4-bit counters)
/// ```
///
/// * The `key` lane packs everything a way scan filters on into 4
///   bytes/way: a 16-way set is one 64-byte line. The filter byte is a
///   hash of the line address, so a non-matching way is rejected without
///   touching the 8-byte `tag` lane at all (the tag lane is read only on
///   filter hits — ~1/256 of non-matching valid ways — and on real hits).
/// * The `links` lane packs the forward data pointer and Maya's
///   priority-0 back-index, which are written together on every install
///   and eviction, into one line instead of two. Each half holds its
///   pointer inverted, so [`NONE`] is stored as 0 and the lane starts as
///   a zeroed allocation: an arena that never links (the set-associative
///   baseline's) costs no resident pages for it.
/// * Each `allocated` entry carries its slot's owning tag beside the
///   slot, so a global data eviction names its victim tag with the one
///   load that draws the slot. The slot's `rptr` says the same, and the
///   audit checks that the two agree.
/// * The `presence` lane is a counting filter over valid lines (see the
///   field), read before any index derivation.
///
/// All lane writes flow through accessors so the filter byte can never go
/// stale: [`set_tag`](TagArena::set_tag) rewrites it with the tag, and
/// state/sdid/pointer updates leave it alone. The packing is invisible to
/// behavior — scans reject exactly the ways the unpacked layout rejected,
/// in the same order, and no RNG is consulted anywhere in the arena.
///
/// The cold-start free list is *intrusive*: `free_head` plus each free
/// slot's [`DataSlot`] link word form a singly-linked LIFO whose pop
/// order reproduces the previous `Vec<u32>` stack exactly (construction
/// links `0,1,2,…` so pops ascend from zero; frees push at the head). The `allocated` list
/// stays a dense vector with the `data_pos` back-index because the global
/// random eviction policies need O(1) *positional* uniform sampling —
/// a linked list would change which victim a given RNG draw maps to.
#[derive(Debug, Clone)]
pub(crate) struct TagArena {
    /// Packed `[filt | meta | sdid]` word per tag entry (see [`key`]).
    key: Vec<u32>,
    /// Line address per tag entry (live when `meta & VALID`).
    tag: Vec<u64>,
    /// Packed `[!fptr | !p0_pos]` pointer pair per tag entry (inverted,
    /// so a zero half is `NONE`).
    links: Vec<u64>,
    /// Priority-0 tag indices, dense for O(1) uniform sampling (Maya).
    pub p0_list: Vec<u32>,
    /// Allocated data entries as `slot | owner << 32`, dense for O(1)
    /// uniform sampling (see [`TagArena::allocated_at`]).
    pub allocated: Vec<u64>,
    /// Per-data-slot record (see [`DataSlot`]): one 8-byte word per slot,
    /// so the random-slot bookkeeping of a global eviction or a data
    /// allocation touches a single cache line where the previous separate
    /// `rptr`/`data_pos`/`free_next` lanes took three.
    dslot: Vec<DataSlot>,
    /// Head of the intrusive free list (`NONE` when exhausted).
    free_head: u32,
    /// Number of entries on the free list.
    free_len: usize,
    /// Optional counting presence filter over valid lines (empty when
    /// disabled): 4-bit counters, sixteen to a `u64` word. A line maps to
    /// three distinct counters of one word (see
    /// [`presence_pick`](TagArena::presence_pick)), and each counter
    /// counts the valid tag entries whose line maps to it. A zero among a
    /// line's three counters *proves* the line absent, so a lookup can
    /// miss with one load of this lane instead of the index derivation
    /// plus one random key-lane line per skew. Counters saturate sticky at
    /// 15 (never decremented again), so saturation can only add false
    /// "maybe present" — never a false absent. Maintained inside the lane
    /// mutators; every validity or tag change flows through them, which
    /// `audit_presence` verifies.
    presence: Vec<u64>,
    /// `presence.len() - 1` (word mask; word count is a power of two).
    presence_mask: usize,
}

/// Bit 0 of each of a presence word's sixteen 4-bit counters.
const NIBBLE_LOW: u64 = 0x1111_1111_1111_1111;

/// Bit 0 of each counter of `w` that is nonzero.
#[inline]
fn nonzero_counters(w: u64) -> u64 {
    (w | w >> 1 | w >> 2 | w >> 3) & NIBBLE_LOW
}

/// Bit 0 of each counter of `w` that is saturated (15).
#[inline]
fn saturated_counters(w: u64) -> u64 {
    w & w >> 1 & w >> 2 & w >> 3 & NIBBLE_LOW
}

/// Packed per-data-slot bookkeeping: the reverse pointer plus a dual-use
/// link word in 8 bytes.
///
/// `link` holds the back-index into `allocated` while the slot is
/// allocated and the next free-list pointer while it is free — the two
/// lifetimes are disjoint (the old `data_pos` lane was `NONE` exactly
/// when `free_next` was live and vice versa), so the previously separate
/// lanes collapse into one word with no loss of state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DataSlot {
    /// Owning tag index while allocated; `NONE` while free.
    rptr: u32,
    /// Back-index into `allocated` (allocated) or next free link (free).
    link: u32,
}

/// The `allocated` entry of data slot `d` owned by tag `t`.
#[inline]
fn owned(d: u32, t: u32) -> u64 {
    u64::from(d) | u64::from(t) << 32
}

/// An unbound data slot (no owner, no links).
const SLOT_NONE: DataSlot = DataSlot {
    rptr: NONE,
    link: NONE,
};

impl TagArena {
    /// An arena for `tag_entries` tags over `data_entries` data slots, all
    /// invalid, with the free list linked in ascending order (so pops
    /// yield `0, 1, 2, …` — the same order the previous
    /// `(0..n).rev().collect()` stack popped).
    pub fn new(tag_entries: usize, data_entries: usize) -> Self {
        let mut a = Self {
            key: vec![0; tag_entries],
            tag: vec![0; tag_entries],
            links: vec![0; tag_entries],
            p0_list: Vec::new(),
            allocated: Vec::with_capacity(data_entries),
            dslot: vec![SLOT_NONE; data_entries],
            free_head: NONE,
            free_len: 0,
            presence: Vec::new(),
            presence_mask: 0,
        };
        a.rebuild_free_ascending(|_| true);
        a
    }

    /// Enables the counting presence filter with `counters` 4-bit
    /// counters (a power of two, at least 16), rebuilding it from the
    /// arena's current valid entries. Purely an access-path accelerator:
    /// lookups behave identically with or without it.
    pub fn enable_presence(&mut self, counters: usize) {
        assert!(
            counters.is_power_of_two() && counters >= 16,
            "presence counters must be 2^k, at least 16"
        );
        self.presence = vec![0; counters / 16];
        self.presence_mask = counters / 16 - 1;
        for i in 0..self.key.len() {
            if self.key[i] & key::VALID != 0 {
                self.presence_inc(self.tag[i]);
            }
        }
    }

    /// `line`'s presence word, and bit 0 of each of its three counters in
    /// that word. Two multiplicative hashes, drawing different bits than
    /// the key lane's filter byte so the two reject independently: one
    /// picks the word, the other three distinct counters of its sixteen.
    #[inline]
    fn presence_pick(&self, line: u64) -> (usize, u64) {
        let word = ((line.wrapping_mul(0xd6e8_feb8_6659_fd93) >> 30) as usize) & self.presence_mask;
        let g = line.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let a = (g >> 60) as u32;
        let b = (a + 1 + ((((g >> 40) & 0xFFFF) * 15) >> 16) as u32) & 15;
        // The c-th of the 14 counters that are neither a nor b.
        let mut c = ((((g >> 24) & 0xFFFF) * 14) >> 16) as u32;
        c += u32::from(c >= a.min(b));
        c += u32::from(c >= a.max(b));
        (word, 1 << (4 * a) | 1 << (4 * b) | 1 << (4 * c))
    }

    #[inline]
    fn presence_inc(&mut self, line: u64) {
        if self.presence.is_empty() {
            return;
        }
        let (word, pick) = self.presence_pick(line);
        let w = &mut self.presence[word];
        // Sticky saturation: a counter that ever reaches 15 is pinned
        // there (decrements skip it too), so overflow degrades precision,
        // never correctness. No chosen counter carries into the next.
        *w += pick & !saturated_counters(*w);
    }

    #[inline]
    fn presence_dec(&mut self, line: u64) {
        if self.presence.is_empty() {
            return;
        }
        let (word, pick) = self.presence_pick(line);
        let w = &mut self.presence[word];
        debug_assert_eq!(
            nonzero_counters(*w) & pick,
            pick,
            "presence counter underflow"
        );
        *w -= pick & !saturated_counters(*w);
    }

    /// False only when the filter *proves* no valid entry holds `line`
    /// (always true while the filter is disabled).
    #[inline]
    pub fn maybe_present(&self, line: u64) -> bool {
        if self.presence.is_empty() {
            return true;
        }
        let (word, pick) = self.presence_pick(line);
        nonzero_counters(self.presence[word]) & pick == pick
    }

    /// Verifies the presence filter against a ground-truth recount; part
    /// of the structural audit, catching any validity transition that
    /// bypassed the counting hooks.
    pub fn audit_presence(&self) -> Result<(), String> {
        if self.presence.is_empty() {
            return Ok(());
        }
        let mut expect = vec![0u64; self.presence.len() * 16];
        for i in 0..self.key.len() {
            if self.key[i] & key::VALID != 0 {
                let (word, pick) = self.presence_pick(self.tag[i]);
                for n in 0..16 {
                    if pick >> (4 * n) & 1 != 0 {
                        expect[word * 16 + n] += 1;
                    }
                }
            }
        }
        for (c, &want) in expect.iter().enumerate() {
            let have = self.presence[c / 16] >> (4 * (c % 16)) & 15;
            if have == 15 {
                // A sticky-saturated counter may overcount, never under;
                // its exact value is unverifiable by recount.
                continue;
            }
            if have != want {
                return Err(format!(
                    "presence filter counter {c} holds {have} but {want} valid lines map there"
                ));
            }
        }
        Ok(())
    }

    /// Reads what a global eviction of tag `i` reads, and drops it: the
    /// key, tag and links words and the presence word of its line. Issued
    /// ahead of unrelated work, the loads' host-cache misses overlap that
    /// work instead of following it.
    #[inline]
    pub fn touch(&self, i: usize) {
        let line = self.tag[i];
        let word = self
            .presence
            .get(self.presence_pick(line).0)
            .copied()
            .unwrap_or(0);
        std::hint::black_box((self.key[i], self.links[i], word));
    }

    /// Reads what releasing data slot `d` reads, and drops it: its own
    /// record and that of the slot the release moves into its place in
    /// `allocated` (see [`touch`](TagArena::touch)).
    #[inline]
    pub fn touch_slot(&self, d: u32) {
        let last = self.allocated.last().map_or(0, |&e| e as u32 as usize);
        std::hint::black_box((self.dslot[d as usize], self.dslot.get(last).copied()));
    }

    /// Number of tag entries.
    pub fn tag_entries(&self) -> usize {
        self.key.len()
    }

    /// Number of data slots (free + allocated).
    pub fn data_entries(&self) -> usize {
        self.dslot.len()
    }

    /// The owning tag index of data slot `d` (`NONE` while free).
    #[inline]
    pub fn rptr(&self, d: usize) -> u32 {
        self.dslot[d].rptr
    }

    /// The data slot and owning tag of `allocated[pos]`.
    #[inline]
    pub fn allocated_at(&self, pos: usize) -> (u32, usize) {
        let e = self.allocated[pos];
        (e as u32, (e >> 32) as usize)
    }

    /// The back-index of *allocated* data slot `d` into `allocated`.
    /// While `d` is free this word holds its free-list link instead.
    #[inline]
    pub fn data_pos(&self, d: usize) -> u32 {
        self.dslot[d].link
    }

    /// Rebinds data slot `d` to tag `t` at the tail of `allocated`
    /// (quarantine rebuild; the free list is relinked separately).
    pub fn slot_adopt(&mut self, d: usize, t: u32) {
        self.dslot[d] = DataSlot {
            rptr: t,
            link: self.allocated.len() as u32,
        };
        self.allocated.push(owned(d as u32, t));
    }

    /// Clears data slot `d`'s record (quarantine rebuild).
    pub fn slot_clear(&mut self, d: usize) {
        self.dslot[d] = SLOT_NONE;
    }

    /// Resets every tag to invalid and every data slot to free, relinking
    /// the free list in ascending order. Equivalent to the old layout's
    /// `flush_all` rebuild; touches no RNG.
    pub fn reset(&mut self) {
        self.key.fill(0);
        self.presence.fill(0);
        self.links.fill(0);
        self.p0_list.clear();
        self.dslot.fill(SLOT_NONE);
        self.allocated.clear();
        self.rebuild_free_ascending(|_| true);
    }

    // --- packed-lane accessors ---------------------------------------------

    /// Filter byte for `line`, pre-shifted into key-word position. A cheap
    /// multiplicative hash of the *whole* line address: two lines that
    /// collide in a set under a randomized index function almost never
    /// share a filter byte, so set scans reject them from the key lane
    /// alone. Deterministic — no keys, no RNG — and recomputed on every
    /// tag write, so it can never disagree with the stored tag.
    #[inline]
    fn filt(line: u64) -> u32 {
        (((line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u32) << key::FILT_SHIFT)
            & key::FILT_MASK
    }

    /// The meta byte of tag entry `i`.
    #[inline]
    pub fn meta(&self, i: usize) -> u8 {
        (self.key[i] >> key::META_SHIFT) as u8
    }

    /// Replaces the meta byte of tag entry `i` (filter and sdid unchanged).
    #[inline]
    pub fn set_meta(&mut self, i: usize, m: u8) {
        let was = self.key[i] & key::VALID != 0;
        let now = m & meta::VALID != 0;
        if was != now {
            let line = self.tag[i];
            if now {
                self.presence_inc(line);
            } else {
                self.presence_dec(line);
            }
        }
        self.key[i] = (self.key[i] & !key::META_MASK) | ((m as u32) << key::META_SHIFT);
    }

    /// ORs `bits` into the meta byte of tag entry `i`.
    #[inline]
    pub fn meta_or(&mut self, i: usize, bits: u8) {
        if bits & meta::VALID != 0 && self.key[i] & key::VALID == 0 {
            self.presence_inc(self.tag[i]);
        }
        self.key[i] |= (bits as u32) << key::META_SHIFT;
    }

    /// ANDs the meta byte of tag entry `i` with `mask`.
    #[inline]
    pub fn meta_and(&mut self, i: usize, mask: u8) {
        if mask & meta::VALID == 0 && self.key[i] & key::VALID != 0 {
            self.presence_dec(self.tag[i]);
        }
        self.key[i] &= ((mask as u32) << key::META_SHIFT) | !key::META_MASK;
    }

    /// XORs `bits` into the meta byte of tag entry `i`.
    #[inline]
    pub fn meta_xor(&mut self, i: usize, bits: u8) {
        if bits & meta::VALID != 0 {
            let line = self.tag[i];
            if self.key[i] & key::VALID != 0 {
                self.presence_dec(line);
            } else {
                self.presence_inc(line);
            }
        }
        self.key[i] ^= (bits as u32) << key::META_SHIFT;
    }

    /// The security-domain id of tag entry `i`.
    #[inline]
    pub fn sdid(&self, i: usize) -> u16 {
        self.key[i] as u16
    }

    /// Replaces the sdid of tag entry `i`.
    #[inline]
    pub fn set_sdid(&mut self, i: usize, d: u16) {
        self.key[i] = (self.key[i] & !key::SDID_MASK) | d as u32;
    }

    /// The line address of tag entry `i`.
    #[inline]
    pub fn tag(&self, i: usize) -> u64 {
        self.tag[i]
    }

    /// Writes the line address of tag entry `i`, keeping the filter byte
    /// coherent. Every tag write — installs, fault injection — must come
    /// through here.
    #[inline]
    pub fn set_tag(&mut self, i: usize, line: u64) {
        if self.key[i] & key::VALID != 0 {
            self.presence_dec(self.tag[i]);
            self.presence_inc(line);
        }
        self.tag[i] = line;
        self.key[i] = (self.key[i] & !key::FILT_MASK) | Self::filt(line);
    }

    /// One-write install: tag, meta, and sdid in a single store per lane
    /// (no read-modify-write of the key word).
    #[inline]
    pub fn install_tag(&mut self, i: usize, line: u64, m: u8, sdid: u16) {
        if self.key[i] & key::VALID != 0 {
            self.presence_dec(self.tag[i]);
        }
        if m & meta::VALID != 0 {
            self.presence_inc(line);
        }
        self.tag[i] = line;
        self.key[i] = Self::filt(line) | ((m as u32) << key::META_SHIFT) | sdid as u32;
    }

    /// The packed key words of ways `[base, base + ways)` (for scans that
    /// need a custom predicate, e.g. Maya's priority-0 victim pick).
    #[inline]
    pub fn keys(&self, base: usize, ways: usize) -> &[u32] {
        &self.key[base..base + ways]
    }

    /// The forward data pointer of tag entry `i` (`NONE` when absent).
    #[inline]
    pub fn fptr(&self, i: usize) -> u32 {
        !((self.links[i] >> 32) as u32)
    }

    /// Replaces the forward data pointer of tag entry `i`.
    #[inline]
    pub fn set_fptr(&mut self, i: usize, v: u32) {
        self.links[i] = (self.links[i] & 0xFFFF_FFFF) | (u64::from(!v) << 32);
    }

    /// The priority-0 back-index of tag entry `i` (`NONE` when absent).
    #[inline]
    pub fn p0_pos(&self, i: usize) -> u32 {
        !(self.links[i] as u32)
    }

    /// Replaces the priority-0 back-index of tag entry `i`.
    #[inline]
    pub fn set_p0_pos(&mut self, i: usize, v: u32) {
        self.links[i] = (self.links[i] & !0xFFFF_FFFFu64) | u64::from(!v);
    }

    // --- intrusive free list ------------------------------------------------

    /// True when no data slot is free.
    pub fn free_is_empty(&self) -> bool {
        self.free_head == NONE
    }

    /// Number of free data slots.
    pub fn free_len(&self) -> usize {
        self.free_len
    }

    /// Pops the head of the free list (LIFO, like the old `Vec` stack).
    pub fn free_pop(&mut self) -> Option<u32> {
        if self.free_head == NONE {
            return None;
        }
        let d = self.free_head;
        self.free_head = self.dslot[d as usize].link;
        self.dslot[d as usize].link = NONE;
        self.free_len -= 1;
        Some(d)
    }

    /// Pushes `d` at the head of the free list (LIFO).
    pub fn free_push(&mut self, d: u32) {
        self.dslot[d as usize].link = self.free_head;
        self.free_head = d;
        self.free_len += 1;
    }

    /// Relinks the free list over exactly the slots `is_free` selects, in
    /// ascending order — reproducing the pop order of the old
    /// `(0..n).rev().filter(is_free).collect()` stack.
    pub fn rebuild_free_ascending(&mut self, is_free: impl Fn(usize) -> bool) {
        self.free_head = NONE;
        self.free_len = 0;
        let mut tail = NONE;
        for d in 0..self.dslot.len() {
            if !is_free(d) {
                // An allocated slot's link word is its live back-index —
                // leave it alone.
                continue;
            }
            if tail == NONE {
                self.free_head = d as u32;
            } else {
                self.dslot[tail as usize].link = d as u32;
            }
            self.dslot[d].link = NONE;
            tail = d as u32;
            self.free_len += 1;
        }
    }

    /// Walks the free list, calling `f` for each member. Returns an error
    /// if the chain's length disagrees with `free_len` (a cycle or a
    /// truncated chain) before `f`'s own checks get a chance to object.
    pub fn free_for_each(
        &self,
        mut f: impl FnMut(u32) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut seen = 0usize;
        let mut d = self.free_head;
        while d != NONE {
            if seen >= self.dslot.len() {
                return Err(format!(
                    "free list cycles: walked {seen} links with only {} data entries",
                    self.dslot.len()
                ));
            }
            f(d)?;
            seen += 1;
            d = self.dslot[d as usize].link;
        }
        if seen != self.free_len {
            return Err(format!(
                "free list length drifted: chain has {seen} entries but free_len is {}",
                self.free_len
            ));
        }
        Ok(())
    }

    // --- data-store bookkeeping --------------------------------------------

    /// Allocates a data slot for `tag_idx`: pops the free list (slot 0 if
    /// exhausted — callers evict first; reachable only under fault
    /// injection, left for `audit()` to flag) and appends to `allocated`.
    pub fn data_alloc(&mut self, tag_idx: usize) -> u32 {
        let d = self.free_pop().unwrap_or(0);
        self.dslot[d as usize] = DataSlot {
            rptr: tag_idx as u32,
            link: self.allocated.len() as u32,
        };
        self.allocated.push(owned(d, tag_idx as u32));
        d
    }

    /// Releases data slot `d` back to the free list (swap-remove from
    /// `allocated`, back-index repair, head push). Returns `false` without
    /// touching anything when `allocated` is empty — a double free,
    /// reachable only under fault injection.
    pub fn data_free(&mut self, d: u32) -> bool {
        let pos = self.dslot[d as usize].link as usize;
        let Some(&last) = self.allocated.last() else {
            return false;
        };
        self.allocated.swap_remove(pos);
        if pos < self.allocated.len() {
            self.dslot[last as u32 as usize].link = pos as u32;
        }
        self.dslot[d as usize].rptr = NONE;
        self.free_push(d);
        true
    }

    // --- priority-0 list (Maya) --------------------------------------------

    /// Appends tag `tag_idx` to the priority-0 list.
    pub fn p0_insert(&mut self, tag_idx: usize) {
        self.set_p0_pos(tag_idx, self.p0_list.len() as u32);
        self.p0_list.push(tag_idx as u32);
    }

    /// Swap-removes tag `tag_idx` from the priority-0 list, repairing the
    /// moved entry's back-index.
    pub fn p0_remove(&mut self, tag_idx: usize) {
        let pos = self.p0_pos(tag_idx) as usize;
        debug_assert_eq!(self.p0_list[pos], tag_idx as u32);
        self.p0_list.swap_remove(pos);
        if pos < self.p0_list.len() {
            let moved = self.p0_list[pos] as usize;
            self.set_p0_pos(moved, pos as u32);
        }
        self.set_p0_pos(tag_idx, NONE);
    }

    // --- hot scans ----------------------------------------------------------

    /// First way in `[base, base + ways)` holding a valid `(line, sdid)`
    /// entry. The scan reads only the packed key lane — filter byte, valid
    /// bit, and sdid in one masked compare per way — and touches the tag
    /// lane solely to confirm filter hits, so a miss across a 16-way set
    /// costs one cache line. Matches exactly the ways the unpacked layout
    /// matched (`tag == line && valid && sdid ==`), in the same order: the
    /// filter byte is a pure function of the tag, so it can only reject
    /// ways whose tag already differs.
    #[inline]
    pub fn find_way(&self, base: usize, ways: usize, line: u64, sdid: u16) -> Option<usize> {
        let want = Self::filt(line) | key::VALID | sdid as u32;
        const MASK: u32 = key::FILT_MASK | key::VALID | key::SDID_MASK;
        let keys = &self.key[base..base + ways];
        for (w, &k) in keys.iter().enumerate() {
            if k & MASK == want && self.tag[base + w] == line {
                return Some(base + w);
            }
        }
        None
    }

    /// First way in `[base, base + ways)` holding a valid `line`,
    /// regardless of domain — for set-associative caches, whose isolation
    /// comes from partitioning rather than the sdid lane.
    #[inline]
    pub fn find_way_any(&self, base: usize, ways: usize, line: u64) -> Option<usize> {
        let want = Self::filt(line) | key::VALID;
        const MASK: u32 = key::FILT_MASK | key::VALID;
        let keys = &self.key[base..base + ways];
        for (w, &k) in keys.iter().enumerate() {
            if k & MASK == want && self.tag[base + w] == line {
                return Some(base + w);
            }
        }
        None
    }

    /// Number of invalid ways in `[base, base + ways)`.
    #[inline]
    pub fn invalid_ways(&self, base: usize, ways: usize) -> usize {
        self.key[base..base + ways]
            .iter()
            .filter(|&&k| k & key::VALID == 0)
            .count()
    }

    /// First invalid way in `[base, base + ways)`, as a flat index.
    #[inline]
    pub fn first_invalid(&self, base: usize, ways: usize) -> Option<usize> {
        self.key[base..base + ways]
            .iter()
            .position(|&k| k & key::VALID == 0)
            .map(|w| base + w)
    }
}

/// Line-address width: 46-bit physical addresses, 64-byte lines.
pub const LINE_ADDR_BITS: u32 = 40;
/// MOESI coherence state bits.
pub const COHERENCE_BITS: u32 = 3;
/// Data payload bits (64-byte line).
pub const DATA_BITS: u32 = 512;
/// SDID width (256 security domains).
pub const SDID_BITS: u32 = 8;

/// Bits needed to index `entries` items.
fn pointer_bits(entries: usize) -> u32 {
    usize::BITS - (entries - 1).leading_zeros()
}

/// Per-design storage breakdown, in the same shape as Table VIII.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageReport {
    /// Design name.
    pub design: &'static str,
    /// Address tag bits per tag entry.
    pub tag_bits: u32,
    /// Coherence bits per tag entry.
    pub coherence_bits: u32,
    /// Priority bits per tag entry (Maya only).
    pub priority_bits: u32,
    /// Forward-pointer bits per tag entry (decoupled designs only).
    pub fptr_bits: u32,
    /// SDID bits per tag entry (secure designs only).
    pub sdid_bits: u32,
    /// Number of tag entries.
    pub tag_entries: usize,
    /// Data payload bits per data entry.
    pub data_bits: u32,
    /// Reverse-pointer bits per data entry (decoupled designs only).
    pub rptr_bits: u32,
    /// Number of data entries.
    pub data_entries: usize,
}

impl StorageReport {
    /// Total bits per tag entry.
    pub fn tag_entry_bits(&self) -> u32 {
        self.tag_bits + self.coherence_bits + self.priority_bits + self.fptr_bits + self.sdid_bits
    }

    /// Total bits per data entry.
    pub fn data_entry_bits(&self) -> u32 {
        self.data_bits + self.rptr_bits
    }

    /// Tag store size in KB (1 KB = 8192 bits).
    pub fn tag_store_kb(&self) -> f64 {
        (self.tag_entries as f64 * f64::from(self.tag_entry_bits())) / 8192.0
    }

    /// Data store size in KB.
    pub fn data_store_kb(&self) -> f64 {
        (self.data_entries as f64 * f64::from(self.data_entry_bits())) / 8192.0
    }

    /// Total storage (tag + data) in KB.
    pub fn total_kb(&self) -> f64 {
        self.tag_store_kb() + self.data_store_kb()
    }

    /// Storage overhead relative to another design (e.g. the baseline);
    /// positive means this design is larger.
    pub fn overhead_vs(&self, other: &StorageReport) -> f64 {
        self.total_kb() / other.total_kb() - 1.0
    }

    /// The non-secure set-associative baseline.
    pub fn baseline(sets: usize, ways: usize) -> Self {
        let entries = sets * ways;
        Self {
            design: "baseline",
            tag_bits: LINE_ADDR_BITS - pointer_bits(sets),
            coherence_bits: COHERENCE_BITS,
            priority_bits: 0,
            fptr_bits: 0,
            sdid_bits: 0,
            tag_entries: entries,
            data_bits: DATA_BITS,
            rptr_bits: 0,
            data_entries: entries,
        }
    }

    /// The Mirage design for a given geometry.
    pub fn mirage(config: &MirageConfig) -> Self {
        let tag_entries = config.sets_per_skew * config.skews * config.ways_per_skew();
        let data_entries = config.data_entries();
        Self {
            design: "mirage",
            tag_bits: LINE_ADDR_BITS,
            coherence_bits: COHERENCE_BITS,
            priority_bits: 0,
            fptr_bits: pointer_bits(data_entries),
            sdid_bits: SDID_BITS,
            tag_entries,
            data_bits: DATA_BITS,
            rptr_bits: pointer_bits(tag_entries),
            data_entries,
        }
    }

    /// The Maya design for a given geometry.
    pub fn maya(config: &MayaConfig) -> Self {
        let tag_entries = config.tag_entries();
        let data_entries = config.data_entries();
        Self {
            design: "maya",
            tag_bits: LINE_ADDR_BITS,
            coherence_bits: COHERENCE_BITS,
            priority_bits: 1,
            fptr_bits: pointer_bits(data_entries),
            sdid_bits: SDID_BITS,
            tag_entries,
            data_bits: DATA_BITS,
            rptr_bits: pointer_bits(tag_entries),
            data_entries,
        }
    }
}

/// The paper's Table VIII configurations for the 8-core, 16 MB-baseline
/// system: `(baseline, mirage, maya)`.
pub fn table_viii_reports() -> (StorageReport, StorageReport, StorageReport) {
    let baseline = StorageReport::baseline(16 * 1024, 16);
    let mirage = StorageReport::mirage(&MirageConfig::for_data_entries(256 * 1024, 0));
    let maya = StorageReport::maya(&MayaConfig::default_12mb(0));
    (baseline, mirage, maya)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_bits_round_up() {
        assert_eq!(pointer_bits(2), 1);
        assert_eq!(pointer_bits(196_608), 18);
        assert_eq!(pointer_bits(262_144), 18);
        assert_eq!(pointer_bits(262_145), 19);
        assert_eq!(pointer_bits(458_752), 19);
        assert_eq!(pointer_bits(491_520), 19);
    }

    #[test]
    fn baseline_matches_table_viii() {
        let b = StorageReport::baseline(16 * 1024, 16);
        assert_eq!(b.tag_bits, 26);
        assert_eq!(b.tag_entry_bits(), 29);
        assert_eq!(b.tag_entries, 262_144);
        assert_eq!(b.tag_store_kb(), 928.0);
        assert_eq!(b.data_entry_bits(), 512);
        assert_eq!(b.data_store_kb(), 16_384.0);
        assert_eq!(b.total_kb(), 17_312.0);
    }

    #[test]
    fn mirage_matches_table_viii() {
        let m = StorageReport::mirage(&MirageConfig::for_data_entries(256 * 1024, 0));
        assert_eq!(m.tag_entry_bits(), 69);
        assert_eq!(m.tag_entries, 458_752);
        assert_eq!(m.tag_store_kb(), 3_864.0);
        assert_eq!(m.data_entry_bits(), 531);
        assert_eq!(m.data_entries, 262_144);
        assert_eq!(m.data_store_kb(), 16_992.0);
        assert_eq!(m.total_kb(), 20_856.0);
    }

    #[test]
    fn maya_matches_table_viii() {
        let m = StorageReport::maya(&MayaConfig::default_12mb(0));
        assert_eq!(m.tag_entry_bits(), 70);
        assert_eq!(m.tag_entries, 491_520);
        assert_eq!(m.tag_store_kb(), 4_200.0);
        assert_eq!(m.data_entry_bits(), 531);
        assert_eq!(m.data_entries, 196_608);
        assert_eq!(m.data_store_kb(), 12_744.0);
        // The paper's Table VIII prints 16994 KB, but its own components sum
        // to 4200 + 12744 = 16944 KB; we match the components.
        assert_eq!(m.total_kb(), 16_944.0);
    }

    #[test]
    fn overheads_match_paper_headline_numbers() {
        let (b, mirage, maya) = table_viii_reports();
        // Mirage: +20%; Maya: −2% (paper rounds both).
        assert!((mirage.overhead_vs(&b) - 0.2047).abs() < 0.001);
        assert!((maya.overhead_vs(&b) - (-0.0213)).abs() < 0.001);
    }
}
