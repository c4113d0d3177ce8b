//! The tag/data arena of the decoupled designs (Maya, Mirage): the
//! skewed tag store's [`SetStore`] plus everything only a decoupled store
//! needs (the tag-to-data links, the data slots and their free list,
//! Maya's priority-0 list and the presence filter).

use std::ops::Deref;

use crate::sets::{meta, SetStore};

/// Sentinel for "no pointer" in every arena lane.
pub(crate) const NONE: u32 = u32::MAX;

/// Struct-of-arrays tag/data arena of the decoupled designs (Maya,
/// Mirage).
///
/// The per-tag state is split into parallel lanes sized so the hot paths
/// touch as few distinct cache lines as possible — at multi-MB tag-store
/// geometries the randomized index functions make every access a cold
/// line, so lane count, not instruction count, is the cost model:
///
/// ```text
/// tag entry i:   key[i]  (u32: [filt | meta | sdid], in the SetStore)
///                tag[i]  (u64, line address, in the SetStore)
///                links[i] (u64: [!fptr (hi 32) | !p0_pos (lo 32)])
/// data entry d:  dslot[d] (u64: [rptr (u32) | pos-or-free-link (u32)])
/// allocated[p]:  (u64: [owner tag (hi 32) | data slot (lo 32)])
/// presence[w]:   (u64: sixteen 4-bit counters)
/// ```
///
/// * The `key` and `tag` lanes, their filter byte and their way scans are
///   the [`SetStore`]'s. Reads go straight to it (the arena derefs to its
///   store); every write goes through the arena's mutators, which keep
///   the presence filter counted and then delegate to the store.
/// * The `links` lane packs the forward data pointer and Maya's
///   priority-0 back-index, which are written together on every install
///   and eviction, into one line instead of two. Each half holds its
///   pointer inverted, so [`NONE`] is stored as 0 and construction and
///   reset zero-fill the lane.
/// * Each `allocated` entry carries its slot's owning tag beside the
///   slot, so a global data eviction names its victim tag with the one
///   load that draws the slot. The slot's `rptr` says the same, and the
///   audit checks that the two agree.
/// * The `presence` lane is a counting filter over valid lines (see the
///   field), read before any index derivation.
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
    /// Key and tag lanes of the skewed tag store.
    lines: SetStore,
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
            lines: SetStore::new(tag_entries),
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
        for i in 0..self.lines.tag_entries() {
            if self.lines.meta(i) & meta::VALID != 0 {
                self.presence_inc(self.lines.tag(i));
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
        for i in 0..self.lines.tag_entries() {
            if self.lines.meta(i) & meta::VALID != 0 {
                let (word, pick) = self.presence_pick(self.lines.tag(i));
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
        let line = self.lines.tag(i);
        let word = self
            .presence
            .get(self.presence_pick(line).0)
            .copied()
            .unwrap_or(0);
        std::hint::black_box((self.lines.meta(i), self.links[i], word));
    }

    /// Reads what releasing data slot `d` reads, and drops it: its own
    /// record and that of the slot the release moves into its place in
    /// `allocated` (see [`touch`](TagArena::touch)).
    #[inline]
    pub fn touch_slot(&self, d: u32) {
        let last = self.allocated.last().map_or(0, |&e| e as u32 as usize);
        std::hint::black_box((self.dslot[d as usize], self.dslot.get(last).copied()));
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
        self.lines.clear();
        self.presence.fill(0);
        self.links.fill(0);
        self.p0_list.clear();
        self.dslot.fill(SLOT_NONE);
        self.allocated.clear();
        self.rebuild_free_ascending(|_| true);
    }

    // --- key/tag-lane mutators (presence bookkeeping, then the store) -----

    /// Whether tag entry `i` is valid.
    #[inline]
    fn is_valid(&self, i: usize) -> bool {
        self.lines.meta(i) & meta::VALID != 0
    }

    /// Replaces the meta byte of tag entry `i` (filter and sdid unchanged).
    #[inline]
    pub fn set_meta(&mut self, i: usize, m: u8) {
        let now = m & meta::VALID != 0;
        if self.is_valid(i) != now {
            let line = self.lines.tag(i);
            if now {
                self.presence_inc(line);
            } else {
                self.presence_dec(line);
            }
        }
        self.lines.set_meta(i, m);
    }

    /// ORs `bits` into the meta byte of tag entry `i`.
    #[inline]
    pub fn meta_or(&mut self, i: usize, bits: u8) {
        self.set_meta(i, self.lines.meta(i) | bits);
    }

    /// ANDs the meta byte of tag entry `i` with `mask`.
    #[inline]
    pub fn meta_and(&mut self, i: usize, mask: u8) {
        self.set_meta(i, self.lines.meta(i) & mask);
    }

    /// XORs `bits` into the meta byte of tag entry `i`.
    #[inline]
    pub fn meta_xor(&mut self, i: usize, bits: u8) {
        self.set_meta(i, self.lines.meta(i) ^ bits);
    }

    /// Replaces the sdid of tag entry `i`.
    #[inline]
    pub fn set_sdid(&mut self, i: usize, d: u16) {
        self.lines.set_sdid(i, d);
    }

    /// Writes the line address of tag entry `i`, keeping the filter byte
    /// and the presence filter coherent. Every tag write — installs, fault
    /// injection — must come through here.
    #[inline]
    pub fn set_tag(&mut self, i: usize, line: u64) {
        if self.is_valid(i) {
            self.presence_dec(self.lines.tag(i));
            self.presence_inc(line);
        }
        self.lines.set_tag(i, line);
    }

    /// One-write install: tag, meta, and sdid in a single store per lane
    /// (no read-modify-write of the key word).
    #[inline]
    pub fn install_tag(&mut self, i: usize, line: u64, m: u8, sdid: u16) {
        if self.is_valid(i) {
            self.presence_dec(self.lines.tag(i));
        }
        if m & meta::VALID != 0 {
            self.presence_inc(line);
        }
        self.lines.install(i, line, m, sdid);
    }

    // --- links lane ---------------------------------------------------------

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
}

/// Reads of the key and tag lanes (`meta`, `tag`, `sdid`, `keys` and the
/// way scans) go straight to the store; only writes need the arena's
/// presence bookkeeping, and the store offers no mutable access through
/// this.
impl Deref for TagArena {
    type Target = SetStore;

    #[inline]
    fn deref(&self) -> &SetStore {
        &self.lines
    }
}
