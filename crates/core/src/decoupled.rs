//! The decoupled tag/data store shared by Maya and Mirage.
//!
//! Maya keeps MIRAGE's decoupled organisation: a skewed tag store behind a
//! keyed index function with load-aware fills, a data store whose entries
//! are linked to their tags by forward/reverse pointers, and global random
//! eviction over the whole data store. [`DecoupledStore`] owns that shared
//! part: the geometry, the index function, the [`TagArena`], the
//! [`Recorder`], the replacement RNG and the profiler, plus the operations
//! both designs run the same way — lookup, the recording of an evicted
//! tag, the random data-slot draw, the data-store half of the audit, the
//! pointer, tag-bit and interrupted-re-key faults, and the data-store
//! rebuild that ends a quarantine.
//!
//! Each design keeps its own policy on top. Maya has its priority-0 and
//! priority-1 states, the priority-0 list with global tag eviction,
//! promotion, prefetch handling, an N-skew reservoir skew pick and a
//! priority-0-preferring SAE victim. Mirage has its two-skew fill pick and
//! random-way SAE victim.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use maya_obs::{Component, EvictionCause, ProfileHandle};
use prince_cipher::{IndexFunction, DEFAULT_MEMO_SLOTS, MAX_SKEWS};

use crate::cache::stuck_tag_bit;
use crate::storage::{meta, TagArena, NONE};
use crate::types::{DomainId, Recorder, Victim, Writebacks};

/// The tag/data store, index function, recorder, replacement RNG and
/// profiler of one decoupled design.
#[derive(Debug, Clone)]
pub(crate) struct DecoupledStore {
    pub(crate) skews: usize,
    pub(crate) sets_per_skew: usize,
    pub(crate) ways_per_skew: usize,
    pub(crate) index: IndexFunction,
    /// Struct-of-arrays tag/data store (see [`crate::storage`]).
    pub(crate) arena: TagArena,
    pub(crate) rec: Recorder,
    pub(crate) rng: SmallRng,
    pub(crate) profiler: ProfileHandle,
}

/// One line's candidate set per skew, derived at most once per access.
///
/// The caller keeps it on its stack: the lookup derives the sets into it
/// and a fill after a miss reads them back, instead of deriving them again.
/// The buffer is written only when derived, so a lookup the presence
/// filter answers costs no stores to it.
pub(crate) struct CandidateSets {
    line: u64,
    sets: Option<[usize; MAX_SKEWS]>,
}

impl CandidateSets {
    /// Not yet derived candidate sets of `line`.
    #[inline]
    pub(crate) fn new(line: u64) -> Self {
        Self { line, sets: None }
    }

    /// The line whose candidate sets these are.
    #[inline]
    pub(crate) fn line(&self) -> u64 {
        self.line
    }
}

/// A uniformly random allocated data slot and the tag its reverse pointer
/// names, drawn from `rng`. Panics when nothing is allocated.
fn draw_allocated(arena: &TagArena, rng: &mut SmallRng) -> (u32, usize) {
    let d = arena.allocated[rng.gen_range(0..arena.allocated.len())];
    (d, arena.rptr(d as usize) as usize)
}

impl DecoupledStore {
    /// An empty store of `skews` skews of `sets_per_skew` sets, each
    /// `ways_per_skew` tags wide, over `data_entries` data slots. The
    /// index function is keyed by `seed`, the replacement RNG by
    /// `seed ^ rng_salt`.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two.
    pub(crate) fn new(
        skews: usize,
        sets_per_skew: usize,
        ways_per_skew: usize,
        data_entries: usize,
        seed: u64,
        rng_salt: u64,
    ) -> Self {
        assert!(
            sets_per_skew.is_power_of_two(),
            "sets must be a power of two"
        );
        Self {
            skews,
            sets_per_skew,
            ways_per_skew,
            index: IndexFunction::from_seed(seed, skews, sets_per_skew)
                .with_memo(DEFAULT_MEMO_SLOTS),
            arena: TagArena::new(skews * sets_per_skew * ways_per_skew, data_entries),
            rec: Recorder::default(),
            rng: SmallRng::seed_from_u64(seed ^ rng_salt),
            profiler: ProfileHandle::none(),
        }
    }

    /// Re-keys the index function and flushes the store (the response to
    /// an SAE).
    pub(crate) fn rekey(&mut self, new_seed: u64) {
        // A fresh IndexFunction starts with an empty memo, so no old-epoch
        // translation can survive the re-key.
        self.index = IndexFunction::from_seed(new_seed, self.skews, self.sets_per_skew)
            .with_memo(DEFAULT_MEMO_SLOTS);
        // The rebuilt index starts with a bare handle; re-attach so the
        // new epoch's PRINCE work keeps landing in the same span tree.
        self.index.set_profiler(self.profiler.clone());
        self.flush_all();
        self.rec.rekey(0);
    }

    /// Invalidates every tag and frees every data slot.
    pub(crate) fn flush_all(&mut self) {
        self.arena.reset();
        self.rec.flush_all();
    }

    /// Attaches `profiler` to the store and its index function.
    pub(crate) fn set_profiler(&mut self, profiler: ProfileHandle) {
        self.profiler = profiler.clone();
        self.index.set_profiler(profiler);
    }

    /// Flat index of way 0 of `set` in `skew`.
    #[inline]
    pub(crate) fn base(&self, skew: usize, set: usize) -> usize {
        (skew * self.sets_per_skew + set) * self.ways_per_skew
    }

    /// `(skew, set)` a flat tag index belongs to (inverse of [`base`]).
    ///
    /// [`base`]: DecoupledStore::base
    #[inline]
    pub(crate) fn home_of(&self, i: usize) -> (usize, usize) {
        let skew = i / (self.sets_per_skew * self.ways_per_skew);
        let set = (i / self.ways_per_skew) % self.sets_per_skew;
        (skew, set)
    }

    /// Whether tag entry `i` is valid.
    #[inline]
    pub(crate) fn valid(&self, i: usize) -> bool {
        self.arena.meta(i) & meta::VALID != 0
    }

    /// Whether tag entry `i`'s data has been re-referenced since its fill.
    #[inline]
    pub(crate) fn reused(&self, i: usize) -> bool {
        self.arena.meta(i) & meta::REUSED != 0
    }

    /// `c`'s line's candidate set in each skew (one slot per skew),
    /// derived on the first call for `c` and read back after that.
    #[inline]
    pub(crate) fn candidate_sets<'c>(&self, c: &'c mut CandidateSets) -> &'c [usize] {
        if c.sets.is_none() {
            let _derive = self.profiler.span(Component::IndexDerive);
            // Derive in place: building the array elsewhere and moving it
            // in would copy all `MAX_SKEWS` slots.
            let sets = c.sets.insert([0; MAX_SKEWS]);
            self.index.set_indices_into(c.line, &mut sets[..self.skews]);
        }
        c.sets.as_ref().map_or(&[], |sets| &sets[..self.skews])
    }

    /// The valid tag holding `line` for `domain`, if any.
    pub(crate) fn find(&self, line: u64, domain: DomainId) -> Option<usize> {
        self.find_in(&mut CandidateSets::new(line), domain)
    }

    /// The valid tag holding `c`'s line for `domain`, if any. Derives the
    /// candidate sets into `c` unless the presence filter proves a miss,
    /// so a fill after a miss reuses them.
    pub(crate) fn find_in(&self, c: &mut CandidateSets, domain: DomainId) -> Option<usize> {
        // A zero presence counter proves no valid entry holds the line (in
        // any domain): miss with one filter touch instead of deriving the
        // indices and scanning a random key-lane line per skew. Without a
        // filter every line may be present.
        if !self.arena.maybe_present(c.line) {
            return None;
        }
        let line = c.line;
        for (skew, &set) in self.candidate_sets(c).iter().enumerate() {
            let base = self.base(skew, set);
            if let Some(i) = self
                .arena
                .find_way(base, self.ways_per_skew, line, domain.0)
            {
                return Some(i);
            }
        }
        None
    }

    /// Number of invalid ways of `set` in `skew`.
    #[inline]
    pub(crate) fn invalid_ways_in(&self, skew: usize, set: usize) -> usize {
        self.arena
            .invalid_ways(self.base(skew, set), self.ways_per_skew)
    }

    /// Tag `i` as the victim of an eviction that releases its data, which
    /// is `dirty` or not.
    pub(crate) fn victim(&self, i: usize, dirty: bool) -> Victim {
        Victim {
            owner: DomainId(self.arena.sdid(i)),
            had_data: true,
            dirty,
            reused: self.reused(i),
            downgraded: false,
        }
    }

    /// Records the install of `line` in tag `i` (see [`Recorder::fill`]).
    #[inline]
    pub(crate) fn record_fill(&mut self, i: usize, line: u64, tag_only: bool) {
        let tags_per_skew = self.sets_per_skew * self.ways_per_skew;
        self.rec.fill(line, tag_only, || (i / tags_per_skew) as u8);
    }

    /// Records the eviction of tag `i`, described by `v`, for `cause` on
    /// behalf of `requester` (see [`Recorder::evict`]). The line address is
    /// read from the tag lane only when the recorder needs it.
    #[inline]
    pub(crate) fn record_eviction(
        &mut self,
        i: usize,
        v: Victim,
        cause: EvictionCause,
        requester: DomainId,
        wb: &mut Writebacks,
    ) {
        let tags_per_skew = self.sets_per_skew * self.ways_per_skew;
        let arena = &self.arena;
        self.rec.evict(v, cause, requester, wb, || {
            (arena.tag(i), (i / tags_per_skew) as u8)
        });
    }

    /// The victim of a global random data eviction: a uniformly random
    /// allocated data slot and its tag, drawn from the store's RNG.
    pub(crate) fn data_victim(&mut self) -> (u32, usize) {
        draw_allocated(&self.arena, &mut self.rng)
    }

    /// The target of a fault on a data-holding tag: a random allocated
    /// slot and its tag, or `None` (with no draw) when nothing is
    /// allocated.
    pub(crate) fn fault_slot(&self, rng: &mut SmallRng) -> Option<(u32, usize)> {
        (!self.arena.allocated.is_empty()).then(|| draw_allocated(&self.arena, rng))
    }

    /// The target of a fault on any valid tag: a data-holding tag if
    /// anything is allocated, else a random priority-0 tag, else `None`.
    pub(crate) fn fault_tag(&self, rng: &mut SmallRng) -> Option<usize> {
        if let Some((_, i)) = self.fault_slot(rng) {
            return Some(i);
        }
        let p0 = &self.arena.p0_list;
        (!p0.is_empty()).then(|| p0[rng.gen_range(0..p0.len())] as usize)
    }

    /// `FaultKind::PointerCorrupt`: redirects a random data-holding tag's
    /// forward pointer to the next data slot.
    pub(crate) fn corrupt_pointer(&mut self, rng: &mut SmallRng) -> Option<String> {
        let (d, i) = self.fault_slot(rng)?;
        let n = self.arena.data_entries() as u32;
        let bad = (self.arena.fptr(i) + 1) % n;
        self.arena.set_fptr(i, bad);
        Some(format!("tag {i}: fptr redirected {d} -> {bad}"))
    }

    /// `FaultKind::TagBit`: sticks one tag bit of a random valid tag (see
    /// [`fault_tag`](Self::fault_tag)) so it no longer hashes to its set.
    pub(crate) fn stick_tag_bit(&mut self, rng: &mut SmallRng) -> Option<String> {
        let i = self.fault_tag(rng)?;
        let (skew, set) = self.home_of(i);
        let (flipped, bit) = stuck_tag_bit(self.arena.tag(i), rng, |t| {
            self.index.set_index(skew, t) == set
        })?;
        // `set_tag` keeps the key lane's filter byte coherent with the
        // corrupted tag, preserving the lookup semantics of a full-width
        // tag compare.
        self.arena.set_tag(i, flipped);
        Some(format!("tag {i}: tag bit {bit} stuck"))
    }

    /// `FaultKind::InterruptedRekey`: a power cut mid-rekey. Skew 0 was
    /// already wiped for the new key (each valid tag keeps only the meta
    /// bits in `keep`), skew 1+ still holds old-key entries, and none of
    /// the pointer bookkeeping was updated.
    pub(crate) fn interrupt_rekey(&mut self, keep: u8) -> Option<String> {
        let mut wiped = 0usize;
        for i in 0..self.sets_per_skew * self.ways_per_skew {
            if self.valid(i) {
                self.arena.meta_and(i, keep);
                wiped += 1;
            }
        }
        if wiped == 0 {
            return None;
        }
        Some(format!("rekey interrupted: {wiped} skew-0 tags wiped"))
    }

    /// Whether tag `i` sits in the set its line hashes to under the
    /// current key.
    pub(crate) fn homed(&self, i: usize) -> bool {
        let (skew, set) = self.home_of(i);
        self.index.set_index(skew, self.arena.tag(i)) == set
    }

    /// Audit check of a valid tag: it must live in the set its address
    /// hashes to under the current key — this is what catches stuck-at
    /// faults in the tag array itself.
    pub(crate) fn check_home(&self, i: usize) -> Result<(), String> {
        let (skew, set) = self.home_of(i);
        let tag = self.arena.tag(i);
        let home = self.index.set_index(skew, tag);
        if home != set {
            return Err(format!(
                "tag {i} (line {tag:#x}) sits in skew {skew} set {set} but hashes to {home}"
            ));
        }
        Ok(())
    }

    /// Audit check of a data-holding tag: its forward pointer names a data
    /// slot whose reverse pointer names it back.
    pub(crate) fn check_fptr(&self, i: usize) -> Result<(), String> {
        let d = self.arena.fptr(i) as usize;
        if d >= self.arena.data_entries() {
            return Err(format!("tag {i}: fptr {d} out of range"));
        }
        if self.arena.rptr(d) as usize != i {
            return Err(format!(
                "tag {i}: fptr/rptr mismatch (rptr[{d}] = {})",
                self.arena.rptr(d)
            ));
        }
        Ok(())
    }

    /// The data-store half of the audit: every data slot sits on exactly
    /// one of the allocated and free lists, the allocated list's
    /// back-index (which makes O(1) random data eviction possible) is
    /// intact, every allocated slot is owned by a valid tag whose forward
    /// pointer names it, and no free slot has an owner.
    pub(crate) fn audit_data(&self) -> Result<(), String> {
        let a = &self.arena;
        let n = a.data_entries();
        if a.allocated.len() + a.free_len() != n {
            return Err(format!(
                "data entries leaked: {} allocated + {} free != {n}",
                a.allocated.len(),
                a.free_len(),
            ));
        }
        let mut on_list = vec![0u8; n];
        for (pos, &d) in a.allocated.iter().enumerate() {
            let d = d as usize;
            on_list[d] += 1;
            if a.data_pos(d) as usize != pos {
                return Err(format!(
                    "allocated[{pos}] = data {d} but data_pos[{d}] = {}",
                    a.data_pos(d)
                ));
            }
            let t = a.rptr(d);
            if t == NONE {
                return Err(format!("allocated data {d} has no owning tag"));
            }
            if !self.valid(t as usize) {
                return Err(format!("data {d} owned by invalid tag {t}"));
            }
            if a.fptr(t as usize) as usize != d {
                return Err(format!(
                    "rptr/fptr mismatch: data {d} claims tag {t} whose fptr is {}",
                    a.fptr(t as usize)
                ));
            }
        }
        a.free_for_each(|d| {
            let d = d as usize;
            on_list[d] += 1;
            if a.rptr(d) != NONE {
                return Err(format!("free data {d} still has rptr {}", a.rptr(d)));
            }
            Ok(())
        })?;
        for (d, &n) in on_list.iter().enumerate() {
            if n != 1 {
                return Err(format!(
                    "data {d} appears on {n} lists (every entry must be on exactly one \
                     of allocated/free)"
                ));
            }
        }
        Ok(())
    }

    /// Quarantine claim of data-holding tag `i` on the slot its forward
    /// pointer names: granted when the slot exists and no earlier tag
    /// claimed it (first claim wins).
    pub(crate) fn claim(&self, claimed: &mut [u32], i: usize) -> bool {
        let d = self.arena.fptr(i) as usize;
        if d >= claimed.len() || claimed[d] != NONE {
            return false;
        }
        claimed[d] = i as u32;
        true
    }

    /// Rebuilds the data-store bookkeeping from the surviving quarantine
    /// claims (`claimed[d]` is the owning tag of slot `d`, or `NONE`).
    pub(crate) fn rebuild_data(&mut self, claimed: &[u32]) {
        self.arena.allocated.clear();
        for (d, &t) in claimed.iter().enumerate() {
            if t != NONE {
                self.arena.slot_adopt(d, t);
            } else {
                self.arena.slot_clear(d);
            }
        }
        self.arena.rebuild_free_ascending(|d| claimed[d] == NONE);
    }
}
