//! The Mirage cache (Saileshwar & Qureshi, USENIX Security 2021): the prior
//! state-of-the-art that Maya improves upon, implemented here both as a
//! comparison baseline and as a security reference.
//!
//! Mirage provides the illusion of a fully-associative LLC with three
//! mechanisms, all reproduced here:
//!
//! 1. **Decoupled tag and data stores.** Tags live in a skewed-associative
//!    structure; data entries are position-independent and linked by
//!    forward/reverse pointers.
//! 2. **Over-provisioned invalid tags with load-aware skew selection.** Each
//!    skew has `base + extra` ways; fills go to whichever candidate set has
//!    more invalid tags, which (with enough extra ways) makes set-associative
//!    evictions (SAEs) astronomically rare.
//! 3. **Global random data eviction.** Replacement candidates are drawn
//!    uniformly from the *entire* data store, so evictions carry no
//!    information about addresses.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use maya_obs::{Component, EventKind, EvictionCause, ProbeHandle, ProfileHandle};
use prince_cipher::{IndexFunction, DEFAULT_MEMO_SLOTS, MAX_SKEWS};

use crate::cache::{stuck_tag_bit, CacheModel, FaultKind};
use crate::storage::{meta, TagArena, NONE};
use crate::types::{AccessEvent, AccessKind, CacheStats, DomainId, Request, Response, Writebacks};

/// How fills choose between the two candidate sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkewSelection {
    /// Fill the set with more invalid tags (Mirage/Maya default). Required
    /// for the security guarantee.
    LoadAware,
    /// Pick a skew uniformly at random (ScatterCache-style; insecure — kept
    /// for the ablation study).
    Random,
}

/// Configuration of a [`MirageCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirageConfig {
    /// Sets per skew; must be a power of two.
    pub sets_per_skew: usize,
    /// Number of skews (2 in the paper).
    pub skews: usize,
    /// Base ways per skew; `sets * skews * base_ways` equals the number of
    /// data entries (8 for the 16 MB / 16-way-equivalent configuration).
    pub base_ways_per_skew: usize,
    /// Extra (invalid) ways per skew provisioned for security (6 default).
    pub extra_ways_per_skew: usize,
    /// Skew-selection policy.
    pub skew_selection: SkewSelection,
    /// Master seed for the index-function keys and replacement randomness.
    pub seed: u64,
}

impl MirageConfig {
    /// The paper's default geometry scaled to `data_entries` lines
    /// (e.g. `256 * 1024` for the 16 MB LLC): 2 skews, 8 base + 6 extra
    /// ways per skew.
    ///
    /// # Panics
    ///
    /// Panics if `data_entries` is not divisible into a power-of-two set
    /// count.
    pub fn for_data_entries(data_entries: usize, seed: u64) -> Self {
        let (skews, base) = (2, 8);
        let sets = data_entries / (skews * base);
        assert!(
            sets.is_power_of_two(),
            "data entries must give power-of-two sets"
        );
        Self {
            sets_per_skew: sets,
            skews,
            base_ways_per_skew: base,
            extra_ways_per_skew: 6,
            skew_selection: SkewSelection::LoadAware,
            seed,
        }
    }

    /// Total tag-store ways per skew.
    pub fn ways_per_skew(&self) -> usize {
        self.base_ways_per_skew + self.extra_ways_per_skew
    }

    /// Number of data-store entries.
    pub fn data_entries(&self) -> usize {
        self.sets_per_skew * self.skews * self.base_ways_per_skew
    }
}

/// The Mirage LLC model.
///
/// # Examples
///
/// ```
/// use maya_core::{MirageCache, MirageConfig, CacheModel, Request, DomainId};
///
/// let mut llc = MirageCache::new(MirageConfig::for_data_entries(32 * 1024, 1));
/// let d = DomainId(3);
/// llc.access(Request::read(0x1000, d));
/// assert!(llc.probe(0x1000, d));
/// assert!(!llc.probe(0x1000, DomainId(4))); // SDID-isolated copy
/// ```
#[derive(Debug, Clone)]
pub struct MirageCache {
    config: MirageConfig,
    index: IndexFunction,
    /// Struct-of-arrays tag/data store (see [`crate::storage`]). Every
    /// resident Mirage entry is `VALID | DATA` in the packed meta lane,
    /// with `DIRTY`/`REUSED` riding alongside; the forward/reverse pointer
    /// lanes and the allocated/free lists live inside the arena (Maya's
    /// priority-0 lanes go unused here).
    arena: TagArena,
    stats: CacheStats,
    rng: SmallRng,
    probe: ProbeHandle,
    profiler: ProfileHandle,
}

impl MirageCache {
    /// Builds a Mirage cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two or if any dimension is
    /// zero.
    pub fn new(config: MirageConfig) -> Self {
        assert!(
            config.sets_per_skew.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(config.skews > 0 && config.base_ways_per_skew > 0);
        let tag_count = config.sets_per_skew * config.skews * config.ways_per_skew();
        let data_entries = config.data_entries();
        let index = IndexFunction::from_seed(config.seed, config.skews, config.sets_per_skew)
            .with_memo(DEFAULT_MEMO_SLOTS);
        Self {
            arena: TagArena::new(tag_count, data_entries),
            stats: CacheStats::default(),
            rng: SmallRng::seed_from_u64(config.seed ^ 0x6d69_7261_6765),
            probe: ProbeHandle::none(),
            profiler: ProfileHandle::none(),
            index,
            config,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &MirageConfig {
        &self.config
    }

    /// Re-keys the index function and flushes the cache (the paper's
    /// response to an SAE event).
    pub fn rekey(&mut self, new_seed: u64) {
        // A fresh IndexFunction starts with an empty memo, so no old-epoch
        // translation can survive the re-key.
        self.index =
            IndexFunction::from_seed(new_seed, self.config.skews, self.config.sets_per_skew)
                .with_memo(DEFAULT_MEMO_SLOTS);
        // The rebuilt index starts with a bare handle; re-attach so the
        // new epoch's PRINCE work keeps landing in the same span tree.
        self.index.set_profiler(self.profiler.clone());
        self.flush_all();
        self.probe.emit(EventKind::EpochRekey);
    }

    #[inline]
    fn flat(&self, skew: usize, set: usize, way: usize) -> usize {
        (skew * self.config.sets_per_skew + set) * self.config.ways_per_skew() + way
    }

    /// Inverse of [`MirageCache::flat`]: the skew a flat tag index lives in.
    #[inline]
    fn skew_of(&self, flat_idx: usize) -> u8 {
        (flat_idx / (self.config.sets_per_skew * self.config.ways_per_skew())) as u8
    }

    /// `(skew, set)` a flat tag index belongs to (inverse of [`flat`]).
    ///
    /// [`flat`]: MirageCache::flat
    #[inline]
    fn home_of(&self, flat_idx: usize) -> (usize, usize) {
        let ways = self.config.ways_per_skew();
        let skew = flat_idx / (self.config.sets_per_skew * ways);
        let set = (flat_idx / ways) % self.config.sets_per_skew;
        (skew, set)
    }

    /// Whether tag entry `i` is valid.
    #[inline]
    fn valid(&self, i: usize) -> bool {
        self.arena.meta(i) & meta::VALID != 0
    }

    /// Whether tag entry `i` is dirty.
    #[inline]
    fn dirty(&self, i: usize) -> bool {
        self.arena.meta(i) & meta::DIRTY != 0
    }

    /// Whether tag entry `i` has been re-referenced since its fill.
    #[inline]
    fn reused(&self, i: usize) -> bool {
        self.arena.meta(i) & meta::REUSED != 0
    }

    fn find(&self, line: u64, domain: DomainId) -> Option<usize> {
        let ways = self.config.ways_per_skew();
        let mut sets_buf = [0usize; MAX_SKEWS];
        let sets = &mut sets_buf[..self.config.skews];
        {
            let _derive = self.profiler.span(Component::IndexDerive);
            self.index.set_indices_into(line, sets);
        }
        for (skew, &set) in sets.iter().enumerate() {
            let base = self.flat(skew, set, 0);
            if let Some(i) = self.arena.find_way(base, ways, line, domain.0) {
                return Some(i);
            }
        }
        None
    }

    fn invalid_ways_in(&self, skew: usize, set: usize) -> usize {
        let base = self.flat(skew, set, 0);
        self.arena.invalid_ways(base, self.config.ways_per_skew())
    }

    /// Invalidates the tag at `tag_idx` and releases its data entry,
    /// recording writeback/reuse/interference statistics.
    fn evict_tag(
        &mut self,
        tag_idx: usize,
        requester: DomainId,
        cause: EvictionCause,
        wb: &mut Writebacks,
    ) {
        debug_assert!(self.valid(tag_idx));
        let dirty = self.dirty(tag_idx);
        let reused = self.reused(tag_idx);
        if dirty {
            self.stats.writebacks_out += 1;
            wb.push(self.arena.tag(tag_idx));
        }
        if reused {
            self.stats.reused_evictions += 1;
        } else {
            self.stats.dead_evictions += 1;
        }
        if self.arena.sdid(tag_idx) != requester.0 {
            self.stats.cross_domain_evictions += 1;
        }
        let d = self.arena.fptr(tag_idx);
        self.arena.data_free(d);
        self.arena.meta_and(tag_idx, !meta::VALID);
        // Lazy line read: when no probe is attached the closure never runs,
        // so the eviction costs no cold tag-lane access. The tag word itself
        // is untouched by the invalidation above, so an attached probe reads
        // the same value the eager load produced.
        self.probe.emit_with(|| EventKind::Eviction {
            line: self.arena.tag(tag_idx),
            cause,
            had_data: true,
            dirty,
            reused,
            downgraded: false,
            skew: self.skew_of(tag_idx),
        });
    }

    /// Global random data eviction: evicts a uniformly random line from the
    /// whole data store.
    fn global_eviction(&mut self, requester: DomainId, wb: &mut Writebacks) {
        let _repl = self.profiler.span(Component::Replacement);
        let victim_data = self.arena.allocated[self.rng.gen_range(0..self.arena.allocated.len())];
        let tag_idx = self.arena.rptr(victim_data as usize) as usize;
        self.evict_tag(tag_idx, requester, EvictionCause::GlobalData, wb);
        self.stats.global_data_evictions += 1;
    }

    /// Chooses the target set for a fill; returns `(flat_way_index, sae)`.
    fn choose_fill_slot(
        &mut self,
        line: u64,
        requester: DomainId,
        wb: &mut Writebacks,
    ) -> (usize, bool) {
        debug_assert_eq!(self.config.skews, 2, "fill policy assumes two skews");
        let mut sets = [0usize; 2];
        {
            let _derive = self.profiler.span(Component::IndexDerive);
            self.index.set_indices_into(line, &mut sets);
        }
        let _repl = self.profiler.span(Component::Replacement);
        let inv = [
            self.invalid_ways_in(0, sets[0]),
            self.invalid_ways_in(1, sets[1]),
        ];
        let skew = match self.config.skew_selection {
            SkewSelection::LoadAware => {
                use std::cmp::Ordering;
                match inv[0].cmp(&inv[1]) {
                    Ordering::Greater => 0,
                    Ordering::Less => 1,
                    Ordering::Equal => usize::from(self.rng.gen::<bool>()),
                }
            }
            SkewSelection::Random => usize::from(self.rng.gen::<bool>()),
        };
        let ways = self.config.ways_per_skew();
        let set = sets[skew];
        let base = self.flat(skew, set, 0);
        if let Some(idx) = self.arena.first_invalid(base, ways) {
            return (idx, false);
        }
        // Set-associative eviction: both candidate sets may be full (the
        // chosen one certainly is). Evict a random valid way of the chosen
        // set — the security-critical, address-correlated event.
        self.stats.saes += 1;
        let way = self.rng.gen_range(0..ways);
        let idx = base + way;
        self.evict_tag(idx, requester, EvictionCause::Sae, wb);
        (idx, true)
    }
}

impl CacheModel for MirageCache {
    fn access(&mut self, req: Request) -> Response {
        match req.kind {
            AccessKind::Read | AccessKind::Prefetch => self.stats.reads += 1,
            AccessKind::Writeback => self.stats.writebacks_in += 1,
        }
        let mut wb = Writebacks::none();
        if let Some(i) = self.find(req.line, req.domain) {
            match req.kind {
                // Reuse (for dead-block stats) means a demand read hit.
                AccessKind::Read => self.arena.meta_or(i, meta::REUSED),
                AccessKind::Writeback => self.arena.meta_or(i, meta::DIRTY),
                AccessKind::Prefetch => {}
            }
            self.stats.data_hits += 1;
            let line = req.line;
            self.probe.emit_with(|| EventKind::Hit { line });
            return Response {
                event: AccessEvent::DataHit,
                writebacks: wb,
                sae: false,
            };
        }
        self.stats.tag_misses += 1;
        let line = req.line;
        self.probe.emit_with(|| EventKind::Miss { line });
        // Fill: free a data entry if the store is full, then place the tag.
        if self.arena.free_is_empty() {
            self.global_eviction(req.domain, &mut wb);
        }
        let (tag_idx, sae) = self.choose_fill_slot(req.line, req.domain, &mut wb);
        let data_idx = self.arena.data_alloc(tag_idx);
        let m = meta::VALID
            | meta::DATA
            | if req.kind == AccessKind::Writeback {
                meta::DIRTY
            } else {
                0
            };
        self.arena.install_tag(tag_idx, req.line, m, req.domain.0);
        self.arena.set_fptr(tag_idx, data_idx);
        self.stats.tag_fills += 1;
        self.stats.data_fills += 1;
        self.probe.emit_with(|| EventKind::Fill {
            line,
            tag_only: false,
            skew: self.skew_of(tag_idx),
        });
        Response {
            event: AccessEvent::Miss,
            writebacks: wb,
            sae,
        }
    }

    fn flush_line(&mut self, line: u64, domain: DomainId) -> bool {
        if let Some(i) = self.find(line, domain) {
            let dirty = self.dirty(i);
            let reused = self.reused(i);
            if dirty {
                self.stats.writebacks_out += 1;
            }
            let d = self.arena.fptr(i);
            self.arena.data_free(d);
            self.arena.meta_and(i, !meta::VALID);
            self.stats.flushes += 1;
            self.probe.emit_with(|| EventKind::Eviction {
                line,
                cause: EvictionCause::Flush,
                had_data: true,
                dirty,
                reused,
                downgraded: false,
                skew: self.skew_of(i),
            });
            true
        } else {
            false
        }
    }

    fn flush_all(&mut self) {
        self.arena.reset();
        self.probe.emit(EventKind::FlushAll);
    }

    fn probe(&self, line: u64, domain: DomainId) -> bool {
        self.find(line, domain).is_some()
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn extra_latency(&self) -> u32 {
        4
    }

    fn capacity_lines(&self) -> usize {
        self.config.data_entries()
    }

    fn name(&self) -> &'static str {
        "mirage"
    }

    fn set_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    fn set_profiler(&mut self, profiler: ProfileHandle) {
        self.profiler = profiler.clone();
        self.index.set_profiler(profiler);
    }

    fn audit(&self) -> Result<(), String> {
        // Forward direction: every valid tag owns exactly the data entry
        // its fptr names.
        let mut valid_tags = 0usize;
        for i in 0..self.arena.tag_entries() {
            if !self.valid(i) {
                continue;
            }
            valid_tags += 1;
            // A valid tag must live in the set its address hashes to under
            // the current key — this catches stuck-at tag-array faults.
            let (skew, set) = self.home_of(i);
            let home = self.index.set_index(skew, self.arena.tag(i));
            if home != set {
                return Err(format!(
                    "tag {i} (line {:#x}) sits in skew {skew} set {set} but hashes to {home}",
                    self.arena.tag(i)
                ));
            }
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
        }
        if valid_tags != self.arena.allocated.len() {
            return Err(format!(
                "population mismatch: {valid_tags} valid tags vs {} allocated data entries",
                self.arena.allocated.len()
            ));
        }
        if self.arena.allocated.len() + self.arena.free_len() != self.config.data_entries() {
            return Err(format!(
                "data entries leaked: {} allocated + {} free != {}",
                self.arena.allocated.len(),
                self.arena.free_len(),
                self.config.data_entries()
            ));
        }
        // Reverse direction plus the O(1)-eviction back-index array.
        // `on_list` doubles as the conservation check below: every data
        // entry must sit on exactly one of the allocated/free lists.
        let mut on_list = vec![0u8; self.arena.data_entries()];
        for (pos, &d) in self.arena.allocated.iter().enumerate() {
            let d = d as usize;
            on_list[d] += 1;
            if self.arena.data_pos(d) as usize != pos {
                return Err(format!(
                    "allocated[{pos}] = data {d} but data_pos[{d}] = {}",
                    self.arena.data_pos(d)
                ));
            }
            let t = self.arena.rptr(d);
            if t == NONE {
                return Err(format!("allocated data {d} has no owning tag"));
            }
            if !self.valid(t as usize) {
                return Err(format!("data {d} owned by invalid tag {t}"));
            }
            if self.arena.fptr(t as usize) as usize != d {
                return Err(format!(
                    "rptr/fptr mismatch: data {d} claims tag {t} whose fptr is {}",
                    self.arena.fptr(t as usize)
                ));
            }
        }
        self.arena.free_for_each(|d| {
            let d = d as usize;
            on_list[d] += 1;
            if self.arena.rptr(d) != NONE {
                return Err(format!(
                    "free data {d} still has rptr {}",
                    self.arena.rptr(d)
                ));
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

    fn inject_fault(&mut self, kind: FaultKind, rng: &mut SmallRng) -> Option<String> {
        match kind {
            // Mirage entries have no priority states.
            FaultKind::PriorityFlip => None,
            FaultKind::ValidDrop => {
                if self.arena.allocated.is_empty() {
                    return None;
                }
                let d = self.arena.allocated[rng.gen_range(0..self.arena.allocated.len())];
                let i = self.arena.rptr(d as usize) as usize;
                // Clear the valid bit without releasing the data entry.
                self.arena.meta_and(i, !meta::VALID);
                Some(format!("tag {i}: valid bit dropped, data {d} leaked"))
            }
            FaultKind::DirtyFlip => {
                if self.arena.allocated.is_empty() {
                    return None;
                }
                let d = self.arena.allocated[rng.gen_range(0..self.arena.allocated.len())];
                let i = self.arena.rptr(d as usize) as usize;
                self.arena.meta_xor(i, meta::DIRTY);
                Some(format!("tag {i}: dirty bit flipped"))
            }
            FaultKind::PointerCorrupt => {
                if self.arena.allocated.is_empty() {
                    return None;
                }
                let d = self.arena.allocated[rng.gen_range(0..self.arena.allocated.len())];
                let i = self.arena.rptr(d as usize) as usize;
                let n = self.config.data_entries() as u32;
                let bad = (self.arena.fptr(i) + 1) % n;
                self.arena.set_fptr(i, bad);
                Some(format!("tag {i}: fptr redirected {d} -> {bad}"))
            }
            FaultKind::TagBit => {
                if self.arena.allocated.is_empty() {
                    return None;
                }
                let d = self.arena.allocated[rng.gen_range(0..self.arena.allocated.len())];
                let i = self.arena.rptr(d as usize) as usize;
                let (skew, set) = self.home_of(i);
                let (flipped, bit) = stuck_tag_bit(self.arena.tag(i), rng, |t| {
                    self.index.set_index(skew, t) == set
                })?;
                // `set_tag` keeps the key lane's filter byte coherent with
                // the corrupted tag, preserving the lookup semantics of a
                // full-width tag compare.
                self.arena.set_tag(i, flipped);
                Some(format!("tag {i}: tag bit {bit} stuck"))
            }
            FaultKind::InterruptedRekey => {
                // Power cut mid-rekey: skew 0 already wiped for the new key,
                // the pointer bookkeeping never updated.
                let per_skew = self.config.sets_per_skew * self.config.ways_per_skew();
                let mut wiped = 0usize;
                for i in 0..per_skew {
                    if self.valid(i) {
                        self.arena.meta_and(i, !meta::VALID);
                        wiped += 1;
                    }
                }
                if wiped == 0 {
                    return None;
                }
                Some(format!("rekey interrupted: {wiped} skew-0 tags wiped"))
            }
        }
    }

    fn quarantine(&mut self) -> u64 {
        let mut repaired = 0u64;
        let n = self.config.data_entries();
        // First claim per data entry wins; later claimants are dropped.
        let mut claimed = vec![NONE; n];
        for i in 0..self.arena.tag_entries() {
            if !self.valid(i) {
                continue;
            }
            let (skew, set) = self.home_of(i);
            let d = self.arena.fptr(i) as usize;
            if self.index.set_index(skew, self.arena.tag(i)) != set || d >= n || claimed[d] != NONE
            {
                // Mis-homed or unreconcilable pointer: drop the entry.
                self.arena.meta_and(i, !meta::VALID);
                repaired += 1;
            } else {
                claimed[d] = i as u32;
            }
        }
        // Rebuild the data-store bookkeeping from the surviving claims.
        self.arena.allocated.clear();
        for (d, &t) in claimed.iter().enumerate() {
            if t != NONE {
                self.arena.slot_adopt(d, t);
            } else {
                self.arena.slot_clear(d);
            }
        }
        self.arena.rebuild_free_ascending(|d| claimed[d] == NONE);
        repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MirageCache {
        // 2 skews * 16 sets * 4 base ways = 128 data entries, 2 extra ways.
        MirageCache::new(MirageConfig {
            sets_per_skew: 16,
            skews: 2,
            base_ways_per_skew: 4,
            extra_ways_per_skew: 2,
            skew_selection: SkewSelection::LoadAware,
            seed: 7,
        })
    }

    fn check_pointers(c: &MirageCache) {
        // The full structural audit: fptr/rptr bijection in both
        // directions, back-index consistency, population counts.
        c.audit().expect("MirageCache invariant violated");
    }

    #[test]
    fn miss_then_hit_with_pointer_consistency() {
        let mut c = tiny();
        let d = DomainId(0);
        assert_eq!(c.access(Request::read(1, d)).event, AccessEvent::Miss);
        assert_eq!(c.access(Request::read(1, d)).event, AccessEvent::DataHit);
        check_pointers(&c);
    }

    #[test]
    fn domains_get_duplicated_copies() {
        let mut c = tiny();
        c.access(Request::read(1, DomainId(0)));
        assert!(!c.probe(1, DomainId(1)));
        c.access(Request::read(1, DomainId(1)));
        assert!(c.probe(1, DomainId(0)));
        assert!(c.probe(1, DomainId(1)));
        check_pointers(&c);
    }

    #[test]
    fn global_eviction_keeps_data_store_exactly_full() {
        let mut c = tiny();
        let cap = c.capacity_lines();
        for a in 0..(3 * cap) as u64 {
            c.access(Request::read(a, DomainId(0)));
            assert!(c.arena.allocated.len() <= cap);
        }
        assert_eq!(c.arena.allocated.len(), cap);
        assert!(c.stats().global_data_evictions > 0);
        check_pointers(&c);
    }

    #[test]
    fn no_sae_under_heavy_fill_with_load_aware_selection() {
        // Paper-level invalid-tag provisioning (6 extra ways/skew); the
        // `tiny()` config deliberately under-provisions to exercise SAEs.
        let mut c = MirageCache::new(MirageConfig {
            sets_per_skew: 16,
            skews: 2,
            base_ways_per_skew: 4,
            extra_ways_per_skew: 6,
            skew_selection: SkewSelection::LoadAware,
            seed: 7,
        });
        for a in 0..50_000u64 {
            c.access(Request::read(a, DomainId(0)));
        }
        assert_eq!(
            c.stats().saes,
            0,
            "load-aware Mirage should see no SAE at this scale"
        );
        check_pointers(&c);
    }

    #[test]
    fn dirty_lines_write_back_on_eviction_or_flush() {
        let mut c = tiny();
        let d = DomainId(0);
        c.access(Request::writeback(9, d));
        assert!(c.flush_line(9, d));
        assert_eq!(c.stats().writebacks_out, 1);
        check_pointers(&c);
    }

    #[test]
    fn flush_all_then_rekey_restores_cold_state() {
        let mut c = tiny();
        for a in 0..200u64 {
            c.access(Request::read(a, DomainId(0)));
        }
        c.rekey(99);
        assert_eq!(c.arena.allocated.len(), 0);
        for a in 0..200u64 {
            assert!(!c.probe(a, DomainId(0)));
        }
        check_pointers(&c);
    }

    #[test]
    fn dead_block_stats_accumulate() {
        let mut c = tiny();
        // Fill far beyond capacity without reuse: every eviction is dead.
        for a in 0..1000u64 {
            c.access(Request::read(a, DomainId(0)));
        }
        assert!(c.stats().dead_evictions > 0);
        assert_eq!(c.stats().reused_evictions, 0);
    }

    #[test]
    fn writeback_miss_installs_dirty_line() {
        let mut c = tiny();
        let d = DomainId(0);
        assert_eq!(c.access(Request::writeback(5, d)).event, AccessEvent::Miss);
        assert!(c.probe(5, d));
    }
}
