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
use rand::Rng;

use maya_obs::{Component, EvictionCause, ProbeHandle, ProfileHandle};

use crate::cache::{CacheModel, FaultKind};
use crate::decoupled::{CandidateSets, DecoupledStore};
use crate::storage::{meta, NONE};
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
    /// Number of skews; must be 2, as in the paper (the fill policy picks
    /// between two candidate sets).
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
    /// The decoupled tag/data store (see [`crate::decoupled`]). Every
    /// resident Mirage entry is `VALID | DATA` in the packed meta lane,
    /// with `DIRTY`/`REUSED` riding alongside (Maya's priority-0 lanes go
    /// unused here).
    store: DecoupledStore,
}

impl MirageCache {
    /// Builds a Mirage cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two, if `skews` is not 2
    /// (the fill policy chooses between exactly two candidate sets), or if
    /// `base_ways_per_skew` is zero.
    pub fn new(config: MirageConfig) -> Self {
        assert!(
            config.skews == 2,
            "MirageConfig::skews must be 2, got {}",
            config.skews
        );
        assert!(config.base_ways_per_skew > 0, "base ways must be positive");
        Self {
            store: DecoupledStore::new(
                config.skews,
                config.sets_per_skew,
                config.ways_per_skew(),
                config.data_entries(),
                config.seed,
                0x6d69_7261_6765,
            ),
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
        self.store.rekey(new_seed);
    }

    /// Whether tag entry `i` is dirty.
    #[inline]
    fn dirty(&self, i: usize) -> bool {
        self.store.arena.meta(i) & meta::DIRTY != 0
    }

    /// Invalidates the tag at `tag_idx`, releases the data entry its
    /// forward pointer names, and records the eviction.
    fn evict_tag(
        &mut self,
        tag_idx: usize,
        requester: DomainId,
        cause: EvictionCause,
        wb: &mut Writebacks,
    ) {
        debug_assert!(self.store.valid(tag_idx));
        let v = self.store.victim(tag_idx, self.dirty(tag_idx));
        let s = &mut self.store;
        s.arena.data_free(s.arena.fptr(tag_idx));
        // The invalidation leaves the tag word alone, so the recorder's
        // lazy line read sees the evicted line.
        s.arena.meta_and(tag_idx, !meta::VALID);
        s.record_eviction(tag_idx, v, cause, requester, wb);
    }

    /// Global random data eviction: evicts a uniformly random line from the
    /// whole data store.
    fn global_eviction(&mut self, requester: DomainId, wb: &mut Writebacks) {
        let _repl = self.store.profiler.span(Component::Replacement);
        let (_, tag_idx) = self.store.data_victim();
        self.evict_tag(tag_idx, requester, EvictionCause::GlobalData, wb);
    }

    /// Chooses the target set for a fill of `c`'s line; returns
    /// `(flat_way_index, sae)`.
    fn choose_fill_slot(
        &mut self,
        c: &mut CandidateSets,
        requester: DomainId,
        wb: &mut Writebacks,
    ) -> (usize, bool) {
        let sets = self.store.candidate_sets(c);
        let _repl = self.store.profiler.span(Component::Replacement);
        let inv = [
            self.store.invalid_ways_in(0, sets[0]),
            self.store.invalid_ways_in(1, sets[1]),
        ];
        let rng = &mut self.store.rng;
        let skew = match self.config.skew_selection {
            SkewSelection::LoadAware => {
                use std::cmp::Ordering;
                match inv[0].cmp(&inv[1]) {
                    Ordering::Greater => 0,
                    Ordering::Less => 1,
                    Ordering::Equal => usize::from(rng.gen::<bool>()),
                }
            }
            SkewSelection::Random => usize::from(rng.gen::<bool>()),
        };
        let ways = self.store.ways_per_skew;
        let base = self.store.base(skew, sets[skew]);
        if let Some(idx) = self.store.arena.first_invalid(base, ways) {
            return (idx, false);
        }
        // Set-associative eviction: both candidate sets may be full (the
        // chosen one certainly is). Evict a random valid way of the chosen
        // set — the security-critical, address-correlated event.
        let way = self.store.rng.gen_range(0..ways);
        let idx = base + way;
        self.evict_tag(idx, requester, EvictionCause::Sae, wb);
        (idx, true)
    }
}

impl CacheModel for MirageCache {
    fn access(&mut self, req: Request) -> Response {
        self.store.rec.request(req.kind);
        let mut wb = Writebacks::none();
        let mut c = CandidateSets::new(req.line);
        if let Some(i) = self.store.find_in(&mut c, req.domain) {
            match req.kind {
                // Reuse (for dead-block stats) means a demand read hit.
                AccessKind::Read => self.store.arena.meta_or(i, meta::REUSED),
                AccessKind::Writeback => self.store.arena.meta_or(i, meta::DIRTY),
                AccessKind::Prefetch => {}
            }
            self.store.rec.hit(req.line);
            return Response {
                event: AccessEvent::DataHit,
                writebacks: wb,
                sae: false,
            };
        }
        self.store.rec.miss(req.line);
        // Fill: free a data entry if the store is full, then place the tag.
        if self.store.arena.free_is_empty() {
            self.global_eviction(req.domain, &mut wb);
        }
        let (tag_idx, sae) = self.choose_fill_slot(&mut c, req.domain, &mut wb);
        let s = &mut self.store;
        let data_idx = s.arena.data_alloc(tag_idx);
        let m = meta::VALID
            | meta::DATA
            | if req.kind == AccessKind::Writeback {
                meta::DIRTY
            } else {
                0
            };
        s.arena.install_tag(tag_idx, req.line, m, req.domain.0);
        s.arena.set_fptr(tag_idx, data_idx);
        s.record_fill(tag_idx, req.line, false);
        Response {
            event: AccessEvent::Miss,
            writebacks: wb,
            sae,
        }
    }

    fn flush_line(&mut self, line: u64, domain: DomainId) -> bool {
        let Some(i) = self.store.find(line, domain) else {
            return false;
        };
        self.evict_tag(i, domain, EvictionCause::Flush, &mut Writebacks::none());
        true
    }

    fn flush_all(&mut self) {
        self.store.flush_all();
    }

    fn probe(&self, line: u64, domain: DomainId) -> bool {
        self.store.find(line, domain).is_some()
    }

    fn stats(&self) -> &CacheStats {
        self.store.rec.stats()
    }

    fn reset_stats(&mut self) {
        self.store.rec.reset();
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
        self.store.rec.set_probe(probe);
    }

    fn set_profiler(&mut self, profiler: ProfileHandle) {
        self.store.set_profiler(profiler);
    }

    fn audit(&self) -> Result<(), String> {
        // Forward direction: every valid tag sits in its home set and owns
        // exactly the data entry its fptr names.
        let s = &self.store;
        let mut valid_tags = 0usize;
        for i in 0..s.arena.tag_entries() {
            if !s.valid(i) {
                continue;
            }
            valid_tags += 1;
            s.check_home(i)?;
            s.check_fptr(i)?;
        }
        if valid_tags != s.arena.allocated.len() {
            return Err(format!(
                "population mismatch: {valid_tags} valid tags vs {} allocated data entries",
                s.arena.allocated.len()
            ));
        }
        s.audit_data()
    }

    fn inject_fault(&mut self, kind: FaultKind, rng: &mut SmallRng) -> Option<String> {
        match kind {
            // Mirage entries have no priority states.
            FaultKind::PriorityFlip => None,
            FaultKind::ValidDrop => {
                let (d, i) = self.store.fault_slot(rng)?;
                // Clear the valid bit without releasing the data entry.
                self.store.arena.meta_and(i, !meta::VALID);
                Some(format!("tag {i}: valid bit dropped, data {d} leaked"))
            }
            FaultKind::DirtyFlip => {
                let (_, i) = self.store.fault_slot(rng)?;
                self.store.arena.meta_xor(i, meta::DIRTY);
                Some(format!("tag {i}: dirty bit flipped"))
            }
            FaultKind::PointerCorrupt => self.store.corrupt_pointer(rng),
            FaultKind::TagBit => self.store.stick_tag_bit(rng),
            FaultKind::InterruptedRekey => self.store.interrupt_rekey(!meta::VALID),
        }
    }

    fn quarantine(&mut self) -> u64 {
        let mut repaired = 0u64;
        let mut claimed = vec![NONE; self.config.data_entries()];
        for i in 0..self.store.arena.tag_entries() {
            if !self.store.valid(i) {
                continue;
            }
            if !self.store.homed(i) || !self.store.claim(&mut claimed, i) {
                // Mis-homed or unreconcilable pointer: drop the entry.
                self.store.arena.meta_and(i, !meta::VALID);
                repaired += 1;
            }
        }
        self.store.rebuild_data(&claimed);
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

    #[test]
    fn miss_then_hit_with_pointer_consistency() {
        let mut c = tiny();
        let d = DomainId(0);
        assert_eq!(c.access(Request::read(1, d)).event, AccessEvent::Miss);
        assert_eq!(c.access(Request::read(1, d)).event, AccessEvent::DataHit);
        c.audit().expect("MirageCache invariant violated");
    }

    #[test]
    fn domains_get_duplicated_copies() {
        let mut c = tiny();
        c.access(Request::read(1, DomainId(0)));
        assert!(!c.probe(1, DomainId(1)));
        c.access(Request::read(1, DomainId(1)));
        assert!(c.probe(1, DomainId(0)));
        assert!(c.probe(1, DomainId(1)));
        c.audit().expect("MirageCache invariant violated");
    }

    #[test]
    fn global_eviction_keeps_data_store_exactly_full() {
        let mut c = tiny();
        let cap = c.capacity_lines();
        for a in 0..(3 * cap) as u64 {
            c.access(Request::read(a, DomainId(0)));
            assert!(c.store.arena.allocated.len() <= cap);
        }
        assert_eq!(c.store.arena.allocated.len(), cap);
        assert!(c.stats().global_data_evictions > 0);
        c.audit().expect("MirageCache invariant violated");
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
        c.audit().expect("MirageCache invariant violated");
    }

    #[test]
    fn dirty_lines_write_back_on_eviction_or_flush() {
        let mut c = tiny();
        let d = DomainId(0);
        c.access(Request::writeback(9, d));
        assert!(c.flush_line(9, d));
        assert_eq!(c.stats().writebacks_out, 1);
        c.audit().expect("MirageCache invariant violated");
    }

    #[test]
    fn flush_all_then_rekey_restores_cold_state() {
        let mut c = tiny();
        for a in 0..200u64 {
            c.access(Request::read(a, DomainId(0)));
        }
        c.rekey(99);
        assert_eq!(c.store.arena.allocated.len(), 0);
        for a in 0..200u64 {
            assert!(!c.probe(a, DomainId(0)));
        }
        c.audit().expect("MirageCache invariant violated");
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
    #[should_panic(expected = "MirageConfig::skews must be 2")]
    fn skew_counts_other_than_two_are_rejected() {
        MirageCache::new(MirageConfig {
            skews: 3,
            ..MirageConfig::for_data_entries(1024, 1)
        });
    }

    #[test]
    fn writeback_miss_installs_dirty_line() {
        let mut c = tiny();
        let d = DomainId(0);
        assert_eq!(c.access(Request::writeback(5, d)).event, AccessEvent::Miss);
        assert!(c.probe(5, d));
    }
}
