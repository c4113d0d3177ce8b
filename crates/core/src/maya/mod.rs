//! The Maya cache — the paper's primary contribution.
//!
//! Maya provides the illusion of a fully-associative, randomly-replaced LLC
//! (like [Mirage](crate::MirageCache)) while *shrinking* the data store by
//! only caching lines that demonstrate reuse:
//!
//! * The skewed tag store holds three kinds of entries per set and skew:
//!   **base ways** for priority-1 entries (tag + data), **reuse ways** for
//!   priority-0 entries (tag only, awaiting their first reuse), and
//!   **invalid ways** reserved so every fill finds an invalid tag.
//! * A demand miss installs a *priority-0* tag; the data is not cached. On
//!   the first reuse the entry is *promoted* to priority-1 and a data entry
//!   is allocated.
//! * Two global random eviction policies keep the steady-state composition
//!   fixed: **global random data eviction** downgrades a uniformly random
//!   priority-1 entry to priority-0 whenever a data entry is needed, and
//!   **global random tag eviction** invalidates a uniformly random
//!   priority-0 entry whenever the priority-0 population would exceed its
//!   steady-state target.
//!
//! Because victims are drawn uniformly from the whole cache, an eviction
//! carries no information about addresses, and because invalid tags are
//! over-provisioned per set, set-associative evictions (SAEs) — the events
//! eviction-set attacks need — essentially never happen (once in 10^32 line
//! installs for the default geometry; see the `security-model` crate).

mod config;
mod state;

pub use config::MayaConfig;
pub use state::{transition, InvalidTransition, TagEvent, TagState};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use maya_obs::{Component, EventKind, EvictionCause, ProbeHandle, ProfileHandle};
use prince_cipher::{IndexFunction, DEFAULT_MEMO_SLOTS, MAX_SKEWS};

use crate::cache::{stuck_tag_bit, CacheModel, FaultKind};
use crate::mirage::SkewSelection;
use crate::storage::{key, meta, TagArena, NONE};
use crate::types::{AccessEvent, AccessKind, CacheStats, DomainId, Request, Response, Writebacks};

/// Packed meta-lane bits for a tag state (see [`crate::storage::meta`]).
#[inline]
fn meta_bits(state: TagState) -> u8 {
    match state {
        TagState::Invalid => 0,
        TagState::Priority0 => meta::VALID,
        TagState::Priority1Clean => meta::VALID | meta::DATA,
        TagState::Priority1Dirty => meta::VALID | meta::DATA | meta::DIRTY,
    }
}

/// Inverse of [`meta_bits`]; the `REUSED` bit rides alongside the state.
#[inline]
fn state_bits(m: u8) -> TagState {
    if m & meta::VALID == 0 {
        TagState::Invalid
    } else if m & meta::DATA == 0 {
        TagState::Priority0
    } else if m & meta::DIRTY != 0 {
        TagState::Priority1Dirty
    } else {
        TagState::Priority1Clean
    }
}

/// The Maya LLC model.
///
/// # Examples
///
/// ```
/// use maya_core::{MayaCache, MayaConfig, CacheModel, Request, DomainId, AccessEvent};
///
/// let mut llc = MayaCache::new(MayaConfig::with_sets(256, 42));
/// let d = DomainId(1);
/// // First touch: tag-only fill, observed as a miss.
/// assert_eq!(llc.access(Request::read(7, d)).event, AccessEvent::Miss);
/// // First reuse: promoted to priority-1, data now cached — but this
/// // access itself still fetched from memory.
/// assert_eq!(llc.access(Request::read(7, d)).event, AccessEvent::TagHitPromoted);
/// // From now on the line hits.
/// assert!(llc.access(Request::read(7, d)).is_data_hit());
/// ```
#[derive(Debug, Clone)]
pub struct MayaCache {
    config: MayaConfig,
    index: IndexFunction,
    /// Struct-of-arrays tag/data store (see [`crate::storage`]): the hot
    /// way scan walks the arena's compact tag lane, and the priority-0 /
    /// allocated / free lists live inside it. Maya encodes its `TagState`
    /// in the arena's packed meta lane (see [`meta_bits`]).
    arena: TagArena,
    stats: CacheStats,
    rng: SmallRng,
    probe: ProbeHandle,
    profiler: ProfileHandle,
}

impl MayaCache {
    /// Builds a Maya cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two or any way count is
    /// zero (invalid ways may be zero only for deliberately insecure
    /// ablation configs, which are still accepted).
    pub fn new(config: MayaConfig) -> Self {
        assert!(
            config.sets_per_skew.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(config.skews >= 2, "Maya requires at least two skews");
        assert!(config.base_ways_per_skew > 0, "base ways must be positive");
        assert!(
            config.reuse_ways_per_skew > 0,
            "reuse ways must be positive"
        );
        let index = IndexFunction::from_seed(config.seed, config.skews, config.sets_per_skew)
            .with_memo(DEFAULT_MEMO_SLOTS);
        let data_entries = config.data_entries();
        let mut arena = TagArena::new(config.tag_entries(), data_entries);
        // Presence filter sized at ~8 slots per tag entry: under full
        // occupancy a random absent line sees a zero counter (a proven
        // miss, skipping index derivation and both skews' key lines)
        // roughly 9 times out of 10.
        arena.enable_presence((config.tag_entries() * 8).next_power_of_two());
        Self {
            arena,
            stats: CacheStats::default(),
            rng: SmallRng::seed_from_u64(config.seed ^ 0x6d61_7961),
            probe: ProbeHandle::none(),
            profiler: ProfileHandle::none(),
            index,
            config,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &MayaConfig {
        &self.config
    }

    /// Current number of priority-0 (tag-only) entries.
    pub fn p0_count(&self) -> usize {
        self.arena.p0_list.len()
    }

    /// Current number of priority-1 (tag + data) entries.
    pub fn p1_count(&self) -> usize {
        self.arena.allocated.len()
    }

    /// The state of the tag entry for `line` in `domain`, if one exists.
    pub fn tag_state(&self, line: u64, domain: DomainId) -> Option<TagState> {
        self.find(line, domain).map(|i| self.state(i))
    }

    /// Re-keys the index function and flushes the cache — the paper's
    /// response to an observed SAE.
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

    /// Inverse of [`MayaCache::flat`]: the skew a flat tag index lives in.
    #[inline]
    fn skew_of(&self, flat_idx: usize) -> u8 {
        (flat_idx / (self.config.sets_per_skew * self.config.ways_per_skew())) as u8
    }

    /// Decoded state of tag entry `i`.
    #[inline]
    fn state(&self, i: usize) -> TagState {
        state_bits(self.arena.meta(i))
    }

    /// Whether tag entry `i`'s data has been re-referenced since promotion.
    #[inline]
    fn reused(&self, i: usize) -> bool {
        self.arena.meta(i) & meta::REUSED != 0
    }

    fn find(&self, line: u64, domain: DomainId) -> Option<usize> {
        // A zero presence counter proves no valid entry holds `line` (in
        // any domain): miss with one filter touch instead of deriving the
        // indices and scanning a random key-lane line per skew.
        if !self.arena.maybe_present(line) {
            return None;
        }
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

    // --- tag-state maintenance --------------------------------------------

    /// Applies a tag-state change, debug-asserting that it is a legal
    /// Figure-3 transition for `event` (see [`transition`]). Release
    /// builds pay nothing. The `REUSED` bit is preserved (matching the
    /// previous layout's separate `data_reused` field, which state changes
    /// never touched).
    fn set_state_checked(&mut self, tag_idx: usize, event: TagEvent, new_state: TagState) {
        debug_assert_eq!(
            transition(self.state(tag_idx), event),
            Ok(new_state),
            "illegal tag transition at tag {tag_idx}"
        );
        let m = (self.arena.meta(tag_idx) & meta::REUSED) | meta_bits(new_state);
        self.arena.set_meta(tag_idx, m);
    }

    /// Resets tag entry `i` to the invalid, pointer-free default.
    fn clear_tag(&mut self, i: usize) {
        self.arena.set_tag(i, 0);
        self.arena.set_meta(i, 0);
        self.arena.set_sdid(i, DomainId::ANY.0);
        self.arena.set_fptr(i, NONE);
        self.arena.set_p0_pos(i, NONE);
    }

    // --- the two global random eviction policies ---------------------------

    /// Global random data eviction: a uniformly random priority-1 entry is
    /// downgraded to priority-0 and its data entry released. Dirty data is
    /// written back.
    fn global_data_eviction(&mut self, requester: DomainId, wb: &mut Writebacks) {
        let _repl = self.profiler.span(Component::Replacement);
        let d = self.arena.allocated[self.rng.gen_range(0..self.arena.allocated.len())];
        let tag_idx = self.arena.rptr(d as usize) as usize;
        let state = self.state(tag_idx);
        let reused = self.reused(tag_idx);
        debug_assert!(state.has_data());
        if state == TagState::Priority1Dirty {
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
        self.arena.data_free(d);
        self.set_state_checked(tag_idx, TagEvent::GlobalDataEviction, TagState::Priority0);
        self.arena.set_fptr(tag_idx, NONE);
        self.arena.p0_insert(tag_idx);
        self.stats.global_data_evictions += 1;
        // The line address is read inside the closure so a detached probe
        // never touches the (cold) tag lane; nothing between here and the
        // state change above writes it, so an attached probe sees the same
        // value the eager read produced.
        self.probe.emit_with(|| EventKind::Eviction {
            line: self.arena.tag(tag_idx),
            cause: EvictionCause::GlobalData,
            had_data: true,
            dirty: state == TagState::Priority1Dirty,
            reused,
            downgraded: true,
            skew: self.skew_of(tag_idx),
        });
    }

    /// Global random tag eviction: a uniformly random priority-0 entry is
    /// invalidated. Runs only when the priority-0 population exceeds its
    /// steady-state target (so the reuse ways fill up first, as in the
    /// paper).
    fn global_tag_eviction_if_needed(&mut self) {
        if self.arena.p0_list.len() <= self.config.p0_capacity() {
            return;
        }
        let _repl = self.profiler.span(Component::Replacement);
        let victim = self.arena.p0_list[self.rng.gen_range(0..self.arena.p0_list.len())] as usize;
        self.arena.p0_remove(victim);
        self.set_state_checked(victim, TagEvent::GlobalTagEviction, TagState::Invalid);
        self.stats.global_tag_evictions += 1;
        // Lazy line read: see `global_data_eviction`.
        self.probe.emit_with(|| EventKind::Eviction {
            line: self.arena.tag(victim),
            cause: EvictionCause::GlobalTag,
            had_data: false,
            dirty: false,
            reused: false,
            downgraded: false,
            skew: self.skew_of(victim),
        });
    }

    // --- fills --------------------------------------------------------------

    /// Chooses the tag way for a new fill using load-aware skew selection;
    /// returns `(flat_index, sae)`. On an SAE the victim is evicted here.
    fn choose_fill_slot(
        &mut self,
        line: u64,
        requester: DomainId,
        wb: &mut Writebacks,
    ) -> (usize, bool) {
        let ways = self.config.ways_per_skew();
        let mut sets_buf = [0usize; MAX_SKEWS];
        let sets = &mut sets_buf[..self.config.skews];
        {
            let _derive = self.profiler.span(Component::IndexDerive);
            self.index.set_indices_into(line, sets);
        }
        let _repl = self.profiler.span(Component::Replacement);
        // Invalid-way counts per skew for this line's candidate sets.
        let mut best_skew = 0;
        let mut best_inv = 0;
        let mut ties = 0u32;
        for (skew, &set) in sets.iter().enumerate() {
            let inv = self.invalid_ways_in(skew, set);
            let better = match self.config.skew_selection {
                SkewSelection::LoadAware => inv > best_inv,
                SkewSelection::Random => false,
            };
            let tie = match self.config.skew_selection {
                SkewSelection::LoadAware => skew > 0 && inv == best_inv,
                SkewSelection::Random => skew > 0,
            };
            if skew == 0 || better {
                best_skew = skew;
                best_inv = inv;
                ties = 1;
            } else if tie {
                // Reservoir-sample among tied skews for an unbiased pick.
                ties += 1;
                if self.rng.gen_range(0..ties) == 0 {
                    best_skew = skew;
                    best_inv = inv;
                }
            }
        }
        let set = sets_buf[best_skew];
        let base = self.flat(best_skew, set, 0);
        if let Some(idx) = self.arena.first_invalid(base, ways) {
            return (idx, false);
        }
        // Set-associative eviction: every way of the chosen set is valid
        // (and, with load-aware selection, so is the other skew's set).
        // Evict a random priority-0 way if one exists, else a random way.
        self.stats.saes += 1;
        // Count-then-select keeps the pick allocation-free while drawing the
        // exact RNG value the old Vec-collecting code drew (the count equals
        // the collected length). Priority-0 in the packed key lane: valid,
        // no data (the REUSED bit may ride along on downgraded entries).
        let keys = self.arena.keys(base, ways);
        let p0_count = keys.iter().filter(|&&k| key::is_p0(k)).count();
        let way = if p0_count == 0 {
            self.rng.gen_range(0..ways)
        } else {
            let nth = self.rng.gen_range(0..p0_count);
            keys.iter()
                .enumerate()
                .filter(|&(_, &k)| key::is_p0(k))
                .map(|(w, _)| w)
                .nth(nth)
                .unwrap_or(0)
        };
        let idx = base + way;
        self.evict_any(idx, requester, EvictionCause::Sae, wb);
        (idx, true)
    }

    /// Evicts whatever occupies `tag_idx` (used only on the SAE path and
    /// flushes; `cause` distinguishes the two for the probe).
    fn evict_any(
        &mut self,
        tag_idx: usize,
        requester: DomainId,
        cause: EvictionCause,
        wb: &mut Writebacks,
    ) {
        let state = self.state(tag_idx);
        let reused = self.reused(tag_idx);
        match state {
            TagState::Invalid => {}
            TagState::Priority0 => {
                self.arena.p0_remove(tag_idx);
            }
            TagState::Priority1Clean | TagState::Priority1Dirty => {
                if state == TagState::Priority1Dirty {
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
            }
        }
        if state.is_valid() {
            // SAE evictions and flushes are the same protocol edge.
            self.set_state_checked(tag_idx, TagEvent::Flush, TagState::Invalid);
            // Lazy line read: see `global_data_eviction`.
            self.probe.emit_with(|| EventKind::Eviction {
                line: self.arena.tag(tag_idx),
                cause,
                had_data: state.has_data(),
                dirty: state == TagState::Priority1Dirty,
                reused,
                downgraded: false,
                skew: self.skew_of(tag_idx),
            });
        }
        self.arena.set_fptr(tag_idx, NONE);
    }

    /// Installs a priority-0 (tag-only) entry for a demand-read miss.
    fn install_p0(&mut self, line: u64, domain: DomainId, wb: &mut Writebacks) -> bool {
        let (idx, sae) = self.choose_fill_slot(line, domain, wb);
        debug_assert_eq!(
            transition(self.state(idx), TagEvent::DemandRead),
            Ok(TagState::Priority0),
            "fill slot {idx} was not invalid"
        );
        self.arena.install_tag(idx, line, meta::VALID, domain.0);
        self.arena.set_fptr(idx, NONE);
        self.arena.p0_insert(idx);
        self.stats.tag_fills += 1;
        self.probe.emit_with(|| EventKind::Fill {
            line,
            tag_only: true,
            skew: self.skew_of(idx),
        });
        self.global_tag_eviction_if_needed();
        sae
    }

    /// Installs a priority-1 dirty entry for a writeback miss.
    fn install_p1_dirty(&mut self, line: u64, domain: DomainId, wb: &mut Writebacks) -> bool {
        if self.arena.free_is_empty() {
            self.global_data_eviction(domain, wb);
        }
        let (idx, sae) = self.choose_fill_slot(line, domain, wb);
        debug_assert_eq!(
            transition(self.state(idx), TagEvent::Write),
            Ok(TagState::Priority1Dirty),
            "fill slot {idx} was not invalid"
        );
        self.arena
            .install_tag(idx, line, meta::VALID | meta::DATA | meta::DIRTY, domain.0);
        let d = self.arena.data_alloc(idx);
        self.arena.set_fptr(idx, d);
        self.stats.tag_fills += 1;
        self.stats.data_fills += 1;
        self.probe.emit_with(|| EventKind::Fill {
            line,
            tag_only: false,
            skew: self.skew_of(idx),
        });
        self.global_tag_eviction_if_needed();
        sae
    }

    /// Promotes a priority-0 entry to priority-1 on its first reuse.
    fn promote(&mut self, tag_idx: usize, kind: AccessKind, wb: &mut Writebacks) {
        let domain = DomainId(self.arena.sdid(tag_idx));
        let (event, new_state) = match kind {
            AccessKind::Read | AccessKind::Prefetch => {
                (TagEvent::DemandRead, TagState::Priority1Clean)
            }
            AccessKind::Writeback => (TagEvent::Write, TagState::Priority1Dirty),
        };
        self.set_state_checked(tag_idx, event, new_state);
        self.arena.p0_remove(tag_idx);
        if self.arena.free_is_empty() {
            self.global_data_eviction(domain, wb);
        }
        let d = self.arena.data_alloc(tag_idx);
        self.arena.set_fptr(tag_idx, d);
        self.arena.meta_and(tag_idx, !meta::REUSED);
        self.stats.data_fills += 1;
        // Lazy line read: see `global_data_eviction`.
        self.probe.emit_with(|| EventKind::Promotion {
            line: self.arena.tag(tag_idx),
        });
    }

    /// Exhaustively checks the structure's invariants, panicking on the
    /// first violation; used by tests and the property suite. Thin wrapper
    /// over [`CacheModel::audit`]. Not part of the public API contract.
    #[doc(hidden)]
    pub fn validate(&self) {
        if let Err(e) = self.audit() {
            panic!("MayaCache invariant violated: {e}");
        }
    }

    /// `(skew, set)` a flat tag index belongs to (inverse of [`flat`]).
    ///
    /// [`flat`]: MayaCache::flat
    #[inline]
    fn home_of(&self, flat_idx: usize) -> (usize, usize) {
        let ways = self.config.ways_per_skew();
        let skew = flat_idx / (self.config.sets_per_skew * ways);
        let set = (flat_idx / ways) % self.config.sets_per_skew;
        (skew, set)
    }
}

impl CacheModel for MayaCache {
    fn access(&mut self, req: Request) -> Response {
        match req.kind {
            AccessKind::Read | AccessKind::Prefetch => self.stats.reads += 1,
            AccessKind::Writeback => self.stats.writebacks_in += 1,
        }
        let mut wb = Writebacks::none();
        if let Some(i) = self.find(req.line, req.domain) {
            match self.state(i) {
                TagState::Priority1Clean | TagState::Priority1Dirty => {
                    match req.kind {
                        // Reuse (for dead-block stats) means a demand read.
                        AccessKind::Read => self.arena.meta_or(i, meta::REUSED),
                        AccessKind::Writeback => {
                            self.set_state_checked(i, TagEvent::Write, TagState::Priority1Dirty);
                        }
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
                TagState::Priority0 => {
                    // Only *demand* touches prove reuse. A prefetch hitting
                    // a tag-only entry promotes nothing — otherwise every
                    // prefetched stream line would be "promoted" by its
                    // single demand use, defeating the reuse filter.
                    if req.kind == AccessKind::Prefetch {
                        return Response {
                            event: AccessEvent::Miss,
                            writebacks: wb,
                            sae: false,
                        };
                    }
                    self.stats.tag_only_hits += 1;
                    let line = req.line;
                    self.probe.emit_with(|| EventKind::TagOnlyHit { line });
                    self.promote(i, req.kind, &mut wb);
                    return Response {
                        event: AccessEvent::TagHitPromoted,
                        writebacks: wb,
                        sae: false,
                    };
                }
                // `find()` only returns valid entries, but an injected tag
                // fault can invalidate one mid-flight; treat it as a miss
                // by falling through rather than aborting the access.
                TagState::Invalid => {}
            }
        }
        // Maya does not allocate for prefetch misses: speculative lines
        // live in the inner levels until a demand touch makes a case
        // for them. (Installing priority-0 here would let the
        // prefetch+demand pair of a dead streaming line masquerade as
        // reuse.)
        if req.kind == AccessKind::Prefetch {
            return Response {
                event: AccessEvent::Miss,
                writebacks: wb,
                sae: false,
            };
        }
        self.stats.tag_misses += 1;
        let line = req.line;
        self.probe.emit_with(|| EventKind::Miss { line });
        let sae = match req.kind {
            AccessKind::Read | AccessKind::Prefetch => {
                self.install_p0(req.line, req.domain, &mut wb)
            }
            AccessKind::Writeback => self.install_p1_dirty(req.line, req.domain, &mut wb),
        };
        Response {
            event: AccessEvent::Miss,
            writebacks: wb,
            sae,
        }
    }

    fn flush_line(&mut self, line: u64, domain: DomainId) -> bool {
        if let Some(i) = self.find(line, domain) {
            let mut wb = Writebacks::none();
            self.evict_any(i, domain, EvictionCause::Flush, &mut wb);
            self.stats.flushes += 1;
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
        self.find(line, domain)
            .map(|i| self.state(i).has_data())
            .unwrap_or(false)
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn extra_latency(&self) -> u32 {
        // Three cycles of PRINCE plus one cycle of tag-to-data indirection;
        // tag stores wider than the default 15 ways/skew (5 or 7 reuse
        // ways) pay one more tag-lookup cycle (paper Section III-C).
        4 + u32::from(self.config.ways_per_skew() > 15)
    }

    fn capacity_lines(&self) -> usize {
        self.config.data_entries()
    }

    fn name(&self) -> &'static str {
        "maya"
    }

    fn set_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    fn set_profiler(&mut self, profiler: ProfileHandle) {
        self.profiler = profiler.clone();
        self.index.set_profiler(profiler);
    }

    fn audit(&self) -> Result<(), String> {
        self.arena.audit_presence()?;
        let mut p0 = 0usize;
        let mut p1 = 0usize;
        for i in 0..self.arena.tag_entries() {
            let state = self.state(i);
            let tag = self.arena.tag(i);
            let fptr = self.arena.fptr(i);
            let p0_pos = self.arena.p0_pos(i);
            if state.is_valid() {
                // A valid tag must live in the set its address hashes to
                // under the current key — this is what catches stuck-at
                // faults in the tag array itself.
                let (skew, set) = self.home_of(i);
                let home = self.index.set_index(skew, tag);
                if home != set {
                    return Err(format!(
                        "tag {i} (line {tag:#x}) sits in skew {skew} set {set} but hashes to {home}"
                    ));
                }
            }
            match state {
                TagState::Invalid => {
                    // Invalid entries must hold no pointers: a stale fptr
                    // would double-map a data entry on the next fill, and a
                    // stale p0_pos would corrupt the p0 list's swap_remove.
                    if fptr != NONE {
                        return Err(format!("invalid tag {i} still holds fptr {fptr}"));
                    }
                    if p0_pos != NONE {
                        return Err(format!("invalid tag {i} still holds p0_pos {p0_pos}"));
                    }
                }
                TagState::Priority0 => {
                    p0 += 1;
                    let pos = p0_pos as usize;
                    if pos >= self.arena.p0_list.len() {
                        return Err(format!("tag {i}: stale p0_pos {pos}"));
                    }
                    if self.arena.p0_list[pos] as usize != i {
                        return Err(format!(
                            "tag {i}: p0 back-index broken (p0_list[{pos}] = {})",
                            self.arena.p0_list[pos]
                        ));
                    }
                    if fptr != NONE {
                        return Err(format!("priority-0 tag {i} holds data pointer {fptr}"));
                    }
                }
                TagState::Priority1Clean | TagState::Priority1Dirty => {
                    p1 += 1;
                    let d = fptr as usize;
                    if d >= self.arena.data_entries() {
                        return Err(format!("tag {i}: fptr {d} out of range"));
                    }
                    if self.arena.rptr(d) as usize != i {
                        return Err(format!(
                            "tag {i}: fptr/rptr mismatch (rptr[{d}] = {})",
                            self.arena.rptr(d)
                        ));
                    }
                    if p0_pos != NONE {
                        return Err(format!("priority-1 tag {i} still holds p0_pos {p0_pos}"));
                    }
                }
            }
        }
        if p0 != self.arena.p0_list.len() {
            return Err(format!(
                "p0 population mismatch: {p0} tags vs {} listed",
                self.arena.p0_list.len()
            ));
        }
        if p1 != self.arena.allocated.len() {
            return Err(format!(
                "p1 population mismatch: {p1} tags vs {} allocated",
                self.arena.allocated.len()
            ));
        }
        if p0 > self.config.p0_capacity() {
            return Err(format!(
                "p0 population {p0} exceeds capacity {}",
                self.config.p0_capacity()
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
        // Reverse direction of the fptr/rptr bijection, plus the back-index
        // array that makes O(1) random data eviction possible. `on_list`
        // doubles as the conservation check below: every data entry must
        // sit on exactly one of the allocated/free lists.
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
            FaultKind::PriorityFlip => {
                if !self.arena.allocated.is_empty() {
                    let d = self.arena.allocated[rng.gen_range(0..self.arena.allocated.len())];
                    let i = self.arena.rptr(d as usize) as usize;
                    // Flip P1 -> P0 leaving the forward pointer behind: the
                    // entry now claims to be tag-only while still owning data.
                    let m = (self.arena.meta(i) & meta::REUSED) | meta::VALID;
                    self.arena.set_meta(i, m);
                    Some(format!("tag {i}: priority bit flipped P1 -> P0"))
                } else if !self.arena.p0_list.is_empty() {
                    let i = self.arena.p0_list[rng.gen_range(0..self.arena.p0_list.len())] as usize;
                    // Flip P0 -> P1 without allocating data: fptr stays NONE.
                    let m = (self.arena.meta(i) & meta::REUSED) | meta::VALID | meta::DATA;
                    self.arena.set_meta(i, m);
                    Some(format!("tag {i}: priority bit flipped P0 -> P1"))
                } else {
                    None
                }
            }
            FaultKind::ValidDrop => {
                let i = if !self.arena.allocated.is_empty() {
                    let d = self.arena.allocated[rng.gen_range(0..self.arena.allocated.len())];
                    self.arena.rptr(d as usize) as usize
                } else if !self.arena.p0_list.is_empty() {
                    self.arena.p0_list[rng.gen_range(0..self.arena.p0_list.len())] as usize
                } else {
                    return None;
                };
                // Clear the valid bit without releasing what the entry owns.
                self.arena.meta_and(i, meta::REUSED);
                Some(format!("tag {i}: valid bit dropped, bookkeeping leaked"))
            }
            FaultKind::DirtyFlip => {
                if self.arena.allocated.is_empty() {
                    return None;
                }
                let d = self.arena.allocated[rng.gen_range(0..self.arena.allocated.len())];
                let i = self.arena.rptr(d as usize) as usize;
                let s = self.state(i);
                self.arena.meta_xor(i, meta::DIRTY);
                Some(format!("tag {i}: dirty bit flipped from {s:?}"))
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
                let i = if !self.arena.allocated.is_empty() {
                    let d = self.arena.allocated[rng.gen_range(0..self.arena.allocated.len())];
                    self.arena.rptr(d as usize) as usize
                } else if !self.arena.p0_list.is_empty() {
                    self.arena.p0_list[rng.gen_range(0..self.arena.p0_list.len())] as usize
                } else {
                    return None;
                };
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
                // A power cut mid-rekey: skew 0 was already wiped for the
                // new key, skew 1+ still holds old-key entries, and none of
                // the shared bookkeeping was updated.
                let per_skew = self.config.sets_per_skew * self.config.ways_per_skew();
                let mut wiped = 0usize;
                for i in 0..per_skew {
                    if self.state(i).is_valid() {
                        self.arena.meta_and(i, meta::REUSED);
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
        self.arena.p0_list.clear();
        for i in 0..self.arena.tag_entries() {
            let state = self.state(i);
            let fptr = self.arena.fptr(i);
            let p0_pos = self.arena.p0_pos(i);
            if state.is_valid() {
                let (skew, set) = self.home_of(i);
                if self.index.set_index(skew, self.arena.tag(i)) != set {
                    // Mis-homed tag: unreachable by lookup, drop it.
                    self.clear_tag(i);
                    repaired += 1;
                    continue;
                }
            }
            match state {
                TagState::Invalid => {
                    if fptr != NONE || p0_pos != NONE {
                        self.clear_tag(i);
                        repaired += 1;
                    }
                }
                TagState::Priority0 => {
                    if fptr != NONE {
                        self.arena.set_fptr(i, NONE);
                        repaired += 1;
                    }
                    self.arena.set_p0_pos(i, self.arena.p0_list.len() as u32);
                    self.arena.p0_list.push(i as u32);
                }
                TagState::Priority1Clean | TagState::Priority1Dirty => {
                    let d = fptr as usize;
                    if fptr == NONE || d >= n || claimed[d] != NONE {
                        self.clear_tag(i);
                        repaired += 1;
                    } else {
                        claimed[d] = i as u32;
                        if p0_pos != NONE {
                            self.arena.set_p0_pos(i, NONE);
                            repaired += 1;
                        }
                    }
                }
            }
        }
        // A flipped priority bit can push the P0 population over its target;
        // trim deterministically from the end of the rebuilt list.
        while self.arena.p0_list.len() > self.config.p0_capacity() {
            let victim = self.arena.p0_list.pop().expect("list non-empty") as usize;
            self.clear_tag(victim);
            repaired += 1;
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

    fn tiny() -> MayaCache {
        // 2 skews * 16 sets * (3 base + 2 reuse + 3 invalid) ways.
        MayaCache::new(MayaConfig {
            sets_per_skew: 16,
            skews: 2,
            base_ways_per_skew: 3,
            reuse_ways_per_skew: 2,
            invalid_ways_per_skew: 3,
            skew_selection: SkewSelection::LoadAware,
            seed: 11,
        })
    }

    #[test]
    fn read_path_miss_promote_hit() {
        let mut c = tiny();
        let d = DomainId(0);
        assert_eq!(c.access(Request::read(1, d)).event, AccessEvent::Miss);
        assert_eq!(c.tag_state(1, d), Some(TagState::Priority0));
        assert!(!c.probe(1, d), "priority-0 entries must not serve data");
        assert_eq!(
            c.access(Request::read(1, d)).event,
            AccessEvent::TagHitPromoted
        );
        assert_eq!(c.tag_state(1, d), Some(TagState::Priority1Clean));
        assert!(c.probe(1, d));
        assert_eq!(c.access(Request::read(1, d)).event, AccessEvent::DataHit);
        c.validate();
    }

    #[test]
    fn writeback_miss_installs_dirty_p1_directly() {
        let mut c = tiny();
        let d = DomainId(0);
        assert_eq!(c.access(Request::writeback(5, d)).event, AccessEvent::Miss);
        assert_eq!(c.tag_state(5, d), Some(TagState::Priority1Dirty));
        assert!(c.probe(5, d));
        c.validate();
    }

    #[test]
    fn writeback_to_p0_promotes_to_dirty() {
        let mut c = tiny();
        let d = DomainId(0);
        c.access(Request::read(5, d));
        assert_eq!(
            c.access(Request::writeback(5, d)).event,
            AccessEvent::TagHitPromoted
        );
        assert_eq!(c.tag_state(5, d), Some(TagState::Priority1Dirty));
        c.validate();
    }

    #[test]
    fn write_hit_dirties_clean_p1() {
        let mut c = tiny();
        let d = DomainId(0);
        c.access(Request::read(5, d));
        c.access(Request::read(5, d)); // promote clean
        assert_eq!(c.tag_state(5, d), Some(TagState::Priority1Clean));
        c.access(Request::writeback(5, d));
        assert_eq!(c.tag_state(5, d), Some(TagState::Priority1Dirty));
        c.validate();
    }

    #[test]
    fn p0_population_never_exceeds_capacity() {
        let mut c = tiny();
        let cap = c.config().p0_capacity();
        for a in 0..10_000u64 {
            c.access(Request::read(a, DomainId(0)));
            assert!(c.p0_count() <= cap);
        }
        assert_eq!(c.p0_count(), cap, "steady state should pin p0 at capacity");
        assert!(c.stats().global_tag_evictions > 0);
        c.validate();
    }

    #[test]
    fn data_store_fills_only_on_reuse() {
        let mut c = tiny();
        // A pure streaming scan never promotes anything.
        for a in 0..10_000u64 {
            c.access(Request::read(a, DomainId(0)));
        }
        assert_eq!(c.p1_count(), 0, "streaming must not occupy the data store");
        assert_eq!(c.stats().data_fills, 0);
        c.validate();
    }

    #[test]
    fn reused_working_set_occupies_data_store() {
        let mut c = tiny();
        let d = DomainId(0);
        let ws = 20u64;
        for _ in 0..4 {
            for a in 0..ws {
                c.access(Request::read(a, d));
            }
        }
        assert_eq!(c.p1_count(), ws as usize);
        for a in 0..ws {
            assert!(c.access(Request::read(a, d)).is_data_hit());
        }
        c.validate();
    }

    #[test]
    fn global_data_eviction_downgrades_victims() {
        let mut c = tiny();
        let d = DomainId(0);
        let cap = c.capacity_lines() as u64;
        // Promote far more lines than the data store holds.
        for a in 0..(4 * cap) {
            c.access(Request::read(a, d));
            c.access(Request::read(a, d));
        }
        assert_eq!(c.p1_count(), cap as usize);
        assert!(c.stats().global_data_evictions > 0);
        c.validate();
    }

    #[test]
    fn no_sae_under_heavy_mixed_load() {
        // Paper-level invalid-tag provisioning (6 invalid ways/skew); the
        // `tiny()` config deliberately under-provisions to exercise SAEs.
        let mut c = MayaCache::new(MayaConfig {
            sets_per_skew: 16,
            skews: 2,
            base_ways_per_skew: 3,
            reuse_ways_per_skew: 2,
            invalid_ways_per_skew: 6,
            skew_selection: SkewSelection::LoadAware,
            seed: 11,
        });
        let d = DomainId(0);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100_000 {
            let a = rng.gen_range(0..4096u64);
            if rng.gen_bool(0.2) {
                c.access(Request::writeback(a, d));
            } else {
                c.access(Request::read(a, d));
            }
        }
        assert_eq!(
            c.stats().saes,
            0,
            "3 invalid ways/skew should suffice at this scale"
        );
        c.validate();
    }

    #[test]
    fn sdid_isolates_domains() {
        let mut c = tiny();
        c.access(Request::read(1, DomainId(0)));
        c.access(Request::read(1, DomainId(0)));
        assert!(c.probe(1, DomainId(0)));
        assert!(!c.probe(1, DomainId(1)));
        assert_eq!(c.tag_state(1, DomainId(1)), None);
        // Domain 1's flush cannot remove domain 0's copy.
        assert!(!c.flush_line(1, DomainId(1)));
        assert!(c.probe(1, DomainId(0)));
        c.validate();
    }

    #[test]
    fn flush_line_writes_back_dirty_data() {
        let mut c = tiny();
        let d = DomainId(0);
        c.access(Request::writeback(9, d));
        assert!(c.flush_line(9, d));
        assert_eq!(c.stats().writebacks_out, 1);
        assert_eq!(c.tag_state(9, d), None);
        c.validate();
    }

    #[test]
    fn rekey_flushes_everything() {
        let mut c = tiny();
        for a in 0..100u64 {
            c.access(Request::read(a, DomainId(0)));
            c.access(Request::read(a, DomainId(0)));
        }
        c.rekey(1234);
        assert_eq!(c.p0_count(), 0);
        assert_eq!(c.p1_count(), 0);
        for a in 0..100u64 {
            assert_eq!(c.tag_state(a, DomainId(0)), None);
        }
        c.validate();
    }

    #[test]
    fn dirty_victims_of_global_data_eviction_write_back() {
        let mut c = tiny();
        let d = DomainId(0);
        let cap = c.capacity_lines() as u64;
        for a in 0..(3 * cap) {
            c.access(Request::writeback(a, d));
        }
        assert!(c.stats().writebacks_out > 0);
        c.validate();
    }
}
