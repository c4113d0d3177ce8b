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
use rand::Rng;

use maya_obs::{Component, EvictionCause, ProbeHandle, ProfileHandle};

use crate::cache::{CacheModel, FaultKind};
use crate::decoupled::{CandidateSets, DecoupledStore};
use crate::mirage::SkewSelection;
use crate::storage::{key, meta, NONE};
use crate::types::{
    AccessEvent, AccessKind, CacheStats, DomainId, Request, Response, Victim, Writebacks,
};

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
    /// The decoupled tag/data store (see [`crate::decoupled`]): the hot
    /// way scan walks the arena's compact tag lane, and the priority-0 /
    /// allocated / free lists live inside it. Maya encodes its `TagState`
    /// in the arena's packed meta lane (see [`meta_bits`]).
    store: DecoupledStore,
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
        assert!(config.skews >= 2, "Maya requires at least two skews");
        assert!(config.base_ways_per_skew > 0, "base ways must be positive");
        assert!(
            config.reuse_ways_per_skew > 0,
            "reuse ways must be positive"
        );
        let mut store = DecoupledStore::new(
            config.skews,
            config.sets_per_skew,
            config.ways_per_skew(),
            config.data_entries(),
            config.seed,
            0x6d61_7961,
        );
        // Presence filter sized at ~8 slots per tag entry: under full
        // occupancy a random absent line sees a zero counter (a proven
        // miss, skipping index derivation and both skews' key lines)
        // roughly 9 times out of 10.
        store
            .arena
            .enable_presence((config.tag_entries() * 8).next_power_of_two());
        Self { config, store }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &MayaConfig {
        &self.config
    }

    /// Current number of priority-0 (tag-only) entries.
    pub fn p0_count(&self) -> usize {
        self.store.arena.p0_list.len()
    }

    /// Current number of priority-1 (tag + data) entries.
    pub fn p1_count(&self) -> usize {
        self.store.arena.allocated.len()
    }

    /// The state of the tag entry for `line` in `domain`, if one exists.
    pub fn tag_state(&self, line: u64, domain: DomainId) -> Option<TagState> {
        self.store.find(line, domain).map(|i| self.state(i))
    }

    /// Re-keys the index function and flushes the cache — the paper's
    /// response to an observed SAE.
    pub fn rekey(&mut self, new_seed: u64) {
        self.store.rekey(new_seed);
    }

    /// Decoded state of tag entry `i`.
    #[inline]
    fn state(&self, i: usize) -> TagState {
        state_bits(self.store.arena.meta(i))
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
        let m = (self.store.arena.meta(tag_idx) & meta::REUSED) | meta_bits(new_state);
        self.store.arena.set_meta(tag_idx, m);
    }

    /// Resets tag entry `i` to the invalid, pointer-free default.
    fn clear_tag(&mut self, i: usize) {
        let a = &mut self.store.arena;
        a.set_tag(i, 0);
        a.set_meta(i, 0);
        a.set_sdid(i, DomainId::ANY.0);
        a.set_fptr(i, NONE);
        a.set_p0_pos(i, NONE);
    }

    // --- the two global random eviction policies ---------------------------

    /// Global random data eviction: a uniformly random priority-1 entry is
    /// downgraded to priority-0 and its data entry released. Dirty data is
    /// written back.
    fn global_data_eviction(&mut self, requester: DomainId, wb: &mut Writebacks) {
        let _repl = self.store.profiler.span(Component::Replacement);
        let (d, tag_idx) = self.store.data_victim();
        let state = self.state(tag_idx);
        debug_assert!(state.has_data());
        let v = Victim {
            downgraded: true,
            ..self
                .store
                .victim(tag_idx, state == TagState::Priority1Dirty)
        };
        // Free the drawn slot, not the tag's forward pointer: the two
        // differ once that pointer is corrupted.
        self.store.arena.data_free(d);
        self.set_state_checked(tag_idx, TagEvent::GlobalDataEviction, TagState::Priority0);
        let s = &mut self.store;
        s.arena.set_fptr(tag_idx, NONE);
        s.arena.p0_insert(tag_idx);
        // Nothing above writes the tag lane, so the recorder's lazy line
        // read sees the evicted line.
        s.record_eviction(tag_idx, v, EvictionCause::GlobalData, requester, wb);
    }

    /// Global random tag eviction: a uniformly random priority-0 entry is
    /// invalidated. Runs only when the priority-0 population exceeds its
    /// steady-state target (so the reuse ways fill up first, as in the
    /// paper).
    fn global_tag_eviction_if_needed(&mut self, requester: DomainId, wb: &mut Writebacks) {
        if self.store.arena.p0_list.len() <= self.config.p0_capacity() {
            return;
        }
        let s = &mut self.store;
        let _repl = s.profiler.span(Component::Replacement);
        let victim = s.arena.p0_list[s.rng.gen_range(0..s.arena.p0_list.len())] as usize;
        s.arena.p0_remove(victim);
        self.set_state_checked(victim, TagEvent::GlobalTagEviction, TagState::Invalid);
        let v = Victim {
            had_data: false,
            reused: false,
            ..self.store.victim(victim, false)
        };
        let s = &mut self.store;
        s.record_eviction(victim, v, EvictionCause::GlobalTag, requester, wb);
    }

    // --- fills --------------------------------------------------------------

    /// Chooses the tag way for a new fill of `c`'s line using load-aware
    /// skew selection; returns `(flat_index, sae)`. On an SAE the victim is
    /// evicted here.
    fn choose_fill_slot(
        &mut self,
        c: &mut CandidateSets,
        requester: DomainId,
        wb: &mut Writebacks,
    ) -> (usize, bool) {
        let s = &mut self.store;
        let ways = s.ways_per_skew;
        let sets = s.candidate_sets(c);
        let _repl = s.profiler.span(Component::Replacement);
        // Invalid-way counts per skew for this line's candidate sets.
        let mut best_skew = 0;
        let mut best_inv = 0;
        let mut ties = 0u32;
        for (skew, &set) in sets.iter().enumerate() {
            let inv = s.invalid_ways_in(skew, set);
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
                if s.rng.gen_range(0..ties) == 0 {
                    best_skew = skew;
                    best_inv = inv;
                }
            }
        }
        let base = s.base(best_skew, sets[best_skew]);
        if let Some(idx) = s.arena.first_invalid(base, ways) {
            return (idx, false);
        }
        // Set-associative eviction: every way of the chosen set is valid
        // (and, with load-aware selection, so is the other skew's set).
        // Evict a random priority-0 way if one exists, else a random way.
        // Count-then-select keeps the pick allocation-free while drawing the
        // exact RNG value the old Vec-collecting code drew (the count equals
        // the collected length). Priority-0 in the packed key lane: valid,
        // no data (the REUSED bit may ride along on downgraded entries).
        let keys = s.arena.keys(base, ways);
        let p0_count = keys.iter().filter(|&&k| key::is_p0(k)).count();
        let way = if p0_count == 0 {
            s.rng.gen_range(0..ways)
        } else {
            let nth = s.rng.gen_range(0..p0_count);
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
        let v = Victim {
            had_data: state.has_data(),
            ..self
                .store
                .victim(tag_idx, state == TagState::Priority1Dirty)
        };
        match state {
            TagState::Invalid => {}
            TagState::Priority0 => self.store.arena.p0_remove(tag_idx),
            TagState::Priority1Clean | TagState::Priority1Dirty => {
                let d = self.store.arena.fptr(tag_idx);
                self.store.arena.data_free(d);
            }
        }
        if state.is_valid() {
            // SAE evictions and flushes are the same protocol edge.
            self.set_state_checked(tag_idx, TagEvent::Flush, TagState::Invalid);
            self.store.record_eviction(tag_idx, v, cause, requester, wb);
        }
        self.store.arena.set_fptr(tag_idx, NONE);
    }

    /// Installs a priority-0 (tag-only) entry for a demand-read miss of
    /// `c`'s line.
    fn install_p0(&mut self, c: &mut CandidateSets, domain: DomainId, wb: &mut Writebacks) -> bool {
        let line = c.line();
        let (idx, sae) = self.choose_fill_slot(c, domain, wb);
        debug_assert_eq!(
            transition(self.state(idx), TagEvent::DemandRead),
            Ok(TagState::Priority0),
            "fill slot {idx} was not invalid"
        );
        let s = &mut self.store;
        s.arena.install_tag(idx, line, meta::VALID, domain.0);
        s.arena.set_fptr(idx, NONE);
        s.arena.p0_insert(idx);
        s.record_fill(idx, line, true);
        self.global_tag_eviction_if_needed(domain, wb);
        sae
    }

    /// Installs a priority-1 dirty entry for a writeback miss of `c`'s
    /// line.
    fn install_p1_dirty(
        &mut self,
        c: &mut CandidateSets,
        domain: DomainId,
        wb: &mut Writebacks,
    ) -> bool {
        let line = c.line();
        if self.store.arena.free_is_empty() {
            self.global_data_eviction(domain, wb);
        }
        let (idx, sae) = self.choose_fill_slot(c, domain, wb);
        debug_assert_eq!(
            transition(self.state(idx), TagEvent::Write),
            Ok(TagState::Priority1Dirty),
            "fill slot {idx} was not invalid"
        );
        let s = &mut self.store;
        s.arena
            .install_tag(idx, line, meta::VALID | meta::DATA | meta::DIRTY, domain.0);
        let d = s.arena.data_alloc(idx);
        s.arena.set_fptr(idx, d);
        s.record_fill(idx, line, false);
        self.global_tag_eviction_if_needed(domain, wb);
        sae
    }

    /// Promotes a priority-0 entry to priority-1 on its first reuse.
    fn promote(&mut self, tag_idx: usize, kind: AccessKind, wb: &mut Writebacks) {
        let domain = DomainId(self.store.arena.sdid(tag_idx));
        let (event, new_state) = match kind {
            AccessKind::Read | AccessKind::Prefetch => {
                (TagEvent::DemandRead, TagState::Priority1Clean)
            }
            AccessKind::Writeback => (TagEvent::Write, TagState::Priority1Dirty),
        };
        self.set_state_checked(tag_idx, event, new_state);
        self.store.arena.p0_remove(tag_idx);
        if self.store.arena.free_is_empty() {
            self.global_data_eviction(domain, wb);
        }
        let s = &mut self.store;
        let d = s.arena.data_alloc(tag_idx);
        s.arena.set_fptr(tag_idx, d);
        s.arena.meta_and(tag_idx, !meta::REUSED);
        s.rec.promote(|| s.arena.tag(tag_idx));
    }
}

impl CacheModel for MayaCache {
    fn access(&mut self, req: Request) -> Response {
        self.store.rec.request(req.kind);
        let mut wb = Writebacks::none();
        let mut c = CandidateSets::new(req.line);
        if let Some(i) = self.store.find_in(&mut c, req.domain) {
            match self.state(i) {
                TagState::Priority1Clean | TagState::Priority1Dirty => {
                    match req.kind {
                        // Reuse (for dead-block stats) means a demand read.
                        AccessKind::Read => self.store.arena.meta_or(i, meta::REUSED),
                        AccessKind::Writeback => {
                            self.set_state_checked(i, TagEvent::Write, TagState::Priority1Dirty);
                        }
                        AccessKind::Prefetch => {}
                    }
                    self.store.rec.hit(req.line);
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
                    self.store.rec.tag_only_hit(req.line);
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
        self.store.rec.miss(req.line);
        let sae = match req.kind {
            AccessKind::Read | AccessKind::Prefetch => self.install_p0(&mut c, req.domain, &mut wb),
            AccessKind::Writeback => self.install_p1_dirty(&mut c, req.domain, &mut wb),
        };
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
        self.evict_any(i, domain, EvictionCause::Flush, &mut Writebacks::none());
        true
    }

    fn flush_all(&mut self) {
        self.store.flush_all();
    }

    fn probe(&self, line: u64, domain: DomainId) -> bool {
        self.store
            .find(line, domain)
            .map(|i| self.state(i).has_data())
            .unwrap_or(false)
    }

    fn stats(&self) -> &CacheStats {
        self.store.rec.stats()
    }

    fn reset_stats(&mut self) {
        self.store.rec.reset();
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
        self.store.rec.set_probe(probe);
    }

    fn set_profiler(&mut self, profiler: ProfileHandle) {
        self.store.set_profiler(profiler);
    }

    fn audit(&self) -> Result<(), String> {
        let s = &self.store;
        s.arena.audit_presence()?;
        let mut p0 = 0usize;
        let mut p1 = 0usize;
        for i in 0..s.arena.tag_entries() {
            let state = self.state(i);
            let fptr = s.arena.fptr(i);
            let p0_pos = s.arena.p0_pos(i);
            if state.is_valid() {
                s.check_home(i)?;
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
                    if pos >= s.arena.p0_list.len() {
                        return Err(format!("tag {i}: stale p0_pos {pos}"));
                    }
                    if s.arena.p0_list[pos] as usize != i {
                        return Err(format!(
                            "tag {i}: p0 back-index broken (p0_list[{pos}] = {})",
                            s.arena.p0_list[pos]
                        ));
                    }
                    if fptr != NONE {
                        return Err(format!("priority-0 tag {i} holds data pointer {fptr}"));
                    }
                }
                TagState::Priority1Clean | TagState::Priority1Dirty => {
                    p1 += 1;
                    s.check_fptr(i)?;
                    if p0_pos != NONE {
                        return Err(format!("priority-1 tag {i} still holds p0_pos {p0_pos}"));
                    }
                }
            }
        }
        if p0 != s.arena.p0_list.len() {
            return Err(format!(
                "p0 population mismatch: {p0} tags vs {} listed",
                s.arena.p0_list.len()
            ));
        }
        if p1 != s.arena.allocated.len() {
            return Err(format!(
                "p1 population mismatch: {p1} tags vs {} allocated",
                s.arena.allocated.len()
            ));
        }
        if p0 > self.config.p0_capacity() {
            return Err(format!(
                "p0 population {p0} exceeds capacity {}",
                self.config.p0_capacity()
            ));
        }
        s.audit_data()
    }

    fn inject_fault(&mut self, kind: FaultKind, rng: &mut SmallRng) -> Option<String> {
        match kind {
            FaultKind::PriorityFlip => {
                if let Some((_, i)) = self.store.fault_slot(rng) {
                    // Flip P1 -> P0 leaving the forward pointer behind: the
                    // entry now claims to be tag-only while still owning data.
                    let a = &mut self.store.arena;
                    a.set_meta(i, (a.meta(i) & meta::REUSED) | meta::VALID);
                    Some(format!("tag {i}: priority bit flipped P1 -> P0"))
                } else if !self.store.arena.p0_list.is_empty() {
                    let a = &mut self.store.arena;
                    let i = a.p0_list[rng.gen_range(0..a.p0_list.len())] as usize;
                    // Flip P0 -> P1 without allocating data: fptr stays NONE.
                    a.set_meta(i, (a.meta(i) & meta::REUSED) | meta::VALID | meta::DATA);
                    Some(format!("tag {i}: priority bit flipped P0 -> P1"))
                } else {
                    None
                }
            }
            FaultKind::ValidDrop => {
                let i = self.store.fault_tag(rng)?;
                // Clear the valid bit without releasing what the entry owns.
                self.store.arena.meta_and(i, meta::REUSED);
                Some(format!("tag {i}: valid bit dropped, bookkeeping leaked"))
            }
            FaultKind::DirtyFlip => {
                let (_, i) = self.store.fault_slot(rng)?;
                let s = self.state(i);
                self.store.arena.meta_xor(i, meta::DIRTY);
                Some(format!("tag {i}: dirty bit flipped from {s:?}"))
            }
            FaultKind::PointerCorrupt => self.store.corrupt_pointer(rng),
            FaultKind::TagBit => self.store.stick_tag_bit(rng),
            FaultKind::InterruptedRekey => self.store.interrupt_rekey(meta::REUSED),
        }
    }

    fn quarantine(&mut self) -> u64 {
        let mut repaired = 0u64;
        let mut claimed = vec![NONE; self.config.data_entries()];
        self.store.arena.p0_list.clear();
        for i in 0..self.store.arena.tag_entries() {
            let state = self.state(i);
            let fptr = self.store.arena.fptr(i);
            let p0_pos = self.store.arena.p0_pos(i);
            if state.is_valid() && !self.store.homed(i) {
                // Mis-homed tag: unreachable by lookup, drop it.
                self.clear_tag(i);
                repaired += 1;
                continue;
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
                        self.store.arena.set_fptr(i, NONE);
                        repaired += 1;
                    }
                    self.store.arena.p0_insert(i);
                }
                TagState::Priority1Clean | TagState::Priority1Dirty => {
                    if !self.store.claim(&mut claimed, i) {
                        self.clear_tag(i);
                        repaired += 1;
                    } else if p0_pos != NONE {
                        self.store.arena.set_p0_pos(i, NONE);
                        repaired += 1;
                    }
                }
            }
        }
        // A flipped priority bit can push the P0 population over its target;
        // trim deterministically from the end of the rebuilt list.
        while self.store.arena.p0_list.len() > self.config.p0_capacity() {
            let victim = self.store.arena.p0_list.pop().expect("list non-empty") as usize;
            self.clear_tag(victim);
            repaired += 1;
        }
        self.store.rebuild_data(&claimed);
        repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
        c.audit().expect("MayaCache invariant violated");
    }

    #[test]
    fn writeback_miss_installs_dirty_p1_directly() {
        let mut c = tiny();
        let d = DomainId(0);
        assert_eq!(c.access(Request::writeback(5, d)).event, AccessEvent::Miss);
        assert_eq!(c.tag_state(5, d), Some(TagState::Priority1Dirty));
        assert!(c.probe(5, d));
        c.audit().expect("MayaCache invariant violated");
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
        c.audit().expect("MayaCache invariant violated");
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
        c.audit().expect("MayaCache invariant violated");
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
        c.audit().expect("MayaCache invariant violated");
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
        c.audit().expect("MayaCache invariant violated");
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
        c.audit().expect("MayaCache invariant violated");
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
        c.audit().expect("MayaCache invariant violated");
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
        c.audit().expect("MayaCache invariant violated");
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
        c.audit().expect("MayaCache invariant violated");
    }

    #[test]
    fn flush_line_writes_back_dirty_data() {
        let mut c = tiny();
        let d = DomainId(0);
        c.access(Request::writeback(9, d));
        assert!(c.flush_line(9, d));
        assert_eq!(c.stats().writebacks_out, 1);
        assert_eq!(c.tag_state(9, d), None);
        c.audit().expect("MayaCache invariant violated");
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
        c.audit().expect("MayaCache invariant violated");
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
        c.audit().expect("MayaCache invariant violated");
    }
}
