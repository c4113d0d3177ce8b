//! The conventional set-associative cache: the paper's non-secure baseline
//! (16-way, SRRIP at the LLC) and — through [`Partitioning`] — the
//! secure-partitioning baselines of Table XI (DAWG way-partitioning,
//! page-coloring set-partitioning, BCE-style flexible set-partitioning).
//! The simulator's private L1/L2 are the lean `champsim_lite::PrivateCache`
//! over the same [`SetStore`], pinned to this model's LRU behaviour by twin
//! tests.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use maya_obs::{EvictionCause, ProbeHandle};

use crate::cache::{stuck_tag_bit, CacheModel, FaultKind};
use crate::replacement::{Policy, ReplacementState};
use crate::sets::{key, meta, SetStore};
use crate::types::{
    AccessEvent, AccessKind, CacheStats, DomainId, Recorder, Request, Response, Victim, Writebacks,
};

/// How the cache is divided among security domains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioning {
    /// Unpartitioned: every domain sees every set and way (non-secure).
    None,
    /// DAWG-style: each domain owns a contiguous range of ways in every set.
    /// `assignments[d] = (first_way, n_ways)` for domain `d`.
    Ways(Vec<(usize, usize)>),
    /// Page-coloring / BCE-style: each domain owns a contiguous range of
    /// sets. `assignments[d] = (first_set, n_sets)`; `n_sets` must be a
    /// power of two.
    Sets(Vec<(usize, usize)>),
}

/// Configuration of a [`SetAssocCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAssocConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Replacement policy.
    pub policy: Policy,
    /// Domain partitioning, if any.
    pub partitioning: Partitioning,
    /// RNG seed (used by random replacement).
    pub seed: u64,
}

impl SetAssocConfig {
    /// A convenient unpartitioned configuration.
    pub fn new(sets: usize, ways: usize, policy: Policy) -> Self {
        Self {
            sets,
            ways,
            policy,
            partitioning: Partitioning::None,
            seed: 0x5e7_a550c,
        }
    }
}

/// A set-associative cache with pluggable replacement and optional
/// domain partitioning.
///
/// # Examples
///
/// ```
/// use maya_core::{SetAssocCache, SetAssocConfig, Policy, CacheModel, Request, DomainId};
///
/// let mut llc = SetAssocCache::new(SetAssocConfig::new(1024, 16, Policy::Srrip));
/// let d = DomainId::ANY;
/// assert!(!llc.access(Request::read(0x42, d)).is_data_hit()); // cold miss
/// assert!(llc.access(Request::read(0x42, d)).is_data_hit()); // now cached
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: SetAssocConfig,
    /// Key and tag lanes, set `s` at entries `[s * ways, (s + 1) * ways)`:
    /// the hit scan walks the packed key lane and reads a tag only to
    /// confirm a filter match.
    lines: SetStore,
    repl: ReplacementState,
    rec: Recorder,
    rng: SmallRng,
    set_mask: u64,
}

impl SetAssocCache {
    /// Builds the cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, if a way partition exceeds the
    /// associativity, or if a set partition exceeds the set count or has a
    /// non-power-of-two size.
    pub fn new(config: SetAssocConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(config.ways > 0, "ways must be positive");
        match &config.partitioning {
            Partitioning::None => {}
            Partitioning::Ways(parts) => {
                for &(first, n) in parts {
                    assert!(
                        n > 0 && first + n <= config.ways,
                        "way partition out of range"
                    );
                }
            }
            Partitioning::Sets(parts) => {
                for &(first, n) in parts {
                    assert!(
                        n.is_power_of_two(),
                        "set partition sizes must be powers of two"
                    );
                    assert!(first + n <= config.sets, "set partition out of range");
                }
            }
        }
        Self {
            lines: SetStore::new(config.sets * config.ways),
            repl: ReplacementState::new(config.policy, config.sets, config.ways),
            rec: Recorder::default(),
            rng: SmallRng::seed_from_u64(config.seed),
            set_mask: config.sets as u64 - 1,
            config,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &SetAssocConfig {
        &self.config
    }

    /// Maps a line address to its set for the given domain.
    fn set_of(&self, line: u64, domain: DomainId) -> usize {
        match &self.config.partitioning {
            Partitioning::None | Partitioning::Ways(_) => (line & self.set_mask) as usize,
            Partitioning::Sets(parts) => {
                let (first, n) = parts[domain.0 as usize];
                first + (line as usize & (n - 1))
            }
        }
    }

    /// The way range domain `domain` may occupy.
    fn way_range(&self, domain: DomainId) -> (usize, usize) {
        match &self.config.partitioning {
            Partitioning::Ways(parts) => parts[domain.0 as usize],
            _ => (0, self.config.ways),
        }
    }

    #[inline]
    fn line_index(&self, set: usize, way: usize) -> usize {
        set * self.config.ways + way
    }

    /// Whether line `idx` is valid.
    #[inline]
    fn valid(&self, idx: usize) -> bool {
        self.lines.meta(idx) & meta::VALID != 0
    }

    /// Whether line `idx` is dirty.
    #[inline]
    fn dirty(&self, idx: usize) -> bool {
        self.lines.meta(idx) & meta::DIRTY != 0
    }

    /// Whether line `idx` has been re-referenced since its fill.
    #[inline]
    fn reused(&self, idx: usize) -> bool {
        self.lines.meta(idx) & meta::REUSED != 0
    }

    /// The domain resident in line `idx`.
    #[inline]
    fn domain_of(&self, idx: usize) -> DomainId {
        DomainId(self.lines.sdid(idx))
    }

    /// Finds the way holding `line`, honouring way partitions: with DAWG a
    /// domain can only hit within its own ways. Tags are not scoped by
    /// domain here — isolation comes entirely from the partitioning.
    fn find(&self, set: usize, line: u64, domain: DomainId) -> Option<usize> {
        let (first, n) = self.way_range(domain);
        let base = self.line_index(set, first);
        self.lines
            .find_way(base, n, line, 0, key::MATCH_LINE)
            .map(|i| i - self.line_index(set, 0))
    }

    /// Invalidates line `idx`, recording its eviction for `cause`.
    fn evict(
        &mut self,
        idx: usize,
        cause: EvictionCause,
        requester: DomainId,
        wb: &mut Writebacks,
    ) {
        debug_assert!(self.valid(idx));
        let victim = Victim {
            owner: self.domain_of(idx),
            had_data: true,
            dirty: self.dirty(idx),
            reused: self.reused(idx),
            downgraded: false,
        };
        self.lines.meta_and(idx, !meta::VALID);
        let lines = &self.lines;
        self.rec
            .evict(victim, cause, requester, wb, || (lines.tag(idx), 0));
    }

    fn fill(&mut self, set: usize, line: u64, req: &Request, wb: &mut Writebacks) {
        let (first_way, n_ways) = self.way_range(req.domain);
        let base = self.line_index(set, first_way);
        let invalid = self
            .lines
            .first_invalid(base, n_ways)
            .map(|i| i - self.line_index(set, 0));
        let way = match invalid {
            Some(w) => w,
            None => {
                let victim = self.repl.choose_victim(set, &mut self.rng, |w| {
                    (first_way..first_way + n_ways).contains(&w)
                });
                let idx = self.line_index(set, victim);
                self.evict(idx, EvictionCause::Replacement, req.domain, wb);
                victim
            }
        };
        let idx = self.line_index(set, way);
        let m = meta::VALID
            | if req.kind == AccessKind::Writeback {
                meta::DIRTY
            } else {
                0
            };
        self.lines.install(idx, line, m, req.domain.0);
        // Prefetch fills insert at normal priority: the DRRIP dueling
        // already demotes thrashing streams, and synthetic streams (unlike
        // real traces) have exactly one demand reuse per prefetched line,
        // which distant insertion would systematically sacrifice.
        self.repl.on_fill(set, way);
        self.rec.fill(line, false, || 0);
    }
}

impl CacheModel for SetAssocCache {
    fn access(&mut self, req: Request) -> Response {
        self.rec.request(req.kind);
        let set = self.set_of(req.line, req.domain);
        let mut wb = Writebacks::none();
        if let Some(way) = self.find(set, req.line, req.domain) {
            let idx = self.line_index(set, way);
            match req.kind {
                // Only demand reads count as reuse for dead-block stats;
                // a writeback of one's own dirty line provides no new
                // utility beyond absorbing the write, and a prefetch hit
                // proves nothing about demand reuse.
                AccessKind::Read => {
                    self.lines.meta_or(idx, meta::REUSED);
                    self.repl.on_hit(set, way);
                }
                AccessKind::Writeback => {
                    self.lines.meta_or(idx, meta::DIRTY);
                    self.repl.on_hit(set, way);
                }
                AccessKind::Prefetch => {}
            }
            self.rec.hit(req.line);
            return Response {
                event: AccessEvent::DataHit,
                writebacks: wb,
                sae: false,
            };
        }
        self.rec.miss(req.line);
        self.fill(set, req.line, &req, &mut wb);
        Response {
            event: AccessEvent::Miss,
            writebacks: wb,
            sae: false,
        }
    }

    fn flush_line(&mut self, line: u64, domain: DomainId) -> bool {
        let set = self.set_of(line, domain);
        let Some(way) = self.find(set, line, domain) else {
            return false;
        };
        // clflush semantics: a dirty line is written back, not dropped.
        let idx = self.line_index(set, way);
        self.evict(idx, EvictionCause::Flush, domain, &mut Writebacks::none());
        true
    }

    fn flush_all(&mut self) {
        self.lines.clear();
        self.rec.flush_all();
    }

    fn probe(&self, line: u64, domain: DomainId) -> bool {
        let set = self.set_of(line, domain);
        self.find(set, line, domain).is_some()
    }

    fn stats(&self) -> &CacheStats {
        self.rec.stats()
    }

    fn reset_stats(&mut self) {
        self.rec.reset();
    }

    fn extra_latency(&self) -> u32 {
        0
    }

    fn capacity_lines(&self) -> usize {
        self.config.sets * self.config.ways
    }

    fn name(&self) -> &'static str {
        match self.config.partitioning {
            Partitioning::None => "baseline",
            Partitioning::Ways(_) => "dawg",
            Partitioning::Sets(_) => "set-partitioned",
        }
    }

    fn set_probe(&mut self, probe: ProbeHandle) {
        self.rec.set_probe(probe);
    }

    fn audit(&self) -> Result<(), String> {
        let mut seen: Vec<(usize, u64, DomainId)> = Vec::new();
        for set in 0..self.config.sets {
            for way in 0..self.config.ways {
                let idx = self.line_index(set, way);
                if !self.valid(idx) {
                    continue;
                }
                let tag = self.lines.tag(idx);
                let domain = self.domain_of(idx);
                // Partition tables are indexed by domain id; a resident
                // line from an unknown domain means the partition config
                // was bypassed somewhere.
                let known = match &self.config.partitioning {
                    Partitioning::None => true,
                    Partitioning::Ways(parts) | Partitioning::Sets(parts) => {
                        (domain.0 as usize) < parts.len()
                    }
                };
                if !known {
                    return Err(format!(
                        "set {set} way {way}: resident domain {} has no partition assignment",
                        domain.0
                    ));
                }
                let home = self.set_of(tag, domain);
                if home != set {
                    return Err(format!(
                        "set {set} way {way}: tag {tag:#x} (domain {}) belongs in set {home}",
                        domain.0
                    ));
                }
                let (first, n) = self.way_range(domain);
                if way < first || way >= first + n {
                    return Err(format!(
                        "set {set} way {way}: domain {} may only occupy ways {first}..{}",
                        domain.0,
                        first + n
                    ));
                }
                seen.push((set, tag, domain));
            }
        }
        seen.sort_unstable();
        for pair in seen.windows(2) {
            if pair[0] == pair[1] {
                let (set, tag, domain) = pair[0];
                return Err(format!(
                    "duplicate resident line: tag {tag:#x} (domain {}) twice in set {set}",
                    domain.0
                ));
            }
        }
        Ok(())
    }

    fn inject_fault(&mut self, kind: FaultKind, rng: &mut SmallRng) -> Option<String> {
        let valid: Vec<usize> = (0..self.lines.tag_entries())
            .filter(|&i| self.valid(i))
            .collect();
        if valid.is_empty() {
            return None;
        }
        match kind {
            // A plain array has no priority states, no pointers, and no
            // index key to interrupt.
            FaultKind::PriorityFlip | FaultKind::PointerCorrupt | FaultKind::InterruptedRekey => {
                None
            }
            FaultKind::ValidDrop => {
                let i = valid[rng.gen_range(0..valid.len())];
                self.lines.meta_and(i, !meta::VALID);
                Some(format!("line {i}: valid bit dropped"))
            }
            FaultKind::DirtyFlip => {
                let i = valid[rng.gen_range(0..valid.len())];
                self.lines.meta_xor(i, meta::DIRTY);
                Some(format!("line {i}: dirty bit flipped"))
            }
            FaultKind::TagBit => {
                let i = valid[rng.gen_range(0..valid.len())];
                let tag = self.lines.tag(i);
                let domain = self.domain_of(i);
                let set = i / self.config.ways;
                let (flipped, bit) = stuck_tag_bit(tag, rng, |t| self.set_of(t, domain) == set)?;
                // `set_tag` keeps the key lane's filter byte coherent with
                // the corrupted tag, preserving the lookup semantics of a
                // full-width tag compare.
                self.lines.set_tag(i, flipped);
                Some(format!("line {i}: tag bit {bit} stuck"))
            }
        }
    }

    fn quarantine(&mut self) -> u64 {
        let mut repaired = 0u64;
        let mut seen: Vec<(usize, u64, DomainId)> = Vec::new();
        for set in 0..self.config.sets {
            for way in 0..self.config.ways {
                let idx = self.line_index(set, way);
                if !self.valid(idx) {
                    continue;
                }
                let tag = self.lines.tag(idx);
                let domain = self.domain_of(idx);
                let known = match &self.config.partitioning {
                    Partitioning::None => true,
                    Partitioning::Ways(parts) | Partitioning::Sets(parts) => {
                        (domain.0 as usize) < parts.len()
                    }
                };
                let (first, n) = if known {
                    self.way_range(domain)
                } else {
                    (0, 0)
                };
                let mis_homed = !known
                    || self.set_of(tag, domain) != set
                    || way < first
                    || way >= first + n
                    || seen.contains(&(set, tag, domain));
                if mis_homed {
                    // Unreachable (or duplicated) by lookup: drop the line.
                    self.lines.meta_and(idx, !meta::VALID);
                    repaired += 1;
                } else {
                    seen.push((set, tag, domain));
                }
            }
        }
        repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        SetAssocCache::new(SetAssocConfig::new(4, 2, Policy::Lru))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let d = DomainId::ANY;
        assert_eq!(c.access(Request::read(0, d)).event, AccessEvent::Miss);
        assert_eq!(c.access(Request::read(0, d)).event, AccessEvent::DataHit);
        assert_eq!(c.stats().data_hits, 1);
        assert_eq!(c.stats().tag_misses, 1);
    }

    #[test]
    fn conflicting_lines_evict_lru_victim() {
        let mut c = small();
        let d = DomainId::ANY;
        // Lines 0, 4, 8 all map to set 0 (4 sets); associativity 2.
        c.access(Request::read(0, d));
        c.access(Request::read(4, d));
        c.access(Request::read(8, d)); // evicts line 0
        assert!(!c.probe(0, d));
        assert!(c.probe(4, d));
        assert!(c.probe(8, d));
    }

    #[test]
    fn dirty_victims_are_written_back() {
        let mut c = small();
        let d = DomainId::ANY;
        c.access(Request::writeback(0, d));
        c.access(Request::read(4, d));
        let r = c.access(Request::read(8, d)); // evicts dirty line 0
        assert_eq!(r.writebacks.iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(c.stats().writebacks_out, 1);
    }

    #[test]
    fn dead_block_accounting_distinguishes_reuse() {
        let mut c = small();
        let d = DomainId::ANY;
        c.access(Request::read(0, d));
        c.access(Request::read(0, d)); // line 0 reused
        c.access(Request::read(4, d)); // never reused
        c.access(Request::read(8, d)); // evicts line 0 (LRU) — reused
        c.access(Request::read(12, d)); // evicts line 4 — dead
        assert_eq!(c.stats().reused_evictions, 1);
        assert_eq!(c.stats().dead_evictions, 1);
    }

    #[test]
    fn cross_domain_evictions_are_counted() {
        let mut c = small();
        c.access(Request::read(0, DomainId(1)));
        c.access(Request::read(4, DomainId(1)));
        c.access(Request::read(8, DomainId(2))); // evicts domain 1's line
        assert_eq!(c.stats().cross_domain_evictions, 1);
    }

    #[test]
    fn flush_removes_only_present_lines() {
        let mut c = small();
        let d = DomainId::ANY;
        c.access(Request::read(0, d));
        assert!(c.flush_line(0, d));
        assert!(!c.flush_line(0, d));
        assert!(!c.probe(0, d));
    }

    #[test]
    fn way_partitioned_domains_cannot_evict_each_other() {
        let cfg = SetAssocConfig {
            partitioning: Partitioning::Ways(vec![(0, 1), (1, 1)]),
            ..SetAssocConfig::new(4, 2, Policy::Lru)
        };
        let mut c = SetAssocCache::new(cfg);
        c.access(Request::read(0, DomainId(0)));
        // Domain 1 thrashes its single way; domain 0's line must survive.
        for i in 0..16u64 {
            c.access(Request::read(i * 4, DomainId(1)));
        }
        assert!(c.probe(0, DomainId(0)));
        assert_eq!(c.stats().cross_domain_evictions, 0);
    }

    #[test]
    fn set_partitioned_domains_use_disjoint_sets() {
        let cfg = SetAssocConfig {
            partitioning: Partitioning::Sets(vec![(0, 2), (2, 2)]),
            ..SetAssocConfig::new(4, 2, Policy::Lru)
        };
        let mut c = SetAssocCache::new(cfg);
        // Same line address from both domains lands in different sets: no
        // eviction interference even under thrashing.
        c.access(Request::read(100, DomainId(0)));
        for i in 0..32u64 {
            c.access(Request::read(i, DomainId(1)));
        }
        assert!(c.probe(100, DomainId(0)));
        assert_eq!(c.stats().cross_domain_evictions, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        SetAssocCache::new(SetAssocConfig::new(3, 2, Policy::Lru));
    }

    #[test]
    fn capacity_reports_total_lines() {
        assert_eq!(small().capacity_lines(), 8);
    }
}
