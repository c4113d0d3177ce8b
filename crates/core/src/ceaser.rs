//! CEASER and CEASER-S (Qureshi, MICRO 2018 / ISCA 2019) — the encrypted-
//! address randomized LLCs of the paper's Background section.
//!
//! CEASER keeps a conventional set-associative organization but computes
//! the set index from a PRINCE-encrypted line address, and *re-keys*
//! periodically (the remapping period) so an attacker cannot accumulate an
//! eviction set under one mapping. CEASER-S adds two skews with random skew
//! selection. Both still perform address-correlated evictions on every
//! conflict (SAEs), so their security rests entirely on remapping faster
//! than eviction-set construction — the cited analysis requires re-keying
//! every 14 (CEASER-S) / 39 (ScatterCache) evictions against the fastest
//! attacks, which is why Mirage/Maya abandoned the approach.
//!
//! Remapping is modelled as an epoch re-key with incremental set migration:
//! when the key epoch advances, lines are revalidated lazily — a line
//! installed under an old epoch is treated as missing (its slot gets
//! reclaimed on demand), which matches the throughput effect of gradual
//! remaps without simulating the mover pipeline.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use maya_obs::{EvictionCause, ProbeHandle};
use prince_cipher::{IndexFunction, DEFAULT_MEMO_SLOTS};

use crate::cache::{CacheModel, FaultKind};
use crate::replacement::{Policy, ReplacementState};
use crate::skewed::{data_hit, LineArray, Rows};
use crate::types::{CacheStats, DomainId, Request, Response, Writebacks};

/// Configuration of a [`CeaserCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CeaserConfig {
    /// Sets per skew; must be a power of two.
    pub sets_per_skew: usize,
    /// Skews: 1 for CEASER, 2 for CEASER-S.
    pub skews: usize,
    /// Ways per skew.
    pub ways_per_skew: usize,
    /// Fills between re-keys (the remapping period); `0` disables
    /// remapping (insecure, for ablations).
    pub remap_period: u64,
    /// Master seed.
    pub seed: u64,
}

impl CeaserConfig {
    /// Classic CEASER: single skew, 16 ways.
    pub fn ceaser(lines: usize, remap_period: u64, seed: u64) -> Self {
        Self {
            sets_per_skew: lines / 16,
            skews: 1,
            ways_per_skew: 16,
            remap_period,
            seed,
        }
    }

    /// CEASER-S: two skews of 8 ways.
    pub fn ceaser_s(lines: usize, remap_period: u64, seed: u64) -> Self {
        Self {
            sets_per_skew: lines / 16,
            skews: 2,
            ways_per_skew: 8,
            remap_period,
            seed,
        }
    }

    /// Total lines.
    pub fn lines(&self) -> usize {
        self.sets_per_skew * self.skews * self.ways_per_skew
    }
}

/// The CEASER / CEASER-S model.
///
/// # Examples
///
/// ```
/// use maya_core::{CeaserCache, CeaserConfig, CacheModel, Request, DomainId};
///
/// let mut c = CeaserCache::new(CeaserConfig::ceaser_s(4096, 10_000, 3));
/// c.access(Request::read(77, DomainId(0)));
/// assert!(c.probe(77, DomainId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct CeaserCache {
    config: CeaserConfig,
    /// Lines are stamped with the key epoch they were installed under;
    /// stale lines are lazily invalidated after a re-key.
    arr: LineArray,
    repl: ReplacementState,
    rng: SmallRng,
    fills_since_remap: u64,
    /// Re-keys performed (inspection hook for tests/experiments).
    remaps: u64,
}

impl CeaserCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two or any dimension is
    /// zero.
    pub fn new(config: CeaserConfig) -> Self {
        assert!(
            config.sets_per_skew.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(config.skews > 0 && config.ways_per_skew > 0);
        Self {
            arr: LineArray::new(
                Rows::Skewed,
                config.ways_per_skew,
                IndexFunction::from_seed(config.seed, config.skews, config.sets_per_skew)
                    .with_memo(DEFAULT_MEMO_SLOTS),
            ),
            repl: ReplacementState::new(
                Policy::Lru,
                config.sets_per_skew * config.skews,
                config.ways_per_skew,
            ),
            rng: SmallRng::seed_from_u64(config.seed ^ 0xcea5e2),
            fills_since_remap: 0,
            remaps: 0,
            config,
        }
    }

    /// Number of re-keys performed so far.
    pub fn remaps(&self) -> u64 {
        self.remaps
    }

    fn maybe_remap(&mut self) {
        if self.config.remap_period == 0 {
            return;
        }
        self.fills_since_remap += 1;
        if self.fills_since_remap >= self.config.remap_period {
            self.fills_since_remap = 0;
            // The closing epoch's dirty lines are drained to memory by the
            // remap engine; the requester never waits for them, so only the
            // counter moves. Stale lines were drained at an earlier remap.
            let dirty = (0..self.arr.lines.len())
                .filter(|&i| self.arr.live(i) && self.arr.lines[i].dirty)
                .count() as u64;
            self.arr.epoch = self.arr.epoch.wrapping_add(1);
            self.remaps += 1;
            // The fresh IndexFunction starts with an empty memo, so no
            // old-epoch translation can leak into the new mapping.
            self.arr.index = IndexFunction::from_seed(
                self.config.seed ^ (u64::from(self.arr.epoch) << 32),
                self.config.skews,
                self.config.sets_per_skew,
            )
            .with_memo(DEFAULT_MEMO_SLOTS);
            self.arr.rec.rekey(dirty);
        }
    }
}

impl CacheModel for CeaserCache {
    fn access(&mut self, req: Request) -> Response {
        let ways = self.config.ways_per_skew;
        if let Some(i) = self.arr.lookup(req) {
            self.repl.on_hit(i / ways, i % ways);
            return data_hit();
        }
        // Random skew, then invalid (or stale-epoch) way, else LRU victim.
        let skew = self.rng.gen_range(0..self.config.skews);
        let set = self.arr.index.set_index(skew, req.line);
        let row = self.arr.slots(skew, set);
        let mut wb = Writebacks::none();
        let (i, sae) = match row.clone().find(|&i| !self.arr.live(i)) {
            Some(i) => (i, false),
            None => {
                let row_index = row.start / ways;
                let way = self.repl.choose_victim(row_index, &mut self.rng, |_| true);
                let i = row.start + way;
                self.arr.evict(i, req.domain, &mut wb, EvictionCause::Sae);
                (i, true)
            }
        };
        let response = self.arr.fill(i, req, wb, sae);
        self.repl.on_fill(i / ways, i % ways);
        self.maybe_remap();
        response
    }

    fn flush_line(&mut self, line: u64, domain: DomainId) -> bool {
        self.arr.flush_line(line, domain).is_some()
    }

    fn flush_all(&mut self) {
        self.arr.flush_all();
    }

    fn probe(&self, line: u64, domain: DomainId) -> bool {
        self.arr.find(line, domain).is_some()
    }

    fn stats(&self) -> &CacheStats {
        self.arr.rec.stats()
    }

    fn reset_stats(&mut self) {
        self.arr.rec.reset();
    }

    fn extra_latency(&self) -> u32 {
        3
    }

    fn capacity_lines(&self) -> usize {
        self.config.lines()
    }

    fn name(&self) -> &'static str {
        if self.config.skews > 1 {
            "ceaser-s"
        } else {
            "ceaser"
        }
    }

    fn set_probe(&mut self, probe: ProbeHandle) {
        self.arr.rec.set_probe(probe);
    }

    fn audit(&self) -> Result<(), String> {
        // Lazy epoch invalidation makes stale (older-epoch) lines legal,
        // but no line may claim an epoch the cache has not reached, and
        // every *live* line must sit in its home set under the current key.
        self.arr.audit(|skew, set, tag, home| {
            format!("skew {skew} set {set}: live tag {tag:#x} hashes to set {home}")
        })
    }

    fn inject_fault(&mut self, kind: FaultKind, rng: &mut SmallRng) -> Option<String> {
        if kind != FaultKind::InterruptedRekey {
            // No priority states, no pointers.
            return self.arr.inject(kind, rng);
        }
        // A power cut mid-remap: the mover pipeline had already stamped one
        // line with the next epoch before the cache's epoch counter
        // advanced.
        let i = self.arr.pick_live(rng)?;
        self.arr.lines[i].epoch = self.arr.epoch + 1;
        Some(format!("slot {i}: stamped with future epoch"))
    }

    fn quarantine(&mut self) -> u64 {
        // Future-epoch, mis-homed, or duplicated: drop the line.
        self.arr.quarantine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AccessEvent;

    fn ceaser_s() -> CeaserCache {
        CeaserCache::new(CeaserConfig::ceaser_s(1024, 0, 3))
    }

    #[test]
    fn miss_then_hit_both_variants() {
        for cfg in [
            CeaserConfig::ceaser(1024, 0, 3),
            CeaserConfig::ceaser_s(1024, 0, 3),
        ] {
            let mut c = CeaserCache::new(cfg);
            let d = DomainId(0);
            assert_eq!(c.access(Request::read(5, d)).event, AccessEvent::Miss);
            assert!(c.access(Request::read(5, d)).is_data_hit());
        }
    }

    #[test]
    fn conflicts_cause_saes_once_warm() {
        let mut c = ceaser_s();
        let cap = c.capacity_lines() as u64;
        for a in 0..4 * cap {
            c.access(Request::read(a, DomainId(0)));
        }
        assert!(c.stats().saes > cap / 2, "saes {}", c.stats().saes);
    }

    #[test]
    fn remap_rekeys_and_invalidates_stale_lines() {
        let mut c = CeaserCache::new(CeaserConfig::ceaser_s(1024, 100, 3));
        let d = DomainId(0);
        c.access(Request::read(7, d));
        c.access(Request::read(7, d));
        assert!(c.probe(7, d));
        // 100 more fills trigger a re-key; line 7's old-epoch copy is stale.
        for a in 1000..1101u64 {
            c.access(Request::read(a, d));
        }
        assert_eq!(c.remaps(), 1);
        assert!(!c.probe(7, d), "stale-epoch lines must read as missing");
    }

    #[test]
    fn remap_drains_dirty_lines() {
        let mut c = CeaserCache::new(CeaserConfig::ceaser_s(1024, 64, 3));
        let d = DomainId(0);
        for a in 0..64u64 {
            c.access(Request::writeback(a, d));
        }
        assert!(c.remaps() >= 1);
        assert!(
            c.stats().writebacks_out >= 32,
            "wb {}",
            c.stats().writebacks_out
        );
    }

    /// A remap drains the dirty lines of the epoch it closes; lines already
    /// drained at an earlier remap are stale and must not be drained again.
    #[test]
    fn remap_drains_each_dirty_line_once() {
        let mut c = CeaserCache::new(CeaserConfig::ceaser_s(1024, 64, 3));
        let d = DomainId(0);
        for a in 0..32u64 {
            c.access(Request::writeback(a, d));
        }
        let mut a = 10_000u64;
        while c.remaps() < 6 {
            c.access(Request::read(a, d));
            a += 1;
        }
        assert_eq!(c.stats().writebacks_out, 32);
    }

    /// After a remap the index memo must not serve old-epoch translations:
    /// a line whose translation was memoized before the re-key reads as
    /// missing afterwards, and re-filling it hits normally under the new
    /// mapping.
    #[test]
    fn remap_invalidates_memoized_indices() {
        let mut c = CeaserCache::new(CeaserConfig::ceaser_s(1024, 50, 3));
        let d = DomainId(0);
        // Memoize line 42's translation via repeated lookups.
        c.access(Request::read(42, d));
        for _ in 0..5 {
            assert!(c.access(Request::read(42, d)).is_data_hit());
        }
        // Drive fills until a remap fires.
        let mut a = 10_000u64;
        while c.remaps() == 0 {
            c.access(Request::read(a, d));
            a += 1;
        }
        // Old-epoch copy (and any stale memoized mapping) must be gone...
        assert!(!c.probe(42, d), "old-epoch line visible after remap");
        assert_eq!(c.access(Request::read(42, d)).event, AccessEvent::Miss);
        // ...and the refill works under the new mapping.
        assert!(c.access(Request::read(42, d)).is_data_hit());
    }

    #[test]
    fn remap_period_zero_never_remaps() {
        let mut c = ceaser_s();
        for a in 0..10_000u64 {
            c.access(Request::read(a, DomainId(0)));
        }
        assert_eq!(c.remaps(), 0);
    }

    #[test]
    fn domains_are_isolated() {
        let mut c = ceaser_s();
        c.access(Request::read(9, DomainId(1)));
        assert!(!c.probe(9, DomainId(2)));
    }
}
