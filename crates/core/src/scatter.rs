//! ScatterCache (Werner et al., USENIX Security 2019) — the pre-Mirage
//! state of the art the paper's Background section compares against.
//!
//! ScatterCache randomizes at *way* granularity: every way has its own
//! keyed index function, so a line maps to one specific (way, set) slot per
//! way and the fill picks a way uniformly at random. There are no spare
//! invalid tags and no global eviction: once the cache is warm, **every
//! fill evicts a valid line from an address-correlated slot** — a
//! set-associative eviction in Maya's terminology. That is why probabilistic
//! eviction attacks still work against it (the paper cites one SAE-equivalent
//! leak per fill, requiring re-keying every ~39 evictions to stay safe),
//! and why Mirage/Maya moved to over-provisioned tags plus global
//! replacement.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use maya_obs::{EvictionCause, ProbeHandle};
use prince_cipher::{IndexFunction, DEFAULT_MEMO_SLOTS};

use crate::cache::{CacheModel, FaultKind};
use crate::skewed::{data_hit, LineArray, Rows};
use crate::types::{CacheStats, DomainId, Request, Response, Writebacks};

/// Configuration of a [`ScatterCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatterConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity (= number of independent index functions).
    pub ways: usize,
    /// Master seed for the per-way keys and way selection.
    pub seed: u64,
}

impl ScatterConfig {
    /// A 16-way configuration holding `lines` cache lines.
    pub fn for_lines(lines: usize, seed: u64) -> Self {
        let ways = 16;
        Self {
            sets: lines / ways,
            ways,
            seed,
        }
    }
}

/// The ScatterCache model.
///
/// # Examples
///
/// ```
/// use maya_core::{ScatterCache, ScatterConfig, CacheModel, Request, DomainId};
///
/// let mut c = ScatterCache::new(ScatterConfig::for_lines(4096, 7));
/// c.access(Request::read(5, DomainId(0)));
/// assert!(c.probe(5, DomainId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct ScatterCache {
    config: ScatterConfig,
    arr: LineArray,
    rng: SmallRng,
}

impl ScatterCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(config: ScatterConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(config.ways > 0, "ways must be positive");
        Self {
            // One "skew" per way: each way's slot comes from its own keyed
            // index function (SCv1 with the SDID folded into the key would
            // add per-domain scattering; tag+SDID matching models it).
            arr: LineArray::new(
                Rows::PerWay,
                config.ways,
                IndexFunction::from_seed(config.seed, config.ways, config.sets)
                    .with_memo(DEFAULT_MEMO_SLOTS),
            ),
            rng: SmallRng::seed_from_u64(config.seed ^ 0x05ca_77e2),
            config,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &ScatterConfig {
        &self.config
    }

    /// The one slot `line` may occupy in `way`.
    #[inline]
    fn slot(&self, way: usize, line: u64) -> usize {
        self.arr
            .slots(way, self.arr.index.set_index(way, line))
            .start
    }
}

impl CacheModel for ScatterCache {
    fn access(&mut self, req: Request) -> Response {
        if self.arr.lookup(req).is_some() {
            return data_hit();
        }
        // Prefer an invalid candidate slot; otherwise evict the occupant of
        // a uniformly random way's slot — an address-correlated eviction,
        // i.e. an SAE.
        let mut wb = Writebacks::none();
        let free = (0..self.config.ways)
            .map(|w| self.slot(w, req.line))
            .find(|&i| !self.arr.live(i));
        let (i, sae) = match free {
            Some(i) => (i, false),
            None => {
                let way = self.rng.gen_range(0..self.config.ways);
                let i = self.slot(way, req.line);
                self.arr.evict(i, req.domain, &mut wb, EvictionCause::Sae);
                (i, true)
            }
        };
        self.arr.fill(i, req, wb, sae)
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
        &self.arr.stats
    }

    fn reset_stats(&mut self) {
        self.arr.stats.reset();
    }

    fn extra_latency(&self) -> u32 {
        // The PRINCE lookup adds three cycles; no pointer indirection.
        3
    }

    fn capacity_lines(&self) -> usize {
        self.config.sets * self.config.ways
    }

    fn name(&self) -> &'static str {
        "scatter-cache"
    }

    fn set_probe(&mut self, probe: ProbeHandle) {
        self.arr.probe = probe;
    }

    fn audit(&self) -> Result<(), String> {
        // Every valid line must occupy the one slot its way's index
        // function maps it to, and no (tag, sdid) pair may be resident
        // twice.
        self.arr.audit(|way, set, tag, home| {
            format!("way {way} set {set}: tag {tag:#x} hashes to set {home}")
        })
    }

    fn inject_fault(&mut self, kind: FaultKind, rng: &mut SmallRng) -> Option<String> {
        // No priority states, no pointers, and a fixed key: nothing to
        // flip, chase, or interrupt beyond the line itself.
        self.arr.inject(kind, rng)
    }

    fn quarantine(&mut self) -> u64 {
        // Mis-homed or duplicated lines are unreachable by lookup: drop them.
        self.arr.quarantine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AccessEvent;

    fn small() -> ScatterCache {
        ScatterCache::new(ScatterConfig {
            sets: 64,
            ways: 8,
            seed: 5,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let d = DomainId(0);
        assert_eq!(c.access(Request::read(1, d)).event, AccessEvent::Miss);
        assert!(c.access(Request::read(1, d)).is_data_hit());
    }

    #[test]
    fn warm_cache_produces_saes_on_every_fill() {
        let mut c = small();
        let d = DomainId(0);
        let cap = c.capacity_lines() as u64;
        // Overfill by 4x: once warm, each miss evicts a valid line.
        for a in 0..4 * cap {
            c.access(Request::read(a, d));
        }
        // Unlike Maya/Mirage, the SAE counter climbs without bound.
        assert!(
            c.stats().saes > cap,
            "ScatterCache must record many SAEs, got {}",
            c.stats().saes
        );
    }

    #[test]
    fn sdid_duplicates_shared_lines() {
        let mut c = small();
        c.access(Request::read(9, DomainId(1)));
        assert!(!c.probe(9, DomainId(2)));
    }

    #[test]
    fn ways_use_distinct_mappings() {
        let c = small();
        // For a sample of lines, the per-way slots must not all coincide in
        // the same set index (that would collapse scattering to set-assoc).
        let mut differing = 0;
        for line in 0..64u64 {
            let sets: Vec<usize> = (0..8).map(|w| c.slot(w, line) / c.config.ways).collect();
            if sets.iter().any(|&s| s != sets[0]) {
                differing += 1;
            }
        }
        assert!(
            differing > 60,
            "per-way scattering looks broken: {differing}/64"
        );
    }

    #[test]
    fn dirty_victims_write_back() {
        let mut c = small();
        let d = DomainId(0);
        let cap = c.capacity_lines() as u64;
        for a in 0..3 * cap {
            c.access(Request::writeback(a, d));
        }
        assert!(c.stats().writebacks_out > 0);
    }
}
