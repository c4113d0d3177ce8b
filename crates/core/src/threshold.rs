//! The "threshold" design from the paper's Summary discussion (Section VI):
//! could Mirage's storage overhead be avoided by *not* decoupling tag and
//! data stores, simply capping the number of valid entries (say at 75% of a
//! 16 MB cache, equivalent to Maya's 12 MB) with load-aware fills and
//! global random eviction beyond the cap?
//!
//! The paper's answer — reproduced by the `ablate-threshold` experiment —
//! is no: with the cap at 75% of 16 ways, each skew effectively has only
//! four spare ways, and an SAE occurs within ~1e9 installs (under a
//! second), versus 1e32+ for Maya. The valid-entry cap is *global*, so it
//! cannot stop individual sets from filling up.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use maya_obs::{EvictionCause, ProbeHandle};
use prince_cipher::{IndexFunction, DEFAULT_MEMO_SLOTS, MAX_SKEWS};

use crate::cache::{CacheModel, FaultKind};
use crate::mirage::SkewSelection;
use crate::skewed::{data_hit, LineArray, Rows};
use crate::types::{CacheStats, DomainId, Request, Response, Writebacks};

/// Configuration of a [`ThresholdCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdConfig {
    /// Sets per skew; must be a power of two.
    pub sets_per_skew: usize,
    /// Skews (2, as in the secure designs).
    pub skews: usize,
    /// Physical ways per skew (8 for a 16-way-equivalent cache).
    pub ways_per_skew: usize,
    /// Maximum fraction of entries that may be valid (0.75 in the paper's
    /// discussion).
    pub occupancy_cap: f64,
    /// Skew selection policy (load-aware, like Mirage).
    pub skew_selection: SkewSelection,
    /// Master seed.
    pub seed: u64,
}

impl ThresholdConfig {
    /// The paper's discussion point: a 16 MB-equivalent cache capped at 75%.
    pub fn paper_discussion(lines: usize, seed: u64) -> Self {
        Self {
            sets_per_skew: lines / 16,
            skews: 2,
            ways_per_skew: 8,
            occupancy_cap: 0.75,
            skew_selection: SkewSelection::LoadAware,
            seed,
        }
    }

    /// Physical entries.
    pub fn entries(&self) -> usize {
        self.sets_per_skew * self.skews * self.ways_per_skew
    }

    /// Maximum simultaneously-valid entries.
    pub fn valid_cap(&self) -> usize {
        (self.entries() as f64 * self.occupancy_cap) as usize
    }
}

/// The capped-occupancy cache of the paper's Summary discussion.
#[derive(Debug, Clone)]
pub struct ThresholdCache {
    config: ThresholdConfig,
    arr: LineArray,
    /// Indices of all valid entries (for O(1) global random eviction).
    valid_list: Vec<u32>,
    /// Per slot: its position in `valid_list` (the back-index).
    list_pos: Vec<u32>,
    rng: SmallRng,
}

impl ThresholdCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two or the cap is not in
    /// `(0, 1]`.
    pub fn new(config: ThresholdConfig) -> Self {
        assert!(
            config.sets_per_skew.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(
            config.occupancy_cap > 0.0 && config.occupancy_cap <= 1.0,
            "cap must be in (0,1]"
        );
        Self {
            arr: LineArray::new(
                Rows::Skewed,
                config.ways_per_skew,
                IndexFunction::from_seed(config.seed, config.skews, config.sets_per_skew)
                    .with_memo(DEFAULT_MEMO_SLOTS),
            )
            .counting_flushed_reuse(),
            valid_list: Vec::new(),
            list_pos: vec![0; config.entries()],
            rng: SmallRng::seed_from_u64(config.seed ^ 0x7423),
            config,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &ThresholdConfig {
        &self.config
    }

    /// Evicts slot `i` and removes it from the valid list.
    fn evict(&mut self, i: usize, requester: DomainId, wb: &mut Writebacks, cause: EvictionCause) {
        self.arr.evict(i, requester, wb, cause);
        self.unlist(i);
    }

    fn unlist(&mut self, i: usize) {
        let pos = self.list_pos[i] as usize;
        self.valid_list.swap_remove(pos);
        if pos < self.valid_list.len() {
            let moved = self.valid_list[pos] as usize;
            self.list_pos[moved] = pos as u32;
        }
    }
}

impl CacheModel for ThresholdCache {
    fn access(&mut self, req: Request) -> Response {
        if self.arr.lookup(req).is_some() {
            return data_hit();
        }
        let mut wb = Writebacks::none();
        // Global cap: evict a uniformly random valid entry first if full.
        if self.valid_list.len() >= self.config.valid_cap() {
            let victim = self.valid_list[self.rng.gen_range(0..self.valid_list.len())] as usize;
            self.evict(victim, req.domain, &mut wb, EvictionCause::GlobalData);
        }
        // Load-aware skew selection over the candidate sets.
        let mut sets_buf = [0usize; MAX_SKEWS];
        let cand_sets = &mut sets_buf[..self.config.skews];
        self.arr.index.set_indices_into(req.line, cand_sets);
        let mut best = (0usize, 0usize, 0usize); // (skew, set, invalid ways)
        let mut ties = 0u32;
        for (skew, &set) in cand_sets.iter().enumerate() {
            let inv = self
                .arr
                .slots(skew, set)
                .filter(|&i| !self.arr.live(i))
                .count();
            let better = match self.config.skew_selection {
                SkewSelection::LoadAware => inv > best.2,
                SkewSelection::Random => false,
            };
            if skew == 0 || better {
                best = (skew, set, inv);
                ties = 1;
            } else if inv == best.2 || self.config.skew_selection == SkewSelection::Random {
                ties += 1;
                if self.rng.gen_range(0..ties) == 0 {
                    best = (skew, set, inv);
                }
            }
        }
        let row = self.arr.slots(best.0, best.1);
        let (i, sae) = match row.clone().find(|&i| !self.arr.live(i)) {
            Some(i) => (i, false),
            None => {
                // Both candidate sets full despite the global cap: the SAE
                // the paper's discussion predicts.
                let i = row.start + self.rng.gen_range(0..self.config.ways_per_skew);
                self.evict(i, req.domain, &mut wb, EvictionCause::Sae);
                (i, true)
            }
        };
        self.list_pos[i] = self.valid_list.len() as u32;
        self.valid_list.push(i as u32);
        self.arr.fill(i, req, wb, sae)
    }

    fn flush_line(&mut self, line: u64, domain: DomainId) -> bool {
        let Some(i) = self.arr.flush_line(line, domain) else {
            return false;
        };
        self.unlist(i);
        true
    }

    fn flush_all(&mut self) {
        self.arr.flush_all();
        self.valid_list.clear();
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
        3
    }

    fn capacity_lines(&self) -> usize {
        self.config.valid_cap()
    }

    fn name(&self) -> &'static str {
        "threshold-75"
    }

    fn set_probe(&mut self, probe: ProbeHandle) {
        self.arr.probe = probe;
    }

    fn audit(&self) -> Result<(), String> {
        // Every valid line must sit in a home set under the current key,
        // the valid list and the line array must agree in both directions,
        // and the population must respect the global cap.
        self.arr.audit(|skew, set, tag, home| {
            format!("skew {skew} set {set}: tag {tag:#x} hashes to set {home}")
        })?;
        let mut valid = 0usize;
        for (i, l) in self.arr.lines.iter().enumerate() {
            if !l.valid {
                continue;
            }
            valid += 1;
            let pos = self.list_pos[i] as usize;
            if pos >= self.valid_list.len() {
                return Err(format!("line {i}: stale list_pos {pos}"));
            }
            if self.valid_list[pos] as usize != i {
                return Err(format!(
                    "line {i}: back-index broken (valid_list[{pos}] = {})",
                    self.valid_list[pos]
                ));
            }
        }
        if valid != self.valid_list.len() {
            return Err(format!(
                "population mismatch: {valid} valid lines vs {} listed",
                self.valid_list.len()
            ));
        }
        if valid > self.config.valid_cap() {
            return Err(format!(
                "population {valid} exceeds cap {}",
                self.config.valid_cap()
            ));
        }
        for (pos, &i) in self.valid_list.iter().enumerate() {
            let i = i as usize;
            if i >= self.arr.lines.len() {
                return Err(format!("valid_list[{pos}] = {i} out of range"));
            }
            if !self.arr.lines[i].valid {
                return Err(format!("valid_list[{pos}] points at invalid line {i}"));
            }
        }
        Ok(())
    }

    fn inject_fault(&mut self, kind: FaultKind, rng: &mut SmallRng) -> Option<String> {
        if self.valid_list.is_empty() {
            return None;
        }
        match kind {
            // No priority states and a fixed key.
            FaultKind::PriorityFlip | FaultKind::InterruptedRekey => None,
            FaultKind::PointerCorrupt => {
                let i = self.valid_list[rng.gen_range(0..self.valid_list.len())] as usize;
                let n = self.valid_list.len() as u32;
                let bad = (self.list_pos[i] + 1) % n;
                if bad == self.list_pos[i] {
                    return None;
                }
                self.list_pos[i] = bad;
                Some(format!("line {i}: list back-index redirected to {bad}"))
            }
            FaultKind::ValidDrop | FaultKind::DirtyFlip | FaultKind::TagBit => {
                let i = self.valid_list[rng.gen_range(0..self.valid_list.len())] as usize;
                let what = self.arr.corrupt(kind, i, rng)?;
                // A dropped valid bit leaves its list entry behind.
                let leak = if kind == FaultKind::ValidDrop {
                    ", list entry leaked"
                } else {
                    ""
                };
                Some(format!("line {i}: {what}{leak}"))
            }
        }
    }

    fn quarantine(&mut self) -> u64 {
        // Drop mis-homed or duplicated lines, then rebuild the valid list
        // (and every back-index) from the line array; trim any cap overflow
        // from the end, deterministically.
        let mut repaired = self.arr.quarantine();
        self.valid_list.clear();
        for i in 0..self.arr.lines.len() {
            if self.arr.lines[i].valid {
                if self.valid_list.len() >= self.config.valid_cap() {
                    self.arr.lines[i].valid = false;
                    repaired += 1;
                } else {
                    self.list_pos[i] = self.valid_list.len() as u32;
                    self.valid_list.push(i as u32);
                }
            }
        }
        repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ThresholdCache {
        ThresholdCache::new(ThresholdConfig::paper_discussion(4096, 5))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let d = DomainId(0);
        c.access(Request::read(1, d));
        assert!(c.access(Request::read(1, d)).is_data_hit());
    }

    #[test]
    fn valid_population_respects_the_cap() {
        let mut c = small();
        let cap = c.config().valid_cap();
        for a in 0..20_000u64 {
            c.access(Request::read(a, DomainId(0)));
            assert!(c.valid_list.len() <= cap);
        }
        assert_eq!(c.valid_list.len(), cap);
    }

    #[test]
    fn saes_occur_quickly_unlike_maya() {
        // The paper's point: the global cap cannot prevent per-set
        // overflows for long — SAEs appear within a modest fill count
        // (Maya at the same effective capacity records none).
        let mut c = small();
        let mut fills = 0u64;
        while c.stats().saes == 0 && fills < 3_000_000 {
            c.access(Request::read(fills, DomainId(0)));
            fills += 1;
        }
        assert!(
            c.stats().saes > 0,
            "threshold design should spill within millions of fills"
        );
    }

    #[test]
    fn eviction_bookkeeping_survives_stress() {
        let mut c = small();
        let d = DomainId(0);
        for a in 0..30_000u64 {
            if a % 3 == 0 {
                c.access(Request::writeback(a % 7_000, d));
            } else {
                c.access(Request::read(a % 9_000, d));
            }
        }
        // The valid list's back-indices must stay consistent.
        for (pos, &idx) in c.valid_list.iter().enumerate() {
            assert_eq!(c.list_pos[idx as usize] as usize, pos);
            assert!(c.arr.lines[idx as usize].valid);
        }
    }
}
