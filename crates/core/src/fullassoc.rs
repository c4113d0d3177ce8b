//! A true fully-associative cache with random replacement: the ideal that
//! Mirage and Maya approximate, used as the security reference point in the
//! occupancy-attack experiment (Figure 8) and as a comparison model in
//! tests. Impractical to build at LLC sizes (the paper's motivation), but
//! trivially simulable.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use maya_obs::{EvictionCause, ProbeHandle};

use crate::cache::{CacheModel, FaultKind};
use crate::types::{
    AccessEvent, AccessKind, CacheStats, DomainId, Recorder, Request, Response, Victim, Writebacks,
};

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    domain: DomainId,
    dirty: bool,
    reused: bool,
}

/// A fully-associative cache with uniform random replacement.
///
/// Lookup is modelled as associative (an ordered map stands in for the CAM
/// the hardware could not afford; ordered rather than hashed so iteration
/// order can never leak into results); replacement draws a victim uniformly from all
/// resident lines, so evictions leak no address information — the property
/// the randomized designs emulate.
///
/// # Examples
///
/// ```
/// use maya_core::{FullyAssocCache, CacheModel, Request, DomainId};
///
/// let mut c = FullyAssocCache::new(1024, 7);
/// c.access(Request::read(3, DomainId::ANY));
/// assert!(c.probe(3, DomainId::ANY));
/// ```
#[derive(Debug, Clone)]
pub struct FullyAssocCache {
    capacity: usize,
    lines: Vec<Line>,
    /// (line, domain) -> index in `lines`.
    lookup: BTreeMap<(u64, DomainId), usize>,
    rec: Recorder,
    rng: SmallRng,
}

impl FullyAssocCache {
    /// Creates a cache holding `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            lines: Vec::with_capacity(capacity),
            lookup: BTreeMap::new(),
            rec: Recorder::default(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Removes the line at `idx`, recording its eviction for `cause`.
    fn evict(
        &mut self,
        idx: usize,
        cause: EvictionCause,
        requester: DomainId,
        wb: &mut Writebacks,
    ) {
        let victim = self.lines[idx];
        self.lookup.remove(&(victim.tag, victim.domain));
        let last = self.lines.len() - 1;
        self.lines.swap_remove(idx);
        if idx < last {
            let moved = self.lines[idx];
            self.lookup.insert((moved.tag, moved.domain), idx);
        }
        let v = Victim {
            owner: victim.domain,
            had_data: true,
            dirty: victim.dirty,
            reused: victim.reused,
            downgraded: false,
        };
        self.rec.evict(v, cause, requester, wb, || (victim.tag, 0));
    }
}

impl CacheModel for FullyAssocCache {
    fn access(&mut self, req: Request) -> Response {
        self.rec.request(req.kind);
        let mut wb = Writebacks::none();
        if let Some(&idx) = self.lookup.get(&(req.line, req.domain)) {
            match req.kind {
                // Reuse (for dead-block stats) means a demand read hit.
                AccessKind::Read => self.lines[idx].reused = true,
                AccessKind::Writeback => self.lines[idx].dirty = true,
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
        if self.lines.len() == self.capacity {
            // Uniform random victim selection over the whole cache is the
            // ideal global data eviction that Mirage and Maya approximate;
            // count it under the same cause so the designs compare like
            // for like.
            let idx = self.rng.gen_range(0..self.lines.len());
            self.evict(idx, EvictionCause::GlobalData, req.domain, &mut wb);
        }
        let idx = self.lines.len();
        self.lines.push(Line {
            tag: req.line,
            domain: req.domain,
            dirty: req.kind == AccessKind::Writeback,
            reused: false,
        });
        self.lookup.insert((req.line, req.domain), idx);
        self.rec.fill(req.line, false, || 0);
        Response {
            event: AccessEvent::Miss,
            writebacks: wb,
            sae: false,
        }
    }

    fn flush_line(&mut self, line: u64, domain: DomainId) -> bool {
        let Some(&idx) = self.lookup.get(&(line, domain)) else {
            return false;
        };
        self.evict(idx, EvictionCause::Flush, domain, &mut Writebacks::none());
        true
    }

    fn flush_all(&mut self) {
        self.lines.clear();
        self.lookup.clear();
        self.rec.flush_all();
    }

    fn probe(&self, line: u64, domain: DomainId) -> bool {
        self.lookup.contains_key(&(line, domain))
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
        self.capacity
    }

    fn name(&self) -> &'static str {
        "fully-associative"
    }

    fn set_probe(&mut self, probe: ProbeHandle) {
        self.rec.set_probe(probe);
    }

    fn audit(&self) -> Result<(), String> {
        if self.lines.len() > self.capacity {
            return Err(format!(
                "occupancy {} exceeds capacity {}",
                self.lines.len(),
                self.capacity
            ));
        }
        if self.lookup.len() != self.lines.len() {
            return Err(format!(
                "lookup has {} entries for {} lines",
                self.lookup.len(),
                self.lines.len()
            ));
        }
        for (i, l) in self.lines.iter().enumerate() {
            match self.lookup.get(&(l.tag, l.domain)) {
                Some(&idx) if idx == i => {}
                Some(&idx) => {
                    return Err(format!(
                        "line {i} (tag {:#x}) maps to index {idx} in lookup",
                        l.tag
                    ));
                }
                None => return Err(format!("line {i} (tag {:#x}) missing from lookup", l.tag)),
            }
        }
        Ok(())
    }

    fn inject_fault(&mut self, kind: FaultKind, rng: &mut SmallRng) -> Option<String> {
        if self.lines.is_empty() {
            return None;
        }
        match kind {
            // No priority states and no index key to interrupt.
            FaultKind::PriorityFlip | FaultKind::InterruptedRekey => None,
            FaultKind::ValidDrop => {
                // Drop the CAM entry without dropping the line: the line
                // becomes unreachable while still occupying capacity.
                let i = rng.gen_range(0..self.lines.len());
                let l = self.lines[i];
                self.lookup.remove(&(l.tag, l.domain));
                Some(format!("line {i}: CAM entry dropped"))
            }
            FaultKind::DirtyFlip => {
                let i = rng.gen_range(0..self.lines.len());
                self.lines[i].dirty = !self.lines[i].dirty;
                Some(format!("line {i}: dirty bit flipped"))
            }
            FaultKind::PointerCorrupt => {
                // Redirect the CAM entry to the wrong slot.
                let i = rng.gen_range(0..self.lines.len());
                let l = self.lines[i];
                let bad = (i + 1) % self.lines.len();
                if bad == i {
                    return None;
                }
                self.lookup.insert((l.tag, l.domain), bad);
                Some(format!("line {i}: CAM pointer redirected to {bad}"))
            }
            FaultKind::TagBit => {
                let i = rng.gen_range(0..self.lines.len());
                let bit = rng.gen_range(0..48u32);
                self.lines[i].tag ^= 1u64 << bit;
                Some(format!("line {i}: tag bit {bit} stuck"))
            }
        }
    }

    fn quarantine(&mut self) -> u64 {
        let mut repaired = 0u64;
        // Rebuild the CAM from the line array; duplicate (tag, domain)
        // pairs and capacity overflow are dropped.
        self.lookup.clear();
        let mut i = 0;
        while i < self.lines.len() {
            let key = (self.lines[i].tag, self.lines[i].domain);
            if let std::collections::btree_map::Entry::Vacant(e) = self.lookup.entry(key) {
                e.insert(i);
                i += 1;
            } else {
                self.lines.swap_remove(i);
                repaired += 1;
            }
        }
        while self.lines.len() > self.capacity {
            let l = self.lines.pop().expect("list non-empty");
            self.lookup.remove(&(l.tag, l.domain));
            repaired += 1;
        }
        repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = FullyAssocCache::new(8, 1);
        for a in 0..100u64 {
            c.access(Request::read(a, DomainId::ANY));
            assert!(c.lines.len() <= 8);
        }
        assert_eq!(c.lines.len(), 8);
    }

    #[test]
    fn no_conflict_misses_within_capacity() {
        let mut c = FullyAssocCache::new(64, 1);
        for a in 0..64u64 {
            c.access(Request::read(a, DomainId::ANY));
        }
        // Any address pattern within capacity hits forever.
        for a in 0..64u64 {
            assert!(c.access(Request::read(a, DomainId::ANY)).is_data_hit());
        }
    }

    #[test]
    fn lookup_map_stays_consistent_under_eviction_and_flush() {
        let mut c = FullyAssocCache::new(16, 2);
        for a in 0..200u64 {
            c.access(Request::read(a, DomainId(0)));
            if a % 7 == 0 {
                c.flush_line(a.saturating_sub(3), DomainId(0));
            }
        }
        for (i, l) in c.lines.iter().enumerate() {
            assert_eq!(c.lookup[&(l.tag, l.domain)], i);
        }
        assert_eq!(c.lookup.len(), c.lines.len());
    }

    #[test]
    fn domains_are_isolated() {
        let mut c = FullyAssocCache::new(8, 3);
        c.access(Request::writeback(5, DomainId(1)));
        assert!(c.probe(5, DomainId(1)));
        assert!(!c.probe(5, DomainId(2)));
        assert!(!c.flush_line(5, DomainId(2)));
        assert!(c.flush_line(5, DomainId(1)));
        assert_eq!(c.stats().writebacks_out, 1);
    }
}
