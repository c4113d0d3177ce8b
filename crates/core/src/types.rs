//! Common request/response and statistics types shared by every cache model,
//! and the [`Recorder`] through which every model counts and reports.

use std::fmt;

use maya_obs::{EventKind, EvictionCause, ProbeHandle};

/// A security domain identifier (SDID).
///
/// Maya and Mirage tag every cache entry with the domain that installed it so
/// that shared lines are *duplicated* per domain rather than shared, which
/// defeats Flush+Reload-style shared-memory attacks. The paper uses an 8-bit
/// SDID (up to 256 domains); simulations map one core or one attacker/victim
/// role to one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DomainId(pub u16);

impl DomainId {
    /// The domain used when isolation is irrelevant (single-domain runs).
    pub const ANY: DomainId = DomainId(0);
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// What kind of access arrives at the LLC.
///
/// In a non-inclusive hierarchy the LLC sees demand reads (L2 misses) and
/// writebacks (dirty L2 evictions); there is no demand-write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand read caused by an inner-level miss.
    Read,
    /// A dirty writeback from the inner level; carries the full line.
    Writeback,
    /// A prefetch fill. Conventional caches insert these at distant
    /// re-reference priority so speculative streams cannot flush the
    /// demand-resident working set; the reuse-filtered designs treat them
    /// like demand reads (tag-only until proven useful).
    Prefetch,
}

/// One request presented to a cache model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Line address (byte address >> 6 for 64-byte lines).
    pub line: u64,
    /// Demand read or writeback.
    pub kind: AccessKind,
    /// Security domain of the requester.
    pub domain: DomainId,
}

impl Request {
    /// Convenience constructor for a demand read.
    pub fn read(line: u64, domain: DomainId) -> Self {
        Self {
            line,
            kind: AccessKind::Read,
            domain,
        }
    }

    /// Convenience constructor for a writeback.
    pub fn writeback(line: u64, domain: DomainId) -> Self {
        Self {
            line,
            kind: AccessKind::Writeback,
            domain,
        }
    }

    /// Convenience constructor for a prefetch.
    pub fn prefetch(line: u64, domain: DomainId) -> Self {
        Self {
            line,
            kind: AccessKind::Prefetch,
            domain,
        }
    }
}

/// Classification of what a cache did with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessEvent {
    /// Tag and data both present: served from the cache.
    DataHit,
    /// Maya only: the tag was present as priority-0; it was promoted to
    /// priority-1 and the data store now holds the line, but the data itself
    /// had to come from memory, so the requester observes a miss.
    TagHitPromoted,
    /// Complete miss; a tag (and for designs without reuse filtering, the
    /// data) was installed.
    Miss,
}

/// Lines that a request caused to be written back to memory.
///
/// At most two lines can be displaced by a single request (a data-store
/// victim plus a set-associative-eviction victim), so this is a tiny inline
/// buffer rather than a heap vector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Writebacks {
    buf: [u64; 2],
    len: u8,
}

impl Writebacks {
    /// No writebacks.
    pub fn none() -> Self {
        Self::default()
    }

    /// Records one dirty line leaving the cache.
    ///
    /// # Panics
    ///
    /// Panics if more than two writebacks are pushed, which no model can
    /// legitimately produce for one request.
    pub fn push(&mut self, line: u64) {
        // lint:allow(robustness/panic-path) documented capacity invariant; dropping a writeback would silently corrupt dirty-traffic statistics
        assert!(
            (self.len as usize) < self.buf.len(),
            "more than two writebacks for one request"
        );
        self.buf[self.len as usize] = line;
        self.len += 1;
    }

    /// Number of recorded writebacks.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no line was written back.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the written-back line addresses.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.buf[..self.len as usize].iter().copied()
    }
}

/// The outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// What happened to the request.
    pub event: AccessEvent,
    /// Dirty lines displaced to memory by this request.
    pub writebacks: Writebacks,
    /// True if this request caused a set-associative eviction (a valid entry
    /// was evicted because no invalid tag way was available). Always false
    /// for designs without the invalid-tag guarantee.
    pub sae: bool,
}

impl Response {
    /// True when the requester's data demand was served by the cache.
    ///
    /// Writebacks always "hit" in the sense that the line is absorbed; for
    /// demand reads this is true only for [`AccessEvent::DataHit`].
    pub fn is_data_hit(&self) -> bool {
        self.event == AccessEvent::DataHit
    }
}

/// Counters every cache model maintains.
///
/// All counters are cumulative since construction or the last
/// [`reset`](CacheStats::reset).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand read requests observed.
    pub reads: u64,
    /// Writeback requests observed.
    pub writebacks_in: u64,
    /// Requests served with both tag and data present.
    pub data_hits: u64,
    /// Maya only: demand/writeback hits on a priority-0 (tag-only) entry.
    pub tag_only_hits: u64,
    /// Requests that missed entirely (no valid tag).
    pub tag_misses: u64,
    /// Lines filled into the data store.
    pub data_fills: u64,
    /// Tags installed (for Maya this exceeds `data_fills`).
    pub tag_fills: u64,
    /// Data-store entries the cache itself evicted (a replacement, SAE or
    /// global data eviction) that were never reused after their fill. A
    /// flushed line is counted in `flushes`, never here.
    pub dead_evictions: u64,
    /// Data-store entries the cache itself evicted (a replacement, SAE or
    /// global data eviction) after at least one reuse. A flushed line is
    /// counted in `flushes`, never here.
    pub reused_evictions: u64,
    /// Dirty lines written back to memory.
    pub writebacks_out: u64,
    /// Set-associative evictions (the security-critical event).
    pub saes: u64,
    /// Global random evictions from the data store (Mirage/Maya).
    pub global_data_evictions: u64,
    /// Global random evictions of priority-0 tags (Maya only).
    pub global_tag_evictions: u64,
    /// Data-store entries the cache itself evicted (as for
    /// `dead_evictions`) whose owner was a different domain than the
    /// requester (inter-core/inter-domain interference). Flushes never
    /// count.
    pub cross_domain_evictions: u64,
    /// Lines invalidated by explicit flush requests. A dirty flushed line
    /// also counts in `writebacks_out`; its reuse counts nowhere.
    pub flushes: u64,
}

impl CacheStats {
    /// Total requests observed.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writebacks_in
    }

    /// Demand misses: everything that could not be served from the data
    /// store (tag misses plus Maya's tag-only hits).
    pub fn demand_misses(&self) -> u64 {
        self.tag_misses + self.tag_only_hits
    }

    /// Fraction of evicted data entries that were dead on arrival
    /// (never reused between fill and eviction).
    ///
    /// Returns `None` when nothing has been evicted yet.
    pub fn dead_block_fraction(&self) -> Option<f64> {
        let total = self.dead_evictions + self.reused_evictions;
        (total > 0).then(|| self.dead_evictions as f64 / total as f64)
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// An entry leaving the cache, as [`Recorder::evict`] counts and reports
/// it. For Maya's global data eviction only the data leaves: the tag stays
/// behind as a priority-0 entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Victim {
    /// Domain that installed the entry.
    pub(crate) owner: DomainId,
    /// The entry held a data-store entry (false for Maya's tag-only ones).
    pub(crate) had_data: bool,
    /// The data was dirty, so it is written back.
    pub(crate) dirty: bool,
    /// The data was demand-reused since its fill.
    pub(crate) reused: bool,
    /// The tag survives as a priority-0 entry.
    pub(crate) downgraded: bool,
}

/// A model's [`CacheStats`] and probe handle in one place.
///
/// Every method moves the counters of one outcome together with that
/// outcome's event, so no counter can drift from the event stream. Methods
/// reachable from `access` neither allocate nor panic.
#[derive(Debug, Clone, Default)]
pub(crate) struct Recorder {
    stats: CacheStats,
    probe: ProbeHandle,
}

impl Recorder {
    /// The counters so far.
    pub(crate) fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes every counter; the probe stays attached.
    pub(crate) fn reset(&mut self) {
        self.stats.reset();
    }

    /// Attaches `probe` in place of the current handle.
    pub(crate) fn set_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    /// Counts an arriving request of `kind`.
    #[inline]
    pub(crate) fn request(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::Read | AccessKind::Prefetch => self.stats.reads += 1,
            AccessKind::Writeback => self.stats.writebacks_in += 1,
        }
    }

    /// `line` was served from the data store.
    #[inline]
    pub(crate) fn hit(&mut self, line: u64) {
        self.stats.data_hits += 1;
        self.probe.emit_with(|| EventKind::Hit { line });
    }

    /// `line` found a priority-0 (tag-only) entry.
    #[inline]
    pub(crate) fn tag_only_hit(&mut self, line: u64) {
        self.stats.tag_only_hits += 1;
        self.probe.emit_with(|| EventKind::TagOnlyHit { line });
    }

    /// `line` found no valid tag.
    #[inline]
    pub(crate) fn miss(&mut self, line: u64) {
        self.stats.tag_misses += 1;
        self.probe.emit_with(|| EventKind::Miss { line });
    }

    /// A tag for `line` was installed, with its data unless `tag_only`.
    /// `skew` names the tag-store skew; it runs only for an attached probe.
    #[inline]
    pub(crate) fn fill(&mut self, line: u64, tag_only: bool, skew: impl FnOnce() -> u8) {
        self.stats.tag_fills += 1;
        if !tag_only {
            self.stats.data_fills += 1;
        }
        self.probe.emit_with(|| EventKind::Fill {
            line,
            tag_only,
            skew: skew(),
        });
    }

    /// A priority-0 entry gained a data entry. `line` runs only for an
    /// attached probe.
    #[inline]
    pub(crate) fn promote(&mut self, line: impl FnOnce() -> u64) {
        self.stats.data_fills += 1;
        self.probe
            .emit_with(|| EventKind::Promotion { line: line() });
    }

    /// `v` left the cache for `cause` on behalf of `requester`.
    ///
    /// The cause's own counter moves, and a dirty victim is written back
    /// and pushed to `wb`. The flush rule: only the cache's own releases of
    /// data (replacement, SAE and global data evictions) count as dead or
    /// reused and, for another domain's line, as cross-domain. A flush
    /// counts in `flushes`, and in `writebacks_out` when dirty, and
    /// nowhere else.
    ///
    /// `locate` yields the victim's line address and tag-store skew. It
    /// runs only when the victim is dirty or a probe is attached, so a
    /// detached probe never reads the model's cold tag lane.
    #[inline]
    pub(crate) fn evict(
        &mut self,
        v: Victim,
        cause: EvictionCause,
        requester: DomainId,
        wb: &mut Writebacks,
        locate: impl FnOnce() -> (u64, u8),
    ) {
        let s = &mut self.stats;
        match cause {
            EvictionCause::Sae => s.saes += 1,
            EvictionCause::GlobalData => s.global_data_evictions += 1,
            EvictionCause::GlobalTag => s.global_tag_evictions += 1,
            EvictionCause::Flush => s.flushes += 1,
            EvictionCause::Replacement => {}
        }
        if v.had_data && cause != EvictionCause::Flush {
            if v.reused {
                s.reused_evictions += 1;
            } else {
                s.dead_evictions += 1;
            }
            if v.owner != requester {
                s.cross_domain_evictions += 1;
            }
        }
        if !v.dirty && !self.probe.is_active() {
            return;
        }
        let (line, skew) = locate();
        if v.dirty {
            s.writebacks_out += 1;
            wb.push(line);
        }
        self.probe.emit_with(|| EventKind::Eviction {
            line,
            cause,
            had_data: v.had_data,
            dirty: v.dirty,
            reused: v.reused,
            downgraded: v.downgraded,
            skew,
        });
    }

    /// The whole cache was invalidated.
    pub(crate) fn flush_all(&self) {
        self.probe.emit(EventKind::FlushAll);
    }

    /// The index function was re-keyed; `drained` dirty lines of the
    /// closing epoch were written back without a requester waiting.
    pub(crate) fn rekey(&mut self, drained: u64) {
        self.stats.writebacks_out += drained;
        self.probe.emit(EventKind::EpochRekey);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writebacks_hold_up_to_two_lines() {
        let mut w = Writebacks::none();
        assert!(w.is_empty());
        w.push(10);
        w.push(20);
        assert_eq!(w.len(), 2);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![10, 20]);
    }

    #[test]
    #[should_panic(expected = "more than two")]
    fn writebacks_reject_a_third_line() {
        let mut w = Writebacks::none();
        w.push(1);
        w.push(2);
        w.push(3);
    }

    #[test]
    fn dead_block_fraction_handles_empty_and_mixed() {
        let mut s = CacheStats::default();
        assert_eq!(s.dead_block_fraction(), None);
        s.dead_evictions = 8;
        s.reused_evictions = 2;
        assert!((s.dead_block_fraction().unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn demand_misses_include_tag_only_hits() {
        let s = CacheStats {
            tag_misses: 5,
            tag_only_hits: 3,
            ..Default::default()
        };
        assert_eq!(s.demand_misses(), 8);
    }

    #[test]
    fn request_constructors_set_kind() {
        assert_eq!(Request::read(1, DomainId(2)).kind, AccessKind::Read);
        assert_eq!(
            Request::writeback(1, DomainId(2)).kind,
            AccessKind::Writeback
        );
    }

    #[test]
    fn domain_display_is_compact() {
        assert_eq!(DomainId(7).to_string(), "D7");
    }
}
