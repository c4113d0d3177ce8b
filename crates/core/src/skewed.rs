//! The line array shared by the SAE-prone randomized designs: CEASER /
//! CEASER-S, ScatterCache and the Threshold design.
//!
//! All three keep one line per slot (valid bit, tag, owning domain, dirty
//! and reused bits) in rows of `ways` slots behind a keyed index function,
//! and they agree on everything that happens to a slot: the tag+domain
//! lookup, the hit update, the victim's eviction, the fill, the flushes,
//! the home-set + duplicate audit and the line-level fault injections.
//! [`LineArray`] owns that bookkeeping together with the designs' index
//! function and [`Recorder`]; each design keeps only its placement policy
//! (which skew, which victim) and its own extra state.
//!
//! Rows come in two layouts ([`Rows`]). A line may live in any slot of its
//! home row in a skewed array (CEASER, Threshold), and in exactly one slot
//! per way in a per-way array (ScatterCache).
//!
//! Lines carry the key epoch they were installed under. A line from an
//! older epoch is stale: it reads as missing and its slot counts as free.
//! Only CEASER advances the epoch (its lazy re-key); the other designs stay
//! at epoch 0, where live and valid coincide.

use std::collections::BTreeSet;
use std::ops::Range;

use rand::rngs::SmallRng;
use rand::Rng;

use maya_obs::EvictionCause;
use prince_cipher::{IndexFunction, MAX_SKEWS};

use crate::cache::{stuck_tag_bit, FaultKind};
use crate::types::{
    AccessEvent, AccessKind, DomainId, Recorder, Request, Response, Victim, Writebacks,
};

/// One slot of the array.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Line {
    pub(crate) valid: bool,
    pub(crate) tag: u64,
    pub(crate) sdid: DomainId,
    pub(crate) dirty: bool,
    pub(crate) reused: bool,
    /// Key epoch the line was installed under.
    pub(crate) epoch: u32,
}

/// How rows map to the index function's (skew, set) pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rows {
    /// Row `skew * sets + set`: every way of the row is a candidate slot
    /// for a line the index maps to `set` in `skew`.
    Skewed,
    /// Row `set`: way `w` is indexed by the `w`-th index function, so a
    /// line has one candidate slot per way.
    PerWay,
}

/// The line store, index function and recorder of one design.
#[derive(Debug, Clone)]
pub(crate) struct LineArray {
    pub(crate) lines: Vec<Line>,
    rows: Rows,
    ways: usize,
    pub(crate) index: IndexFunction,
    /// Current key epoch; lines installed under an older one are stale.
    pub(crate) epoch: u32,
    pub(crate) rec: Recorder,
}

/// The response to a request served from the array.
pub(crate) fn data_hit() -> Response {
    Response {
        event: AccessEvent::DataHit,
        writebacks: Writebacks::none(),
        sae: false,
    }
}

impl LineArray {
    /// An empty array of `ways`-slot rows covering every (skew, set) pair
    /// of `index`.
    pub(crate) fn new(rows: Rows, ways: usize, index: IndexFunction) -> Self {
        let row_count = match rows {
            Rows::Skewed => index.skews() * index.sets_per_skew(),
            Rows::PerWay => index.sets_per_skew(),
        };
        Self {
            lines: vec![Line::default(); row_count * ways],
            rows,
            ways,
            index,
            epoch: 0,
            rec: Recorder::default(),
        }
    }

    /// The candidate slots of `set` in `skew`.
    #[inline]
    pub(crate) fn slots(&self, skew: usize, set: usize) -> Range<usize> {
        match self.rows {
            Rows::Skewed => {
                let start = (skew * self.index.sets_per_skew() + set) * self.ways;
                start..start + self.ways
            }
            Rows::PerWay => {
                let i = set * self.ways + skew;
                i..i + 1
            }
        }
    }

    /// The (skew, set) pair whose candidate slots include slot `i`.
    fn home(&self, i: usize) -> (usize, usize) {
        let sets = self.index.sets_per_skew();
        match self.rows {
            Rows::Skewed => (i / (sets * self.ways), (i / self.ways) % sets),
            Rows::PerWay => (i % self.ways, i / self.ways),
        }
    }

    /// True if slot `i` holds a line installed under the current epoch.
    #[inline]
    pub(crate) fn live(&self, i: usize) -> bool {
        let l = &self.lines[i];
        l.valid && l.epoch == self.epoch
    }

    /// The slot holding `line` for `domain`, if it is live.
    pub(crate) fn find(&self, line: u64, domain: DomainId) -> Option<usize> {
        let mut sets_buf = [0usize; MAX_SKEWS];
        let sets = &mut sets_buf[..self.index.skews()];
        self.index.set_indices_into(line, sets);
        sets.iter()
            .enumerate()
            .flat_map(|(skew, &set)| self.slots(skew, set))
            .find(|&i| self.live(i) && self.lines[i].tag == line && self.lines[i].sdid == domain)
    }

    /// Counts `req` and serves it if its line is live: a read marks the
    /// line reused, a writeback marks it dirty, and the slot is returned.
    /// A miss is counted and reported, and returns `None`.
    pub(crate) fn lookup(&mut self, req: Request) -> Option<usize> {
        self.rec.request(req.kind);
        let Some(i) = self.find(req.line, req.domain) else {
            self.rec.miss(req.line);
            return None;
        };
        match req.kind {
            AccessKind::Read => self.lines[i].reused = true,
            AccessKind::Writeback => self.lines[i].dirty = true,
            AccessKind::Prefetch => {}
        }
        self.rec.hit(req.line);
        Some(i)
    }

    /// Invalidates slot `i` and records its eviction for `cause` on behalf
    /// of `requester` (a dirty line is pushed to `wb`).
    pub(crate) fn evict(
        &mut self,
        i: usize,
        requester: DomainId,
        wb: &mut Writebacks,
        cause: EvictionCause,
    ) {
        let victim = self.lines[i];
        debug_assert!(victim.valid);
        self.lines[i].valid = false;
        let v = Victim {
            owner: victim.sdid,
            had_data: true,
            dirty: victim.dirty,
            reused: victim.reused,
            downgraded: false,
        };
        let skew = self.home(i).0 as u8;
        self.rec
            .evict(v, cause, requester, wb, || (victim.tag, skew));
    }

    /// Installs `req`'s line in slot `i` under the current epoch, reports
    /// the fill, and returns the miss response carrying `wb` and `sae`.
    pub(crate) fn fill(&mut self, i: usize, req: Request, wb: Writebacks, sae: bool) -> Response {
        self.lines[i] = Line {
            valid: true,
            tag: req.line,
            sdid: req.domain,
            dirty: req.kind == AccessKind::Writeback,
            reused: false,
            epoch: self.epoch,
        };
        let skew = self.home(i).0 as u8;
        self.rec.fill(req.line, false, || skew);
        Response {
            event: AccessEvent::Miss,
            writebacks: wb,
            sae,
        }
    }

    /// Flushes `line` for `domain` if it is live (its writeback is counted,
    /// not returned) and returns the freed slot.
    pub(crate) fn flush_line(&mut self, line: u64, domain: DomainId) -> Option<usize> {
        let i = self.find(line, domain)?;
        self.evict(i, domain, &mut Writebacks::none(), EvictionCause::Flush);
        Some(i)
    }

    /// Invalidates every slot.
    pub(crate) fn flush_all(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
        }
        self.rec.flush_all();
    }

    /// Checks that no line claims an epoch the array has not reached, that
    /// every live line sits in a candidate slot of its home set under the
    /// current key, and that no (tag, domain) pair is live twice (`find`
    /// would serve whichever it meets first). `misplaced(skew, set, tag,
    /// home)` words the report for a line stored in `set` of `skew` whose
    /// tag hashes to `home`.
    pub(crate) fn audit(
        &self,
        misplaced: impl Fn(usize, usize, u64, usize) -> String,
    ) -> Result<(), String> {
        let mut seen: Vec<(u64, DomainId)> = Vec::new();
        for (i, l) in self.lines.iter().enumerate() {
            if !l.valid {
                continue;
            }
            if l.epoch > self.epoch {
                return Err(format!(
                    "slot {i}: line epoch {} is ahead of cache epoch {}",
                    l.epoch, self.epoch
                ));
            }
            if l.epoch != self.epoch {
                continue;
            }
            let (skew, set) = self.home(i);
            let home = self.index.set_index(skew, l.tag);
            if home != set {
                return Err(misplaced(skew, set, l.tag, home));
            }
            seen.push((l.tag, l.sdid));
        }
        seen.sort_unstable();
        for pair in seen.windows(2) {
            if pair[0] == pair[1] {
                let (tag, domain) = pair[0];
                return Err(format!(
                    "duplicate live line: tag {tag:#x} (domain {}) resident twice",
                    domain.0
                ));
            }
        }
        Ok(())
    }

    /// Drops every line [`audit`](Self::audit) rejects — future-epoch,
    /// misplaced, or a duplicate of a line in an earlier slot — since
    /// lookup cannot reach it correctly; returns how many were dropped.
    pub(crate) fn quarantine(&mut self) -> u64 {
        let mut repaired = 0u64;
        let mut seen: BTreeSet<(u64, DomainId)> = BTreeSet::new();
        for i in 0..self.lines.len() {
            let l = self.lines[i];
            if !l.valid || l.epoch < self.epoch {
                continue;
            }
            let (skew, set) = self.home(i);
            let broken = l.epoch > self.epoch
                || self.index.set_index(skew, l.tag) != set
                || !seen.insert((l.tag, l.sdid));
            if broken {
                self.lines[i].valid = false;
                repaired += 1;
            }
        }
        repaired
    }

    /// Draws a uniformly random live slot (in slot order); `None`, with no
    /// draw, when nothing is live.
    pub(crate) fn pick_live(&self, rng: &mut SmallRng) -> Option<usize> {
        let live: Vec<usize> = (0..self.lines.len()).filter(|&i| self.live(i)).collect();
        if live.is_empty() {
            return None;
        }
        Some(live[rng.gen_range(0..live.len())])
    }

    /// Applies a line-level fault to slot `i` and describes it: a dropped
    /// valid bit, a flipped dirty bit, or a stuck tag bit that moves the
    /// line out of its home set. `None` for the other fault kinds, or when
    /// no tag-bit flip leaves the home set.
    pub(crate) fn corrupt(
        &mut self,
        kind: FaultKind,
        i: usize,
        rng: &mut SmallRng,
    ) -> Option<String> {
        match kind {
            FaultKind::ValidDrop => {
                self.lines[i].valid = false;
                Some("valid bit dropped".into())
            }
            FaultKind::DirtyFlip => {
                self.lines[i].dirty = !self.lines[i].dirty;
                Some("dirty bit flipped".into())
            }
            FaultKind::TagBit => {
                let (skew, set) = self.home(i);
                let (tag, bit) = stuck_tag_bit(self.lines[i].tag, rng, |t| {
                    self.index.set_index(skew, t) == set
                })?;
                self.lines[i].tag = tag;
                Some(format!("tag bit {bit} stuck"))
            }
            FaultKind::PriorityFlip | FaultKind::PointerCorrupt | FaultKind::InterruptedRekey => {
                None
            }
        }
    }

    /// Injects a line-level fault (see [`corrupt`](Self::corrupt)) into a
    /// random live slot. Draws nothing for the other fault kinds.
    pub(crate) fn inject(&mut self, kind: FaultKind, rng: &mut SmallRng) -> Option<String> {
        match kind {
            FaultKind::ValidDrop | FaultKind::DirtyFlip | FaultKind::TagBit => {
                let i = self.pick_live(rng)?;
                let what = self.corrupt(kind, i, rng)?;
                Some(format!("slot {i}: {what}"))
            }
            FaultKind::PriorityFlip | FaultKind::PointerCorrupt | FaultKind::InterruptedRekey => {
                None
            }
        }
    }
}
