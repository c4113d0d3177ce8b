//! The [`CacheModel`] trait: the common interface every LLC design
//! implements so the simulator, the attack framework, and the experiment
//! harness can swap designs freely.

use crate::types::{CacheStats, DomainId, Request, Response};
use maya_obs::{ProbeHandle, ProfileHandle};
use rand::rngs::SmallRng;
use rand::Rng;

/// A class of single-event fault that can be injected into a cache model's
/// tag/metadata arrays (see `maya-fault`). Each kind corrupts one structural
/// aspect of a design; which kinds a design is susceptible to depends on its
/// bookkeeping (a plain array has no pointers to corrupt, a Maya/Mirage
/// entry has a forward pointer, a CEASER line has an epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Maya only: flip a tag entry's priority bit (P0 ↔ P1) without fixing
    /// the pointer bookkeeping that the state implies.
    PriorityFlip,
    /// Clear a valid bit / invalidate a tag entry *without* releasing the
    /// bookkeeping (data entry, back-indices) that the entry owns.
    ValidDrop,
    /// Flip a dirty bit. Structurally silent everywhere: no audit
    /// redundancy covers dirtiness, so the corruption surfaces only as a
    /// lost (or spurious) writeback.
    DirtyFlip,
    /// Corrupt a forward pointer (Maya/Mirage tag→data, Threshold
    /// valid-list back-index) to point at the wrong entry.
    PointerCorrupt,
    /// Flip one bit of a stored tag, modelling a stuck-at fault in the tag
    /// array. Detectable by designs whose audit re-derives an entry's home
    /// set from its tag.
    TagBit,
    /// Model a power cut mid-rekey: part of the structure reflects the new
    /// key/epoch and part the old, leaving bookkeeping inconsistent.
    InterruptedRekey,
}

impl FaultKind {
    /// Every fault kind, in a stable report order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::PriorityFlip,
        FaultKind::ValidDrop,
        FaultKind::DirtyFlip,
        FaultKind::PointerCorrupt,
        FaultKind::TagBit,
        FaultKind::InterruptedRekey,
    ];

    /// Stable lower-case name used in reports and metrics.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::PriorityFlip => "priority_flip",
            FaultKind::ValidDrop => "valid_drop",
            FaultKind::DirtyFlip => "dirty_flip",
            FaultKind::PointerCorrupt => "pointer_corrupt",
            FaultKind::TagBit => "tag_bit",
            FaultKind::InterruptedRekey => "interrupted_rekey",
        }
    }
}

/// Picks the stuck-at bit of a [`FaultKind::TagBit`] fault: starting at a
/// random one of the 48 tag bits, the first bit whose flip moves `tag` out
/// of its home set (a flip for which `stays_home` holds is undetectable by
/// construction, so it models no stress). Returns the corrupted tag and
/// the bit, or `None` when every flip stays home.
pub(crate) fn stuck_tag_bit(
    tag: u64,
    rng: &mut SmallRng,
    stays_home: impl Fn(u64) -> bool,
) -> Option<(u64, u32)> {
    let start = rng.gen_range(0..48u32);
    (0..48u32)
        .map(|off| (start + off) % 48)
        .map(|bit| (tag ^ (1u64 << bit), bit))
        .find(|&(flipped, _)| !stays_home(flipped))
}

/// A last-level-cache model.
///
/// Implementations include the non-secure set-associative baseline
/// ([`SetAssocCache`](crate::SetAssocCache)), a true fully-associative cache
/// ([`FullyAssocCache`](crate::FullyAssocCache)), and the secure designs
/// ([`MirageCache`](crate::MirageCache), [`MayaCache`](crate::MayaCache)),
/// plus the partitioned baselines used in Table XI.
///
/// The trait is object-safe: the simulator holds a `Box<dyn CacheModel>`.
pub trait CacheModel {
    /// Performs one access and reports what happened, including any dirty
    /// lines displaced to memory.
    fn access(&mut self, req: Request) -> Response;

    /// Invalidates one line for one domain (the `clflush` path). Returns
    /// true if a valid matching entry existed.
    ///
    /// With SDID isolation a flush only removes the *requesting domain's*
    /// copy, which is the property that defeats Flush+Reload.
    fn flush_line(&mut self, line: u64, domain: DomainId) -> bool;

    /// Invalidates the entire cache (key-refresh response to an SAE).
    fn flush_all(&mut self);

    /// True if a demand read for `line` from `domain` would be served from
    /// the data store right now (a timing-observable hit). Does not perturb
    /// any state.
    fn probe(&self, line: u64, domain: DomainId) -> bool;

    /// Cumulative statistics.
    fn stats(&self) -> &CacheStats;

    /// Clears statistics without touching cache contents (used at the end of
    /// warm-up).
    fn reset_stats(&mut self);

    /// Extra lookup latency in cycles on top of the baseline LLC latency
    /// (randomization cipher plus tag-to-data indirection: 4 for Maya and
    /// Mirage, 0 for the baseline).
    fn extra_latency(&self) -> u32;

    /// Number of data-store entries (lines the cache can actually hold).
    fn capacity_lines(&self) -> usize;

    /// Short human-readable design name for reports.
    fn name(&self) -> &'static str;

    /// Checks the model's internal structural invariants.
    ///
    /// Returns `Err` with a description of the first corruption found:
    /// dangling forward/reverse pointers, inconsistent occupancy counters,
    /// illegal tag states, and the like. The default is a no-op so simple
    /// models need not implement it; the stateful designs (Maya, Mirage,
    /// the baseline, the fully-associative reference) override it, and the
    /// simulator's checked mode (`System::run_checked` in `champsim-lite`)
    /// calls it periodically.
    ///
    /// Auditing must not perturb any state — it is read-only by contract
    /// (`&self`).
    fn audit(&self) -> Result<(), String> {
        Ok(())
    }

    /// Injects one fault of class `kind` into the model's metadata, choosing
    /// the victim entry with `rng` (deterministic for a given rng state).
    ///
    /// Returns `Some(description)` when a fault was planted, `None` when the
    /// kind does not apply to this design (e.g. [`FaultKind::PriorityFlip`]
    /// on a design without priority states) or no susceptible entry exists
    /// right now (e.g. an empty cache). The default is `None`: a model that
    /// does not opt in cannot be corrupted, and `maya-fault` reports the
    /// fault class as not-applicable rather than silently passing.
    fn inject_fault(&mut self, _kind: FaultKind, _rng: &mut SmallRng) -> Option<String> {
        None
    }

    /// Rebuilds derived bookkeeping from the tag array, invalidating entries
    /// that cannot be reconciled (the quarantine-and-invalidate recovery
    /// policy). Returns the number of entries repaired or dropped. Must be
    /// deterministic and must leave the model in a state where [`audit`]
    /// passes for any corruption limited to derived structures; corruption
    /// of the tags themselves may require `flush_all` instead (the caller
    /// escalates when `audit` still fails afterwards).
    ///
    /// [`audit`]: CacheModel::audit
    fn quarantine(&mut self) -> u64 {
        0
    }

    /// Attaches an observability probe (see `maya-obs`). Models emit
    /// structured events through the handle; the default ignores it, and
    /// every model defaults to an inactive handle, so un-instrumented runs
    /// are bit-identical to instrumented ones. Attaching a probe must
    /// never change model behaviour — probes observe, they do not steer.
    fn set_probe(&mut self, _probe: ProbeHandle) {}

    /// Attaches a span profiler (see `maya-obs::profile`). Instrumented
    /// models open component spans (`index_derive`, `replacement`,
    /// `prince`) around their hot phases; the default ignores the handle
    /// and every model defaults to an inactive one, so un-profiled runs
    /// are bit-identical to profiled ones. Like probes, profilers observe
    /// only — attaching one must never change model behaviour.
    fn set_profiler(&mut self, _profiler: ProfileHandle) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_: &mut dyn CacheModel) {}
    }
}
