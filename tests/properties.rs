//! Property-based tests (proptest) on the core data structures and
//! invariants: the Maya cache's pointer/population invariants under
//! arbitrary request sequences, PRINCE's permutation properties, the
//! Figure-3 state machine, storage-model monotonicity, and the
//! set-associative line store against a linear oracle.

use proptest::prelude::*;

use maya_repro::maya_core::maya::{transition, TagEvent, TagState};
use maya_repro::maya_core::sets::{self, SetStore};
use maya_repro::maya_core::storage::StorageReport;
use maya_repro::maya_core::{
    AccessEvent, CacheModel, DomainId, FaultKind, MayaCache, MayaConfig, MirageCache, MirageConfig,
    Request, Response,
};
use maya_repro::prince_cipher::{IndexFunction, Prince};

/// An arbitrary request over a bounded address space and few domains.
fn arb_request(lines: u64) -> impl Strategy<Value = Request> {
    (0..lines, any::<bool>(), 0u16..3).prop_map(|(line, write, dom)| {
        if write {
            Request::writeback(line, DomainId(dom))
        } else {
            Request::read(line, DomainId(dom))
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any request sequence, every Maya structural invariant holds:
    /// fptr/rptr are mutually consistent, population counters match the
    /// lists, priority-0 never exceeds its capacity, and no data entries
    /// leak.
    #[test]
    fn maya_invariants_hold_under_arbitrary_traffic(
        reqs in proptest::collection::vec(arb_request(4096), 1..2000),
        seed in 0u64..1000,
    ) {
        let mut c = MayaCache::new(MayaConfig {
            sets_per_skew: 32,
            skews: 2,
            base_ways_per_skew: 3,
            reuse_ways_per_skew: 2,
            invalid_ways_per_skew: 3,
            skew_selection: maya_repro::maya_core::SkewSelection::LoadAware,
            seed,
        });
        for r in &reqs {
            c.access(*r);
        }
        c.audit().expect("MayaCache invariant violated");
    }

    /// A demand read immediately after any traffic: either it hits (tag was
    /// priority-1), promotes (priority-0), or misses and leaves a
    /// priority-0 tag behind — and a *second* read of the same line then
    /// always serves data.
    #[test]
    fn maya_two_touches_always_cache_a_line(
        reqs in proptest::collection::vec(arb_request(2048), 0..500),
        line in 0u64..2048,
    ) {
        let mut c = MayaCache::new(MayaConfig::with_sets(32, 5));
        for r in &reqs {
            c.access(*r);
        }
        let d = DomainId(0);
        c.access(Request::read(line, d));
        c.access(Request::read(line, d));
        let r = c.access(Request::read(line, d));
        prop_assert_eq!(r.event, AccessEvent::DataHit);
        c.audit().expect("MayaCache invariant violated");
    }

    /// Mirage keeps exactly `capacity` lines once warm, regardless of the
    /// traffic pattern.
    #[test]
    fn mirage_occupancy_is_exact_after_warmup(
        reqs in proptest::collection::vec(arb_request(100_000), 2000..4000),
    ) {
        let mut c = MirageCache::new(MirageConfig {
            sets_per_skew: 16,
            skews: 2,
            base_ways_per_skew: 4,
            extra_ways_per_skew: 6,
            skew_selection: maya_repro::maya_core::SkewSelection::LoadAware,
            seed: 3,
        });
        let mut distinct = std::collections::HashSet::new();
        for r in &reqs {
            c.access(*r);
            distinct.insert((r.line, r.domain));
        }
        if distinct.len() >= 2 * c.capacity_lines() {
            let resident = reqs
                .iter()
                .map(|r| (r.line, r.domain))
                .collect::<std::collections::HashSet<_>>()
                .into_iter()
                .filter(|&(l, d)| c.probe(l, d))
                .count();
            prop_assert_eq!(resident, c.capacity_lines());
        }
    }

    /// PRINCE is a permutation: distinct plaintexts map to distinct
    /// ciphertexts, and decrypt inverts encrypt, for arbitrary keys.
    #[test]
    fn prince_is_a_keyed_permutation(k0: u64, k1: u64, a: u64, b: u64) {
        let c = Prince::new(k0, k1);
        prop_assert_eq!(c.decrypt(c.encrypt(a)), a);
        if a != b {
            prop_assert_ne!(c.encrypt(a), c.encrypt(b));
        }
    }

    /// Index functions stay in range and are deterministic for any seed.
    #[test]
    fn index_function_ranges(seed: u64, addr: u64) {
        let f = IndexFunction::from_seed(seed, 2, 256);
        for skew in 0..2 {
            let i = f.set_index(skew, addr);
            prop_assert!(i < 256);
            prop_assert_eq!(i, f.set_index(skew, addr));
        }
    }

    /// The index memo is invisible: under any interleaving of single-skew
    /// lookups, batch lookups and memo clears, a memoized index function
    /// returns what its memo-less twin computes. The memo has at most four
    /// 2-way sets and the pool holds at least nine distinct lines, so some
    /// memo set always serves three or more lines. Skew counts cover one
    /// skew, Maya and Mirage's two, an odd three and ScatterCache's 16.
    #[test]
    fn memo_never_changes_an_index(
        seed in any::<u64>(),
        skew_pick in 0usize..4,
        set_bits in 0u32..21,
        memo_slots in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        (first, stride, n) in (any::<u64>(), 1u64..1 << 40, 9u64..40),
        ops in proptest::collection::vec((0u8..8, any::<usize>()), 1..400),
    ) {
        let skews = [1, 2, 3, 16][skew_pick];
        let sets = 1usize << set_bits;
        let plain = IndexFunction::from_seed(seed, skews, sets);
        let memo = IndexFunction::from_seed(seed, skews, sets).with_memo(memo_slots);
        // Line 0 matches the line word of a never-filled (zeroed) entry.
        let mut pool: Vec<u64> = (0..n).map(|i| first.wrapping_add(i * stride)).collect();
        pool.push(0);
        let (mut a, mut b) = (vec![0; skews], vec![0; skews]);
        for (kind, pick) in ops {
            let line = pool[pick % pool.len()];
            match kind {
                0 => memo.clear_memo(),
                1..=3 => {
                    let skew = pick % skews;
                    prop_assert_eq!(memo.set_index(skew, line), plain.set_index(skew, line));
                }
                _ => {
                    memo.set_indices_into(line, &mut a);
                    plain.set_indices_into(line, &mut b);
                    prop_assert_eq!(&a, &b);
                }
            }
        }
    }

    /// The Figure-3 state machine never reaches an illegal state through
    /// legal events, and data-bearing states always come from a legal path.
    #[test]
    fn tag_state_machine_is_closed(
        events in proptest::collection::vec(
            prop_oneof![
                Just(TagEvent::DemandRead),
                Just(TagEvent::Write),
                Just(TagEvent::GlobalDataEviction),
                Just(TagEvent::GlobalTagEviction),
                Just(TagEvent::Flush),
            ],
            0..64,
        )
    ) {
        let mut state = TagState::Invalid;
        for e in events {
            if let Ok(next) = transition(state, e) {
                // has_data iff priority-1 is an invariant of every state the
                // machine can produce.
                prop_assert_eq!(
                    next.has_data(),
                    matches!(next, TagState::Priority1Clean | TagState::Priority1Dirty)
                );
                state = next;
            }
        }
    }

    /// Storage model: growing any geometry dimension never shrinks storage,
    /// and Maya's total is monotone in reuse ways.
    #[test]
    fn storage_monotonic_in_reuse_ways(r1 in 1usize..6, r2 in 1usize..6) {
        prop_assume!(r1 < r2);
        let mk = |r| StorageReport::maya(&MayaConfig {
            reuse_ways_per_skew: r,
            ..MayaConfig::default_12mb(0)
        });
        prop_assert!(mk(r2).total_kb() > mk(r1).total_kb());
    }

    /// Writebacks of dirty lines are conserved: every dirty line that
    /// leaves the Maya or Mirage cache is reported exactly once (no lost
    /// writebacks) in a closed workload.
    #[test]
    fn dirty_lines_are_never_silently_dropped(
        lines in proptest::collection::vec(0u64..512, 1..300),
        mirage in any::<bool>(),
    ) {
        let mut c: Box<dyn CacheModel> = if mirage {
            Box::new(MirageCache::new(MirageConfig::for_data_entries(256, 5)))
        } else {
            Box::new(MayaCache::new(MayaConfig::with_sets(32, 5)))
        };
        let d = DomainId(0);
        let mut dirty = std::collections::HashSet::new();
        let mut written_back = 0u64;
        for &l in &lines {
            let r = c.access(Request::writeback(l, d));
            dirty.insert(l);
            written_back += r.writebacks.len() as u64;
        }
        // Flush everything; count the rest of the writebacks via stats.
        let before = c.stats().writebacks_out;
        prop_assert!(before >= written_back);
        for &l in &dirty {
            c.flush_line(l, d);
        }
        let total_out = c.stats().writebacks_out;
        // Every distinct dirty line is written back exactly once: either
        // evicted earlier or flushed now.
        prop_assert_eq!(total_out, dirty.len() as u64);
    }
}

// --- determinism and audit coverage over the whole design catalog --------
//
// Plain (non-proptest) tests: they enumerate `Design::all()` so every
// registered design — including ones added later — is covered without
// editing this file.

use maya_bench::designs::Design;
use maya_repro::maya_core::AccessKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic mixed trace (reads, writebacks, prefetches, occasional
/// flushes) over a bounded address space, driven into `c`. Returns after
/// `ops` operations.
fn drive_mixed(c: &mut dyn CacheModel, seed: u64, ops: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..ops {
        let line = rng.gen_range(0..8192u64);
        let dom = DomainId(rng.gen_range(0..4u16));
        match rng.gen_range(0..10u32) {
            0..=5 => {
                c.access(Request::read(line, dom));
            }
            6..=7 => {
                c.access(Request::writeback(line, dom));
            }
            8 => {
                c.access(Request {
                    line,
                    kind: AccessKind::Prefetch,
                    domain: dom,
                });
            }
            _ => {
                c.flush_line(line, dom);
            }
        }
    }
}

/// Every design in the catalog is bit-identical across two runs with the
/// same seed: same stats, same probe outcomes. This is the workspace's
/// determinism contract — all randomness flows from the explicit seed.
#[test]
fn every_design_is_bit_identical_across_reruns() {
    for design in Design::all() {
        let run = || {
            let mut c = design.build(32 * 1024, 0xD5EED);
            drive_mixed(c.as_mut(), 0xACE5, 6_000);
            let probes: Vec<bool> = (0..256u64).map(|l| c.probe(l, DomainId(1))).collect();
            (c.stats().clone(), probes)
        };
        let (stats_a, probes_a) = run();
        let (stats_b, probes_b) = run();
        assert_eq!(
            stats_a,
            stats_b,
            "{}: stats diverged across reruns",
            design.id()
        );
        assert_eq!(
            probes_a,
            probes_b,
            "{}: probe outcomes diverged",
            design.id()
        );
    }
}

/// After a long mixed workload every design still passes its structural
/// audit — and a flush_all later, too. Designs without a specific audit
/// inherit the no-op default, so this also pins that audit() stays
/// object-safe and callable through `dyn CacheModel`.
#[test]
fn audit_passes_after_long_mixed_workloads() {
    for design in Design::all() {
        let mut c = design.build(32 * 1024, 0xF00D);
        drive_mixed(c.as_mut(), 0xBEEF, 20_000);
        c.audit()
            .unwrap_or_else(|e| panic!("{}: audit failed after mixed workload: {e}", design.id()));
        c.flush_all();
        c.audit()
            .unwrap_or_else(|e| panic!("{}: audit failed after flush_all: {e}", design.id()));
    }
}

/// One step of an arbitrary interleaving: demand traffic, line and whole
/// flushes, and mid-stream re-keys (the operation that rebuilds the index
/// function and with it the arena layout's access order).
#[derive(Debug, Clone, Copy)]
enum InterleaveOp {
    /// A demand read.
    Read(u64, u16),
    /// A dirty writeback arriving from the level above.
    Write(u64, u16),
    /// A prefetch (Maya ignores these by design; Mirage installs).
    Prefetch(u64, u16),
    /// Flush one line.
    FlushLine(u64, u16),
    /// Flush the whole cache.
    FlushAll,
    /// Re-key with a fresh seed.
    Rekey(u64),
}

fn arb_interleave_op(lines: u64) -> impl Strategy<Value = InterleaveOp> {
    use InterleaveOp::*;
    // The vendored proptest has no weighted prop_oneof; bias toward
    // demand traffic by drawing a selector alongside the operands.
    (0u32..16, 0..lines, 0u16..3, 0u64..1_000_000).prop_map(|(sel, l, d, s)| match sel {
        0..=7 => Read(l, d),
        8..=11 => Write(l, d),
        12 => Prefetch(l, d),
        13 => FlushLine(l, d),
        14 => FlushAll,
        _ => Rekey(s),
    })
}

/// Drives `ops` into a cache, collecting the exact observable record of
/// every step: the full `Response` (event, SAE flag, writeback lines) or
/// flush outcome. `rekey` applies the design's re-key entry point.
fn interleave_run<C: CacheModel>(
    mut c: C,
    ops: &[InterleaveOp],
    rekey: impl Fn(&mut C, u64),
) -> (Vec<(u32, Response)>, maya_repro::maya_core::CacheStats) {
    let mut log = Vec::new();
    // Placeholder record for non-access ops (flushes, re-keys); the
    // `sae` slot carries flush_line's hit/miss outcome.
    let blank = Response {
        event: AccessEvent::Miss,
        writebacks: maya_repro::maya_core::Writebacks::none(),
        sae: false,
    };
    for (i, op) in ops.iter().enumerate() {
        let r = match *op {
            InterleaveOp::Read(l, d) => c.access(Request::read(l, DomainId(d))),
            InterleaveOp::Write(l, d) => c.access(Request::writeback(l, DomainId(d))),
            InterleaveOp::Prefetch(l, d) => c.access(Request {
                line: l,
                kind: maya_repro::maya_core::AccessKind::Prefetch,
                domain: DomainId(d),
            }),
            InterleaveOp::FlushLine(l, d) => {
                let hit = c.flush_line(l, DomainId(d));
                let mut r = blank;
                r.sae = hit;
                r
            }
            InterleaveOp::FlushAll => {
                c.flush_all();
                blank
            }
            InterleaveOp::Rekey(s) => {
                rekey(&mut c, s);
                c.audit().expect("audit after rekey");
                blank
            }
        };
        log.push((i as u32, r));
    }
    c.audit().expect("audit after interleaving");
    (log, c.stats().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Twin determinism under arbitrary access/flush/rekey interleavings:
    /// two identically-seeded Maya instances driven by the same random op
    /// sequence produce byte-for-byte the same response stream, writeback
    /// lines, stats, and pass their structural audit at every re-key.
    /// This is the arena layout's bit-transparency contract exercised on
    /// adversarial schedules rather than the committed fixture trace.
    #[test]
    fn maya_interleavings_are_deterministic_twins(
        ops in proptest::collection::vec(arb_interleave_op(4096), 1..600),
        seed in 0u64..500,
    ) {
        let build = || MayaCache::new(MayaConfig { seed, ..MayaConfig::with_sets(32, 5) });
        let a = interleave_run(build(), &ops, |c, s| c.rekey(s));
        let b = interleave_run(build(), &ops, |c, s| c.rekey(s));
        prop_assert_eq!(a, b);
    }

    /// The same twin contract for Mirage, whose re-key path also walks the
    /// arena (flush + fresh index function).
    #[test]
    fn mirage_interleavings_are_deterministic_twins(
        ops in proptest::collection::vec(arb_interleave_op(4096), 1..600),
        seed in 0u64..500,
    ) {
        let build = || {
            let mut cfg = MirageConfig::for_data_entries(1024, seed);
            cfg.seed = seed;
            MirageCache::new(cfg)
        };
        let a = interleave_run(build(), &ops, |c, s| c.rekey(s));
        let b = interleave_run(build(), &ops, |c, s| c.rekey(s));
        prop_assert_eq!(a, b);
    }
}

// --- the presence filter --------------------------------------------------

/// One step of the presence-filter property.
#[derive(Debug, Clone, Copy)]
enum PresenceOp {
    /// A demand read: installs priority-0, or promotes.
    Read(u64, u16),
    /// A writeback: installs priority-1 dirty, driving global evictions.
    Write(u64, u16),
    /// Flush one line.
    FlushLine(u64, u16),
    /// Flush the whole cache.
    FlushAll,
    /// Re-key with a fresh seed.
    Rekey(u64),
    /// `FaultKind::TagBit` from a fault RNG with this seed.
    TagBit(u64),
}

/// Few lines in many domains: each (line, domain) pair is its own tag
/// entry, and every copy of a line maps to the same filter counters, so
/// counters reach their saturation value of 15.
fn arb_presence_op() -> impl Strategy<Value = PresenceOp> {
    use PresenceOp::*;
    (0u32..32, 0u64..4, 0u16..40, 0u64..1_000_000).prop_map(|(sel, l, d, s)| match sel {
        0..=13 => Read(l, d),
        14..=25 => Write(l, d),
        26..=28 => FlushLine(l, d),
        29 => TagBit(s),
        30 => Rekey(s),
        _ => FlushAll,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The presence filter never hides a valid line and stays equal to a
    /// recount of the tag store, under installs, global and SAE
    /// evictions, flushes, re-keys and stuck tag bits, on a tiny Maya
    /// whose counters saturate (up to 24 copies of one line fit in its
    /// two candidate sets).
    #[test]
    fn maya_presence_filter_never_hides_a_valid_line(
        ops in proptest::collection::vec(arb_presence_op(), 1..600),
        seed in 0u64..500,
    ) {
        let mut c = MayaCache::new(MayaConfig {
            sets_per_skew: 4,
            skews: 2,
            base_ways_per_skew: 4,
            reuse_ways_per_skew: 4,
            invalid_ways_per_skew: 4,
            skew_selection: maya_repro::maya_core::SkewSelection::LoadAware,
            seed,
        });
        for (step, op) in ops.iter().enumerate() {
            match *op {
                PresenceOp::Read(l, d) => {
                    c.access(Request::read(l, DomainId(d)));
                }
                PresenceOp::Write(l, d) => {
                    c.access(Request::writeback(l, DomainId(d)));
                }
                PresenceOp::FlushLine(l, d) => {
                    c.flush_line(l, DomainId(d));
                }
                PresenceOp::FlushAll => c.flush_all(),
                PresenceOp::Rekey(s) => c.rekey(s),
                PresenceOp::TagBit(fault_seed) => {
                    c.inject_fault(FaultKind::TagBit, &mut SmallRng::seed_from_u64(fault_seed));
                }
            }
            for line in c.valid_lines() {
                prop_assert!(
                    c.maybe_present(line),
                    "step {}: valid line {:#x} tests absent after {:?}",
                    step,
                    line,
                    op
                );
            }
            if let Err(e) = c.audit_presence() {
                prop_assert!(false, "step {}: {} after {:?}", step, e, op);
            }
        }
    }
}

// --- the set-associative line store ----------------------------------------

/// One step of the line-store oracle property. Entry indices and line
/// picks are taken modulo the geometry and the line pool.
#[derive(Debug, Clone, Copy)]
enum StoreOp {
    Install(usize, usize, u8, u16),
    SetMeta(usize, u8),
    MetaOr(usize, u8),
    MetaAnd(usize, u8),
    MetaXor(usize, u8),
    SetSdid(usize, u16),
    SetTag(usize, usize),
    Invalidate(usize),
    Clear,
}

/// Domains the store ops draw from; `0xFFFF` fills the whole sdid half.
const STORE_SDIDS: [u16; 4] = [0, 1, 2, 0xFFFF];

fn arb_store_op() -> impl Strategy<Value = StoreOp> {
    use StoreOp::*;
    (0u32..64, 0usize..64, 0usize..64, any::<u8>(), 0usize..4).prop_map(|(sel, i, l, m, d)| {
        match sel {
            0..=19 => Install(i, l, m | sets::meta::VALID, STORE_SDIDS[d]),
            20..=23 => Install(i, l, m, STORE_SDIDS[d]),
            24..=29 => SetMeta(i, m),
            30..=35 => MetaOr(i, m),
            36..=41 => MetaAnd(i, m),
            42..=47 => MetaXor(i, m),
            48..=51 => SetSdid(i, STORE_SDIDS[d]),
            52..=57 => SetTag(i, l),
            58..=62 => Invalidate(i),
            _ => Clear,
        }
    })
}

/// The store's filter byte of `line`, read back from a one-entry store.
fn filter_byte(line: u64) -> u32 {
    let mut s = SetStore::new(1);
    s.install(0, line, 0, 0);
    s.keys(0, 1)[0] & sets::key::FILT_MASK
}

/// Eight lines, then for each of them the next address above `1 << 20`
/// that shares its filter byte, so some pairs differ only in the tag lane.
fn store_line_pool() -> Vec<u64> {
    let mut pool: Vec<u64> = (0..8).map(|l| l * 5 + 3).collect();
    for l in pool.clone() {
        let f = filter_byte(l);
        let twin = (1u64 << 20..)
            .find(|&x| !pool.contains(&x) && filter_byte(x) == f)
            .expect("a 256-valued filter byte repeats");
        pool.push(twin);
    }
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The set store agrees with a plain `(valid, tag, sdid, meta)` vector
    /// under installs, meta writes, sdid and tag rewrites, invalidations
    /// and clears on a 4-set, 4-way geometry: after every step the masked
    /// scan (any domain and one domain), the first-invalid scan and the
    /// invalid-way count match a linear scan of the oracle over every set
    /// and over a way range that skips each set's first way.
    #[test]
    fn set_store_matches_a_linear_oracle(
        ops in proptest::collection::vec(arb_store_op(), 1..300),
    ) {
        const SETS: usize = 4;
        const WAYS: usize = 4;
        const N: usize = SETS * WAYS;
        let pool = store_line_pool();
        let mut store = SetStore::new(N);
        // Invalid entries of a fresh store hold tag 0, sdid 0, meta 0.
        let mut oracle = vec![(false, 0u64, 0u16, 0u8); N];
        for (step, op) in ops.iter().enumerate() {
            match *op {
                StoreOp::Install(i, l, m, d) => {
                    store.install(i % N, pool[l % pool.len()], m, d);
                    oracle[i % N] = (m & sets::meta::VALID != 0, pool[l % pool.len()], d, m);
                }
                StoreOp::SetMeta(i, m) => {
                    store.set_meta(i % N, m);
                    oracle[i % N].3 = m;
                }
                StoreOp::MetaOr(i, m) => {
                    store.meta_or(i % N, m);
                    oracle[i % N].3 |= m;
                }
                StoreOp::MetaAnd(i, m) => {
                    store.meta_and(i % N, m);
                    oracle[i % N].3 &= m;
                }
                StoreOp::MetaXor(i, m) => {
                    store.meta_xor(i % N, m);
                    oracle[i % N].3 ^= m;
                }
                StoreOp::SetSdid(i, d) => {
                    store.set_sdid(i % N, d);
                    oracle[i % N].2 = d;
                }
                StoreOp::SetTag(i, l) => {
                    store.set_tag(i % N, pool[l % pool.len()]);
                    oracle[i % N].1 = pool[l % pool.len()];
                }
                StoreOp::Invalidate(i) => {
                    store.meta_and(i % N, !sets::meta::VALID);
                    oracle[i % N].3 &= !sets::meta::VALID;
                }
                StoreOp::Clear => {
                    store.clear();
                    for e in &mut oracle {
                        e.3 = 0;
                    }
                }
            }
            for e in &mut oracle {
                e.0 = e.3 & sets::meta::VALID != 0;
            }
            for (i, &(valid, tag, sdid, meta)) in oracle.iter().enumerate() {
                let have = (store.meta(i), store.sdid(i), valid.then(|| store.tag(i)));
                let want = (meta, sdid, valid.then_some(tag));
                prop_assert!(
                    have == want,
                    "step {}: entry {} holds {:?}, oracle {:?} after {:?}",
                    step, i, have, want, op
                );
            }
            for set in 0..SETS {
                for (base, ways) in [(set * WAYS, WAYS), (set * WAYS + 1, WAYS - 1)] {
                    let range = base..base + ways;
                    let have = (store.first_invalid(base, ways), store.invalid_ways(base, ways));
                    let want = (
                        range.clone().find(|&i| !oracle[i].0),
                        range.clone().filter(|&i| !oracle[i].0).count(),
                    );
                    prop_assert!(
                        have == want,
                        "step {}: invalid scans of {:?} give {:?}, oracle {:?} after {:?}",
                        step, range, have, want, op
                    );
                    for &line in &pool {
                        let have = store.find_way(base, ways, line, 0, sets::key::MATCH_LINE);
                        let want = range.clone().find(|&i| oracle[i].0 && oracle[i].1 == line);
                        prop_assert!(
                            have == want,
                            "step {}: line {:#x} in {:?} found at {:?}, oracle {:?} after {:?}",
                            step, line, range, have, want, op
                        );
                        for d in STORE_SDIDS {
                            let have =
                                store.find_way(base, ways, line, d, sets::key::MATCH_LINE_SDID);
                            let want = range
                                .clone()
                                .find(|&i| oracle[i].0 && oracle[i].1 == line && oracle[i].2 == d);
                            prop_assert!(
                                have == want,
                                "step {}: line {:#x} domain {} in {:?} found at {:?}, oracle {:?} after {:?}",
                                step, line, d, range, have, want, op
                            );
                        }
                    }
                }
            }
        }
    }
}
