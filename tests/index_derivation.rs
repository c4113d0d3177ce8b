//! How often the decoupled designs derive set indices, counted through the
//! span profiler: Maya and Mirage derive a line's candidate sets at most
//! once per access, and on Figure 8's occupancy loop the index memo serves
//! nearly every derivation without running PRINCE.

use maya_repro::attacks::occupancy::OccupancyAttack;
use maya_repro::attacks::victims::AesVictim;
use maya_repro::maya_core::{
    CacheModel, DomainId, MayaCache, MayaConfig, MirageCache, MirageConfig, Request,
};
use maya_repro::maya_obs::{ProfileHandle, SpanProfiler, SpanTree};

/// Total count of the spans whose innermost component is `leaf`, wherever
/// they sit in the tree.
fn spans(tree: &SpanTree, leaf: &str) -> u64 {
    tree.paths()
        .iter()
        .filter(|(path, _)| path.rsplit(';').next() == Some(leaf))
        .map(|(_, s)| s.count)
        .sum()
}

/// A miss-heavy mix on a small cache: reads, writebacks, prefetches and
/// flushes over a working set four times the data store, across two
/// domains, with a re-touch of a recent line every fifth request (so
/// lookups also hit, promote and find tags of the other domain).
fn drive_and_check(id: &str, cache: &mut dyn CacheModel) {
    let (handle, prof) = ProfileHandle::of(SpanProfiler::new());
    cache.set_profiler(handle);
    let ws = 4 * cache.capacity_lines() as u64;
    let mut x = 0x1dea_5eed_u64;
    let mut recent = [0u64; 16];
    let mut derives = 0;
    let mut max_per_access = 0;
    for i in 0..20_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let line = if i % 5 == 0 {
            recent[(x >> 40) as usize % recent.len()]
        } else {
            (x >> 16) % ws
        };
        recent[i as usize % recent.len()] = line;
        let d = DomainId((x >> 60) as u16 % 2);
        match (x >> 33) % 8 {
            0 => {
                cache.flush_line(line, d);
            }
            1 | 2 => {
                cache.access(Request::writeback(line, d));
            }
            3 | 4 => {
                cache.access(Request::prefetch(line, d));
            }
            _ => {
                cache.access(Request::read(line, d));
            }
        }
        let now = spans(&prof.borrow().tree(), "index_derive");
        max_per_access = max_per_access.max(now - derives);
        derives = now;
    }
    let stats = cache.stats();
    assert!(
        stats.tag_misses > 5_000,
        "{id}: the mix must be miss-heavy, got {} tag misses",
        stats.tag_misses
    );
    assert!(
        stats.data_hits > 500,
        "{id}: the mix must also hit, got {} data hits",
        stats.data_hits
    );
    assert_eq!(
        max_per_access, 1,
        "{id}: an access derived its candidate sets {max_per_access} times"
    );
}

#[test]
fn maya_derives_at_most_once_per_access() {
    drive_and_check("maya", &mut MayaCache::new(MayaConfig::with_sets(32, 7)));
}

#[test]
fn mirage_derives_at_most_once_per_access() {
    drive_and_check(
        "mirage",
        &mut MirageCache::new(MirageConfig::for_data_entries(1024, 7)),
    );
}

/// Figure 8's loop at small scale: two Maya trials, each primed with
/// attacker lines and then sampled 200 times per AES victim. The attacker's
/// lines `0..384` and the victims' tables at lines `1 << 30` and `2 << 30`
/// share their low address bits; the hashed memo keeps all of them, so
/// PRINCE runs for at most 3% of the derivations.
#[test]
fn fig8_loop_runs_prince_for_few_derivations() {
    let (handle, prof) = ProfileHandle::of(SpanProfiler::new());
    for trial in 0..2u64 {
        let mut cache = MayaCache::new(MayaConfig::with_sets(32, 1000 + trial));
        cache.set_profiler(handle.clone());
        let lines = cache.capacity_lines() as u64;
        let mut attack = OccupancyAttack::new(&mut cache, lines);
        let mut a = AesVictim::new([0x11; 16], 1 << 30);
        let mut b = AesVictim::new([0xd3; 16], 2 << 30);
        for _ in 0..200 {
            attack.sample(&mut a);
            attack.sample(&mut b);
        }
    }
    let tree = prof.borrow().tree();
    let derives = spans(&tree, "index_derive");
    let prince = spans(&tree, "prince");
    assert!(derives > 100_000, "only {derives} derivations");
    assert!(
        prince * 100 <= derives * 3,
        "PRINCE ran for {prince} of {derives} derivations ({:.2}%)",
        prince as f64 * 100.0 / derives as f64
    );
}
