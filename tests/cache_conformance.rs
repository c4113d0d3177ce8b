//! Conformance suite: every `CacheModel` implementation must satisfy the
//! same behavioural contract. Each check runs against every registered
//! design (`Design::all()`) plus the baseline under its other replacement
//! policies (LRU, SRRIP, Random).

use maya_bench::designs::Design;
use maya_repro::maya_core::{
    AccessEvent, CacheModel, DomainId, Policy, Request, SetAssocCache, SetAssocConfig,
};

/// Baseline-equivalent capacity of the registered designs: the smallest
/// at which BCE gives each of its 8 domains one 64 KB unit.
const LINES: usize = 8 * 1024;

/// Builds one instance of every design, each with its id.
fn all_models() -> Vec<(String, Box<dyn CacheModel>)> {
    let mut models: Vec<(String, Box<dyn CacheModel>)> = [
        ("lru", Policy::Lru),
        ("srrip", Policy::Srrip),
        ("random", Policy::Random),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let c = SetAssocCache::new(SetAssocConfig::new(LINES / 16, 16, policy));
        (
            format!("baseline-{name}"),
            Box::new(c) as Box<dyn CacheModel>,
        )
    })
    .collect();
    models.extend(Design::all().iter().map(|d| (d.id(), d.build(LINES, 9))));
    models
}

/// Two touches of the same line must make it observable (`probe`) and a
/// third access must be a data hit, in every design.
#[test]
fn two_touches_cache_a_line_everywhere() {
    for (id, mut c) in all_models() {
        let d = DomainId(1);
        c.access(Request::read(42, d));
        c.access(Request::read(42, d));
        assert!(
            c.probe(42, d),
            "{}: line not resident after two touches",
            id
        );
        assert_eq!(
            c.access(Request::read(42, d)).event,
            AccessEvent::DataHit,
            "{}: third touch must hit",
            id
        );
    }
}

/// `probe` must never mutate state: two probes bracketing nothing must
/// agree, and stats must not move.
#[test]
fn probe_is_side_effect_free() {
    for (id, mut c) in all_models() {
        let d = DomainId(1);
        c.access(Request::read(7, d));
        c.access(Request::read(7, d));
        let stats_before = c.stats().clone();
        let a = c.probe(7, d);
        let b = c.probe(7, d);
        assert_eq!(a, b, "{id}");
        assert_eq!(&stats_before, c.stats(), "{}: probe mutated stats", id);
    }
}

/// Flushing a resident line removes it; flushing again reports absence.
/// A flush counts once in `flushes` and never as a dead or reused
/// eviction: only the cache's own evictions say whether a block was
/// reused.
#[test]
fn flush_semantics_are_uniform() {
    for (id, mut c) in all_models() {
        let d = DomainId(1);
        c.access(Request::read(9, d));
        c.access(Request::read(9, d));
        let before = c.stats().clone();
        assert!(c.flush_line(9, d), "{id}");
        assert!(!c.probe(9, d), "{id}");
        assert!(!c.flush_line(9, d), "{id}");
        let after = c.stats();
        assert_eq!(after.flushes, before.flushes + 1, "{id}: flushes");
        assert_eq!(
            after.dead_evictions + after.reused_evictions,
            before.dead_evictions + before.reused_evictions,
            "{id}: a flush counted as a dead or reused eviction"
        );
    }
}

/// `flush_all` leaves a completely cold cache.
#[test]
fn flush_all_empties_every_design() {
    for (id, mut c) in all_models() {
        let d = DomainId(1);
        for line in 0..256u64 {
            c.access(Request::read(line, d));
            c.access(Request::read(line, d));
        }
        c.flush_all();
        for line in 0..256u64 {
            assert!(!c.probe(line, d), "{}: line {line} survived flush_all", id);
        }
    }
}

/// Accounting identity: reads + writebacks_in equals hit + miss +
/// (tag-only hits) classifications.
#[test]
fn stats_classification_is_exhaustive() {
    for (id, mut c) in all_models() {
        let d = DomainId(1);
        for i in 0..2000u64 {
            let line = i % 700;
            if i % 5 == 0 {
                c.access(Request::writeback(line, d));
            } else {
                c.access(Request::read(line, d));
            }
        }
        let s = c.stats();
        assert_eq!(
            s.accesses(),
            s.data_hits + s.tag_only_hits + s.tag_misses,
            "{}: accesses must partition into hit/tag-only/miss",
            id
        );
    }
}

/// Stats reset touches statistics only — cache contents survive.
#[test]
fn reset_stats_preserves_contents() {
    for (id, mut c) in all_models() {
        let d = DomainId(1);
        c.access(Request::read(3, d));
        c.access(Request::read(3, d));
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0, "{id}");
        assert!(c.probe(3, d), "{}: reset_stats evicted a line", id);
    }
}

/// Capacity is honoured: after a huge distinct-line storm with double
/// touches, resident lines never exceed `capacity_lines`.
#[test]
fn capacity_is_never_exceeded() {
    for (id, mut c) in all_models() {
        let d = DomainId(1);
        let cap = c.capacity_lines() as u64;
        for line in 0..4 * cap {
            c.access(Request::read(line, d));
            c.access(Request::read(line, d));
        }
        let resident = (0..4 * cap).filter(|&l| c.probe(l, d)).count();
        assert!(
            resident <= c.capacity_lines(),
            "{}: {resident} resident > capacity {}",
            id,
            c.capacity_lines()
        );
    }
}

/// Writeback conservation under eviction pressure: every line that was
/// dirtied either leaves through a reported writeback or is still resident
/// dirty (observable by flushing it and counting `writebacks_out`).
#[test]
fn dirty_data_is_conserved() {
    for (id, mut c) in all_models() {
        let d = DomainId(1);
        let n = 3 * c.capacity_lines() as u64;
        let mut reported = 0u64;
        for line in 0..n {
            reported += c.access(Request::writeback(line, d)).writebacks.len() as u64;
        }
        let evicted_dirty = c.stats().writebacks_out;
        assert_eq!(
            reported, evicted_dirty,
            "{}: Response writebacks and stats must agree",
            id
        );
        // Flush the remainder: afterwards total writebacks equal the number
        // of distinct dirtied lines.
        for line in 0..n {
            c.flush_line(line, d);
        }
        assert_eq!(
            c.stats().writebacks_out,
            n,
            "{}: every dirty line must be written back exactly once",
            id
        );
    }
}

/// The designs report their advertised lookup-latency adders: PRINCE costs
/// the randomized designs three cycles, the decoupled ones add a cycle of
/// tag-to-data indirection, and Maya tag stores wider than 15 ways per skew
/// pay one more lookup cycle.
#[test]
fn extra_latency_matches_design_class() {
    for (id, c) in all_models() {
        let expected = match id.as_str() {
            "ceaser" | "ceaser-s" | "scatter" | "threshold" => 3,
            "maya" | "maya-r1" | "mirage" | "mirage-lite" => 4,
            "maya-r7" | "maya-iso" => 5,
            _ => 0,
        };
        assert_eq!(c.extra_latency(), expected, "{id}");
    }
}
