//! Layout-equivalence twin tests: the struct-of-arrays arena refactor (and
//! any future store-layout change) must be *bit-transparent*. These tests
//! pin the observable behaviour of every design in the catalog against
//! fixtures generated on the pre-refactor AoS layout and committed to the
//! repository:
//!
//! * the full access **transcript** (every `Response`: event, SAE flag,
//!   writeback lines, in order) under a mixed multi-domain workload with
//!   flushes and (for Maya/Mirage) re-keys,
//! * the full **obs event stream** the same run emits through a probe,
//! * the final `CacheStats`, held verbatim for debuggability,
//! * whole **sweep transcripts** (experiment text output) at `--jobs 1`
//!   and `--jobs 2`,
//! * one 8-core **system run**: bare, through a probe, and through the
//!   span profiler with and without periodic audits (which pins the
//!   dispatch loop's schedule and its `sched`/`core`/`audit` spans),
//! * the SAE-prone designs (CEASER, CEASER-S, ScatterCache, Threshold) at
//!   a size where they re-key, record SAEs and evict globally, followed by
//!   one injection of every fault kind and its audit/quarantine outcome,
//! * the decoupled designs (Maya, Mirage) the same way, at sizes where
//!   their global evictions and SAE paths run.
//!
//! The streams are compared via FNV-1a-64 over their exact bytes, so a
//! match here *is* byte-identity with the pre-refactor build. Regenerate
//! with `MAYA_UPDATE_FIXTURES=1 cargo test --test layout_equivalence`
//! (only legitimate when a behaviour change is intended and documented).

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::PathBuf;

use maya_bench::designs::Design;
// lint:allow(arch/dep-graph) root-package twin test: pins sweep transcripts at --jobs 1 vs 2, which requires driving the scheduler directly
use maya_bench::sched::{self, RunOpts};
use maya_bench::Scale;
use maya_repro::champsim_lite::{RunResult, System, SystemConfig};
use maya_repro::maya_core::{
    CacheModel, CeaserCache, CeaserConfig, DomainId, FaultKind, MayaCache, MayaConfig, MirageCache,
    MirageConfig, Request, ScatterCache, ScatterConfig, SkewSelection, ThresholdCache,
    ThresholdConfig,
};
use maya_repro::maya_obs::{Event, Probe, ProbeHandle, ProfileHandle, SpanProfiler, SpanStats};
use maya_repro::workloads::mixes::hetero_mixes;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Baseline-equivalent capacity: small enough for debug runs, large enough
/// that the workload below forces evictions in every design.
const LINES: usize = 16 * 1024;
const SEED: u64 = 0x1a_0e5eed;
const ACCESSES: u64 = 24_000;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn updating() -> bool {
    std::env::var_os("MAYA_UPDATE_FIXTURES").is_some()
}

/// FNV-1a 64-bit over exact bytes: a match is byte-identity for our
/// purposes (the streams are megabytes; committing hashes keeps the
/// fixtures reviewable).
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn of(s: &str) -> u64 {
        let mut h = Fnv::new();
        h.write(s.as_bytes());
        h.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn line(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(b"\n");
    }
}

/// Probe that folds every event's exact rendering into a running hash.
struct HashingProbe {
    hash: Fnv,
    events: u64,
}

impl Probe for HashingProbe {
    fn record(&mut self, event: &Event) {
        self.hash.line(&format!("{event:?}"));
        self.events += 1;
    }
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// The deterministic mixed workload: random lines over a 1.5x-capacity
/// working set, a reuse stream (so Maya promotes), writebacks, prefetches,
/// four domains, occasional flushes, and one `flush_all` at mid-run.
/// Every response is folded into `transcript` in order.
fn drive(c: &mut dyn CacheModel, transcript: &mut Fnv) {
    let ws = 24 * 1024u64;
    let mut x = SEED;
    let mut recent = [0u64; 64];
    for i in 0..ACCESSES {
        x = lcg(x);
        let line = if i % 3 == 0 {
            recent[(x >> 32) as usize % 64]
        } else {
            let l = x % ws;
            recent[(i % 64) as usize] = l;
            l
        };
        let d = DomainId((i % 4) as u16);
        let req = match i % 11 {
            0 | 7 => Request::writeback(line, d),
            5 => Request::prefetch(line, d),
            _ => Request::read(line, d),
        };
        let r = c.access(req);
        let mut rec = format!("{i} {:?} sae={}", r.event, r.sae);
        for wb in r.writebacks.iter() {
            let _ = write!(rec, " wb={wb}");
        }
        transcript.line(&rec);
        if i % 997 == 0 {
            let flushed = c.flush_line(line, d);
            transcript.line(&format!("{i} flush_line={flushed}"));
        }
        if i == ACCESSES / 2 {
            c.flush_all();
            transcript.line(&format!("{i} flush_all"));
        }
    }
}

/// One fixture line for a cache instance: transcript hash, event-stream
/// hash, event count, final stats.
fn fingerprint(id: &str, c: &mut dyn CacheModel) -> String {
    let (handle, rc) = ProbeHandle::of(HashingProbe {
        hash: Fnv::new(),
        events: 0,
    });
    c.set_probe(handle);
    let mut transcript = Fnv::new();
    drive(c, &mut transcript);
    let p = rc.borrow();
    format!(
        "{id} transcript={:016x} events={:016x} n_events={} stats={:?}",
        transcript.0,
        p.hash.0,
        p.events,
        c.stats()
    )
}

/// Maya/Mirage re-key coverage: the same drive, split by a mid-run re-key
/// (the concrete-type API the trait does not expose).
fn rekey_fingerprint_maya() -> String {
    let mut c = MayaCache::new(MayaConfig::for_baseline_lines(LINES, SEED));
    let (handle, rc) = ProbeHandle::of(HashingProbe {
        hash: Fnv::new(),
        events: 0,
    });
    c.set_probe(handle);
    let mut t = Fnv::new();
    drive(&mut c, &mut t);
    c.rekey(SEED ^ 0xdead);
    drive(&mut c, &mut t);
    c.audit().expect("maya audit after rekey drive");
    let p = rc.borrow();
    format!(
        "maya+rekey transcript={:016x} events={:016x} n_events={} stats={:?}",
        t.0,
        p.hash.0,
        p.events,
        c.stats()
    )
}

fn rekey_fingerprint_mirage() -> String {
    let mut c = MirageCache::new(MirageConfig::for_data_entries(LINES, SEED));
    let (handle, rc) = ProbeHandle::of(HashingProbe {
        hash: Fnv::new(),
        events: 0,
    });
    c.set_probe(handle);
    let mut t = Fnv::new();
    drive(&mut c, &mut t);
    c.rekey(SEED ^ 0xbeef);
    drive(&mut c, &mut t);
    c.audit().expect("mirage audit after rekey drive");
    let p = rc.borrow();
    format!(
        "mirage+rekey transcript={:016x} events={:016x} n_events={} stats={:?}",
        t.0,
        p.hash.0,
        p.events,
        c.stats()
    )
}

fn compare_or_update(name: &str, produced: &str) {
    let path = fixture_path(name);
    if updating() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, produced).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "fixture {} unreadable ({e}); generate with MAYA_UPDATE_FIXTURES=1",
            path.display()
        )
    });
    if committed != produced {
        // Diff line by line so the failing design is obvious.
        for (a, b) in committed.lines().zip(produced.lines()) {
            assert_eq!(a, b, "fixture {name} diverged on this line");
        }
        assert_eq!(
            committed.lines().count(),
            produced.lines().count(),
            "fixture {name}: line count changed"
        );
        panic!("fixture {name} diverged (whitespace only?)");
    }
}

/// Every design's transcript, event stream, and final stats are
/// byte-identical to the committed pre-refactor fixtures.
#[test]
fn designs_match_committed_fixtures() {
    let mut out = String::new();
    for d in Design::all() {
        let mut c = d.build(LINES, SEED);
        let line = fingerprint(&d.id(), c.as_mut());
        c.audit()
            .unwrap_or_else(|e| panic!("{}: audit after drive: {e}", d.id()));
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&rekey_fingerprint_maya());
    out.push('\n');
    out.push_str(&rekey_fingerprint_mirage());
    out.push('\n');
    compare_or_update("layout_equivalence.txt", &out);
}

/// Whole sweep transcripts (experiment text output, which embeds the full
/// simulator stack: cores, prefetcher, MSHRs, LLC, DRAM) reproduce the
/// committed fixtures at `--jobs 1` and `--jobs 2` alike.
#[test]
fn sweep_transcripts_match_committed_fixtures() {
    let scale = Scale {
        warmup: 2_000,
        measure: 6_000,
        mc_iterations: 20_000,
        attack_trials: 3,
    };
    for id in ["llcfit", "fig6", "demo-flush"] {
        let sweep = maya_bench::experiments::sweep(id, scale)
            .unwrap_or_else(|| panic!("unknown experiment {id}"));
        let (serial, _) = sched::execute(sweep, &RunOpts::serial());
        let sweep = maya_bench::experiments::sweep(id, scale).expect("same id");
        let (parallel, _) = sched::execute(sweep, &RunOpts::parallel(2));
        assert_eq!(serial, parallel, "{id}: jobs-2 must reproduce jobs-1");
        compare_or_update(&format!("sweep_{id}.txt"), &serial);
    }
}

/// Attaches a span profiler to `sys`, runs it with `run`, and returns the
/// rendered result with the span tree's self counts, cycles and accesses.
fn profiled(mut sys: System, run: fn(&mut System) -> RunResult) -> (String, String) {
    let (handle, prof) = ProfileHandle::of(SpanProfiler::new());
    sys.set_profiler(handle);
    let result = format!("{:?}", run(&mut sys));
    let tree = prof.borrow().tree();
    let h = |pick: fn(&SpanStats) -> u64| Fnv::of(&tree.collapsed(pick));
    let spans = format!(
        "count={:016x} cycles={:016x} accesses={:016x}",
        h(|s| s.count),
        h(|s| s.cycles),
        h(|s| s.accesses)
    );
    (result, spans)
}

/// One 8-core heterogeneous run (Table VI mix M3) on Maya: the bare
/// `RunResult`, the probe event stream, and the span trees of a plain and
/// a checked run (which pins where the periodic audits fall). Together
/// they pin the multi-core schedule of the bare and the observed runs.
#[test]
fn system_run_matches_committed_fixture() {
    let cfg = SystemConfig::eight_core_default().with_instructions(10_000, 30_000);
    let build = || {
        let mix = hetero_mixes().into_iter().nth(2).expect("mix M3");
        let llc = Design::Maya.build(cfg.baseline_llc_lines(), SEED);
        System::new(cfg.clone(), llc, &mix, SEED)
    };
    let bare = format!("{:?}", build().run());
    let mut sys = build();
    let (handle, probe) = ProbeHandle::of(HashingProbe {
        hash: Fnv::new(),
        events: 0,
    });
    sys.set_probe(handle);
    assert_eq!(bare, format!("{:?}", sys.run()), "probe changed the run");
    let (plain, spans) = profiled(build(), System::run);
    let (checked, checked_spans) = profiled(build(), System::run_checked);
    assert_eq!(bare, plain, "profiler changed the run");
    assert_eq!(bare, checked, "auditing changed the run");
    let p = probe.borrow();
    let out = format!(
        "m3-maya result={:016x} events={:016x} n_events={}\n\
         m3-maya spans {spans}\nm3-maya checked spans {checked_spans}\n",
        Fnv::of(&bare),
        p.hash.0,
        p.events,
    );
    compare_or_update("system_run.txt", &out);
}

/// The SAE-prone line-array path of one design: the mixed drive on a
/// small cache, then each fault kind injected into a clone of the driven
/// cache with the description, audit verdict, quarantine count and
/// post-quarantine verdict it produces.
fn sae_fingerprint<C: CacheModel + Clone>(id: &str, mut c: C) -> String {
    let mut out = fingerprint(id, &mut c);
    out.push('\n');
    c.audit()
        .unwrap_or_else(|e| panic!("{id}: audit after drive: {e}"));
    c.set_probe(ProbeHandle::none());
    for kind in FaultKind::ALL {
        let mut f = c.clone();
        let desc = f.inject_fault(kind, &mut SmallRng::seed_from_u64(SEED));
        let audit = f.audit();
        let repaired = f.quarantine();
        let after = f.audit();
        let _ = writeln!(
            out,
            "{id} fault={} desc={desc:?} audit={audit:?} quarantine={repaired} after={after:?}",
            kind.name()
        );
    }
    out
}

/// CEASER/CEASER-S with a short remap period (so the drive crosses many
/// re-keys), ScatterCache and Threshold at 1024 lines (so every fill
/// contends and Threshold evicts globally), each followed by a fault round.
#[test]
fn sae_designs_match_committed_fixture() {
    let mut out = String::new();
    out.push_str(&sae_fingerprint(
        "ceaser",
        CeaserCache::new(CeaserConfig::ceaser(1024, 1_000, SEED)),
    ));
    out.push_str(&sae_fingerprint(
        "ceaser-s",
        CeaserCache::new(CeaserConfig::ceaser_s(1024, 1_000, SEED)),
    ));
    out.push_str(&sae_fingerprint(
        "scatter",
        ScatterCache::new(ScatterConfig::for_lines(1024, SEED)),
    ));
    out.push_str(&sae_fingerprint(
        "threshold",
        ThresholdCache::new(ThresholdConfig::paper_discussion(1024, SEED)),
    ));
    compare_or_update("sae_designs.txt", &out);
}

/// Maya and Mirage on small caches, load-aware and random skew selection:
/// the drive reaches both global evictions (Maya's data and tag, Mirage's
/// data) and the SAE paths (Maya's priority-0 victim pick, Mirage's random
/// way), and the fault round hits every injection arm of both designs.
#[test]
fn decoupled_designs_match_committed_fixture() {
    let random = |c: MayaConfig| MayaConfig {
        skew_selection: SkewSelection::Random,
        ..c
    };
    let mut out = String::new();
    out.push_str(&sae_fingerprint(
        "maya",
        MayaCache::new(MayaConfig::with_sets(32, SEED)),
    ));
    out.push_str(&sae_fingerprint(
        "maya-random",
        MayaCache::new(random(MayaConfig::with_sets(32, SEED))),
    ));
    out.push_str(&sae_fingerprint(
        "mirage",
        MirageCache::new(MirageConfig::for_data_entries(1024, SEED)),
    ));
    out.push_str(&sae_fingerprint(
        "mirage-random",
        MirageCache::new(MirageConfig {
            skew_selection: SkewSelection::Random,
            ..MirageConfig::for_data_entries(1024, SEED)
        }),
    ));
    compare_or_update("decoupled_designs.txt", &out);
}
