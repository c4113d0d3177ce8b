//! Experiment grids replay one recorded trace per `(benchmark, core, seed)`
//! stream instead of re-synthesizing it for every design row. (The file
//! keeps its name from the retired `diag` calibration example, the first
//! such grid.)
//!
//! The thread-local [`workloads::block::TraceCache`] is the mechanism;
//! these tests pin the two claims the harness depends on: (a) running the
//! same mix through several design rows synthesizes each core's stream
//! exactly once and replays it for every later row, and (b) every row —
//! replayed or freshly recorded — observes a byte-identical access stream,
//! equal to what a plain per-access generator would have produced.
//!
//! Each `#[test]` runs on its own thread and therefore gets a fresh
//! thread-local cache; the tests still assert on stat *deltas* so they
//! stay valid if that harness detail ever changes.

use maya_bench::designs::Design;
use maya_bench::perf::{run_mix, SEED};
use maya_bench::Scale;
use maya_repro::workloads::block::{cached_generators, shared_cache_stats};
use maya_repro::workloads::mixes::homogeneous;
use maya_repro::workloads::TraceGenerator;

/// Accesses hashed per core when fingerprinting a stream: a few block-cache
/// extensions' worth (16 × `BLOCK_ACCESSES`), enough to cross several
/// synthesize-on-demand boundaries.
const HASHED_ACCESSES: usize = 4096;

/// FNV-1a over every field of the next [`HASHED_ACCESSES`] accesses.
fn stream_hash(gen: &mut dyn TraceGenerator) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for _ in 0..HASHED_ACCESSES {
        let a = gen.next_access();
        mix(a.addr);
        mix(a.is_write as u64);
        mix(a.pc);
        mix(a.gap as u64);
        mix(a.dependent as u64);
    }
    h
}

/// Three design rows over one mix: the first row's `cached_generators`
/// call records each core's stream, the later rows replay, and all three
/// see the same bytes as a fresh per-access generator.
#[test]
fn design_rows_share_recordings_and_streams() {
    let mix = homogeneous("bwaves", 2);
    let (syn0, rep0) = shared_cache_stats();
    let mut row_hashes = Vec::new();
    for _row in 0..3 {
        let gens = cached_generators(&mix.specs, SEED);
        let mut h = 0u64;
        for mut g in gens {
            h ^= stream_hash(g.as_mut());
        }
        row_hashes.push(h);
    }
    let (syn1, rep1) = shared_cache_stats();
    assert_eq!(syn1 - syn0, 2, "first row records one stream per core");
    assert_eq!(rep1 - rep0, 4, "two later rows replay both cores");
    assert_eq!(row_hashes[0], row_hashes[1], "row 2 diverged from row 1");
    assert_eq!(row_hashes[1], row_hashes[2], "row 3 diverged from row 2");

    // The recorded stream is what a plain generator produces per access.
    let mut fresh = 0u64;
    for (core, spec) in mix.specs.iter().enumerate() {
        let mut g = spec.generator(core, SEED);
        fresh ^= stream_hash(&mut g);
    }
    assert_eq!(fresh, row_hashes[0], "replay diverged from fresh generator");
}

/// The real experiment path: `run_mix` for baseline, Mirage, and Maya on one
/// mix generates each core's trace once and replays it for the other two
/// design rows — and the rows agree on everything upstream of the LLC.
#[test]
fn diag_rows_generate_once_and_replay() {
    let scale = Scale {
        warmup: 2_000,
        measure: 6_000,
        mc_iterations: 0,
        attack_trials: 0,
    };
    let mix = homogeneous("bwaves", 2);
    let (syn0, rep0) = shared_cache_stats();
    let results = [
        run_mix(Design::Baseline, &mix, scale),
        run_mix(Design::Mirage, &mix, scale),
        run_mix(Design::Maya, &mix, scale),
    ];
    let (syn1, rep1) = shared_cache_stats();
    assert_eq!(syn1 - syn0, 2, "only the first design row synthesizes");
    assert_eq!(rep1 - rep0, 4, "later design rows replay every core");
    // Identical input streams: per-core instruction counts cannot differ
    // across designs (they are a function of the trace, not the LLC).
    for r in &results[1..] {
        assert_eq!(r.cores.len(), results[0].cores.len());
        for (a, b) in r.cores.iter().zip(&results[0].cores) {
            assert_eq!(a.instructions, b.instructions);
        }
    }
}
