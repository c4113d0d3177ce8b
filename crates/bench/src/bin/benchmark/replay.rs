//! Replays of a recording run's streams into fresh instances of each
//! layer, timed in isolation. The LLC, DRAM and L1 replays are exact and
//! double as correctness checks; the L2 and prefetcher replays leave out
//! the feedback the simulator wires between layers (see the README).

use std::hint::black_box;
use std::time::Instant;

use champsim_lite::{Dram, PrivateCache, StridePrefetcher, SystemConfig};
use maya_core::{AccessEvent, AccessKind, CacheModel, CacheStats};
use prince_cipher::{IndexFunction, DEFAULT_MEMO_SLOTS};
use workloads::block::{TraceCache, BLOCK_ACCESSES};
use workloads::mixes::Mix;
use workloads::{Access, TraceGenerator};

use crate::boundary::{ns_between, Call, LlcTrace};

/// Replays `trace` into `fresh`, calling `reset_stats` where the run did.
/// Returns the replay's nanoseconds and whether every response and the
/// final statistics matched the run.
pub fn llc(
    trace: &LlcTrace,
    mut fresh: Box<dyn CacheModel>,
    want: &CacheStats,
) -> (u64, Result<(), String>) {
    let mut wb = trace.writeback_lines.iter().copied();
    let mut mismatches = 0u64;
    let mut first = None;
    let t = Instant::now();
    for (i, c) in trace.calls.iter().enumerate() {
        if trace.reset_at == Some(i) {
            fresh.reset_stats();
        }
        let r = fresh.access(c.request());
        let same_wbs = r.writebacks.len() == usize::from(c.writebacks)
            && r.writebacks.iter().all(|l| wb.next() == Some(l));
        if r.event != c.event || r.sae != c.sae || !same_wbs {
            mismatches += 1;
            first.get_or_insert(i);
        }
    }
    if trace.reset_at == Some(trace.calls.len()) {
        fresh.reset_stats();
    }
    let ns = ns_between(t, Instant::now());
    let outcome = if let Some(i) = first {
        Err(format!(
            "{mismatches} of {} responses differ, first at call {i}",
            trace.calls.len()
        ))
    } else if fresh.stats() != want {
        Err(format!(
            "final statistics differ: replay {:?} vs run {want:?}",
            fresh.stats()
        ))
    } else {
        fresh.audit()
    };
    (ns, outcome)
}

/// DRAM replay result.
pub struct DramReplay {
    pub ns: u64,
    pub requests: u64,
    pub counters: (u64, u64, u64),
}

/// Rebuilds the DRAM request stream from the LLC stream — each call's
/// writebacks go to DRAM first, then a read for any non-writeback call the
/// LLC did not serve — and replays it into a fresh `Dram`. The counters do
/// not depend on request times, so a synthetic clock reproduces them.
pub fn dram(trace: &LlcTrace, cfg: &SystemConfig) -> DramReplay {
    let mut dram = Dram::new(cfg.dram);
    let mut wb = trace.writeback_lines.iter().copied();
    let mut requests = 0u64;
    let t = Instant::now();
    for (i, c) in trace.calls.iter().enumerate() {
        let now = i as u64 * 4;
        for line in wb.by_ref().take(usize::from(c.writebacks)) {
            dram.write(line, c.domain, now);
            requests += 1;
        }
        if c.kind != AccessKind::Writeback && c.event != AccessEvent::DataHit {
            black_box(dram.read(c.line, c.domain, now));
            requests += 1;
        }
    }
    DramReplay {
        ns: ns_between(t, Instant::now()),
        requests,
        counters: dram.counters(),
    }
}

/// Per-core replays of the private hierarchy and the prefetcher.
#[derive(Debug, Default)]
pub struct CoreReplay {
    /// Trace accesses the cores consumed (must equal the run's count).
    pub accesses: u64,
    pub l1_ns: u64,
    pub l1_hits: u64,
    pub l2_ns: u64,
    pub l2_lookups: u64,
    pub l2_hits: u64,
    pub prefetch_ns: u64,
    pub prefetch_candidates: u64,
}

/// The accesses core `core` consumed: the simulator steps a core until
/// its retired instructions reach `target`.
fn consumed_stream(
    cache: &mut TraceCache,
    mix: &Mix,
    core: usize,
    seed: u64,
    target: u64,
) -> Vec<Access> {
    let placeholder = Access {
        addr: 0,
        is_write: false,
        pc: 0,
        gap: 0,
        dependent: false,
    };
    let mut cursor = cache.generator(&mix.specs[core], core, seed);
    let mut block = vec![placeholder; BLOCK_ACCESSES];
    let mut out = Vec::new();
    let mut retired = 0u64;
    'pull: loop {
        cursor.fill_block(&mut block);
        for &a in &block {
            out.push(a);
            retired += u64::from(a.gap) + 1;
            if retired >= target {
                break 'pull;
            }
        }
    }
    out
}

/// Replays each core's demand stream through a fresh L1 (exact: the L1
/// sees only demand accesses), its misses and dirty victims through a fresh
/// L2 (without prefetch fills or the L2's own victims), and every access
/// through a fresh prefetcher (without late/timely feedback).
pub fn cores(cache: &mut TraceCache, mix: &Mix, seed: u64, cfg: &SystemConfig) -> CoreReplay {
    let target = cfg.warmup_instructions + cfg.measure_instructions;
    let mut r = CoreReplay::default();
    for core in 0..mix.specs.len() {
        let stream = consumed_stream(cache, mix, core, seed, target);
        r.accesses += stream.len() as u64;

        let mut l1 = PrivateCache::new(cfg.l1d.sets, cfg.l1d.ways);
        let t = Instant::now();
        for a in &stream {
            let line = a.addr >> 6;
            let hit = if a.is_write {
                l1.write(line)
            } else {
                l1.read(line)
            }
            .hit;
            r.l1_hits += u64::from(hit);
        }
        r.l1_ns += ns_between(t, Instant::now());

        // The L2 request stream, built untimed from a second L1 pass:
        // `(line, is_write)`, a dirty L1 victim before the miss's read.
        let mut l1 = PrivateCache::new(cfg.l1d.sets, cfg.l1d.ways);
        let mut l2_ops = Vec::new();
        for a in &stream {
            let line = a.addr >> 6;
            let resp = if a.is_write {
                l1.write(line)
            } else {
                l1.read(line)
            };
            if !resp.hit {
                if let Some(victim) = resp.writeback {
                    l2_ops.push((victim, true));
                }
                l2_ops.push((line, false));
            }
        }
        let mut l2 = PrivateCache::new(cfg.l2.sets, cfg.l2.ways);
        let t = Instant::now();
        for &(line, is_write) in &l2_ops {
            let hit = if is_write {
                l2.write(line)
            } else {
                l2.read(line)
            }
            .hit;
            r.l2_hits += u64::from(hit);
        }
        r.l2_ns += ns_between(t, Instant::now());
        r.l2_lookups += l2_ops.len() as u64;

        let mut prefetcher = StridePrefetcher::new(cfg.prefetch_degree);
        let mut out = Vec::with_capacity(16);
        let t = Instant::now();
        for a in &stream {
            prefetcher.observe_into(a.pc, a.addr >> 6, &mut out);
            r.prefetch_candidates += out.len() as u64;
        }
        r.prefetch_ns += ns_between(t, Instant::now());
    }
    r
}

/// Replays the LLC line stream through an index function of the given
/// geometry: one derivation per call (the lookup) plus one per miss (the
/// fill's skew choice), as Maya and Mirage derive. Returns nanoseconds.
pub fn index(calls: &[Call], (seed, skews, sets): (u64, usize, usize), memo: bool) -> u64 {
    let mut f = IndexFunction::from_seed(seed, skews, sets);
    if memo {
        f = f.with_memo(DEFAULT_MEMO_SLOTS);
    }
    let mut out = vec![0usize; skews];
    let mut sink = 0usize;
    let t = Instant::now();
    for c in calls {
        f.set_indices_into(c.line, &mut out);
        sink ^= out[0];
        if c.event == AccessEvent::Miss {
            f.set_indices_into(c.line, &mut out);
            sink ^= out[skews - 1];
        }
    }
    let ns = ns_between(t, Instant::now());
    black_box(sink);
    ns
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use maya_bench::designs::Design;

    use super::*;
    use crate::boundary::{CountedLlc, Watch};
    use crate::workload::{sim_config, LlcSpec};
    use champsim_lite::System;
    use workloads::mixes::homogeneous;

    /// A two-core recorded run on a small LLC, long enough that Maya and
    /// Mirage evict globally and dirty lines reach DRAM.
    fn small_traced_run(
        design: Design,
    ) -> (LlcTrace, CacheStats, (u64, u64, u64), LlcSpec, SystemConfig) {
        let cfg = SystemConfig {
            cores: 2,
            ..sim_config().with_instructions(20_000, 200_000)
        };
        let spec = LlcSpec::Design {
            design,
            lines: 4 * 1024,
            seed: 5,
        };
        let traces = Rc::new(RefCell::new(vec![LlcTrace::default()]));
        let calls = Rc::new(std::cell::Cell::new(0));
        let model = CountedLlc::new(spec.build(), calls, Watch::Record(traces.clone(), 0));
        let mut sys = System::new(cfg.clone(), Box::new(model), &homogeneous("lbm", 2), 9);
        let r = sys.run();
        drop(sys);
        let trace = std::mem::take(&mut traces.borrow_mut()[0]);
        (trace, r.llc, r.dram, spec, cfg)
    }

    #[test]
    fn llc_and_dram_replays_are_exact_for_baseline_maya_and_mirage() {
        for design in [Design::Baseline, Design::Maya, Design::Mirage] {
            let (trace, stats, dram_counters, spec, cfg) = small_traced_run(design);
            assert!(
                trace.reset_at.is_some(),
                "{design:?}: warm-up reset recorded"
            );
            assert!(
                stats.data_fills > 0 && stats.writebacks_out > 0,
                "{design:?}: {stats:?}"
            );
            let (_, outcome) = llc(&trace, spec.build(), &stats);
            assert_eq!(outcome, Ok(()), "{design:?}");
            assert_eq!(dram(&trace, &cfg).counters, dram_counters, "{design:?}");
            // A replay into a differently seeded design must be caught.
            if design != Design::Baseline {
                let other = LlcSpec::Design {
                    design,
                    lines: 4 * 1024,
                    seed: 6,
                };
                assert!(llc(&trace, other.build(), &stats).1.is_err(), "{design:?}");
            }
        }
    }
}
