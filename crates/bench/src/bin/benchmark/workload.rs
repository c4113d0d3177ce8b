//! The five workloads, and one timed repetition of each: set-up (building
//! everything the run needs) followed by the timed run.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use attacks::occupancy::OccupancyAttack;
use attacks::victims::AesVictim;
use champsim_lite::{RunResult, System, SystemConfig};
use maya_bench::designs::Design;
use maya_bench::perf::system_config;
use maya_bench::Scale;
use maya_core::{CacheModel, CacheStats, MayaCache, MayaConfig, MirageConfig};
use maya_obs::{MetricsProbe, ProbeHandle, ProfileHandle, SpanProfiler};
use workloads::block::{TraceCache, BLOCK_ACCESSES};
use workloads::mixes::{hetero_mixes, homogeneous, Mix};
use workloads::{Access, TraceGenerator};

use crate::boundary::{chunk_ns, ns_between, CountedLlc, LlcTrace, TimedGen, Timings, Watch};
use crate::report::fnv1a;

/// Simulated cores in every simulator workload.
pub const CORES: usize = 8;
/// Warm-up instructions per core (LLC statistics reset after it). On lbm
/// the warm-up makes more LLC misses than the LLC has lines.
pub const WARMUP: u64 = 100_000;
/// Measured instructions per core. A quarter of `diag`'s 300k + 900k, so
/// that one repetition lasts about a second: the shared host slows runs
/// down in stretches of seconds, and many short repetitions give the
/// fastest one more chances to fall between them than a few long ones.
pub const MEASURE: u64 = 200_000;

/// Occupancy trials (one freshly seeded cache each) and attacker/victim
/// sample pairs per trial.
pub const OCC_TRIALS: u64 = 8;
pub const OCC_PAIRS: u64 = 1_000;
/// Sets per skew of the Figure-8 Maya cache (384 data lines).
pub const OCC_SETS: usize = 32;
/// Set-ups timed per occupancy repetition.
const OCC_SETUPS: usize = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MayaStream,
    BaselineStream,
    MirageStream,
    MayaReuse,
    MayaOccupancy,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MayaStream,
        Workload::BaselineStream,
        Workload::MirageStream,
        Workload::MayaReuse,
        Workload::MayaOccupancy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MayaStream => "maya-stream",
            Workload::BaselineStream => "baseline-stream",
            Workload::MirageStream => "mirage-stream",
            Workload::MayaReuse => "maya-reuse",
            Workload::MayaOccupancy => "maya-occupancy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seconds one repetition, set-up included, typically took on the
    /// reference host (a 2-vCPU Xeon VM shared with other tenants). It only
    /// turns `--seconds` into a repetition count, so that the count is the
    /// same on every commit.
    pub fn rep_s(self) -> f64 {
        match self {
            Workload::MayaStream => 1.15,
            Workload::BaselineStream => 0.75,
            Workload::MirageStream => 1.6,
            Workload::MayaReuse => 0.9,
            Workload::MayaOccupancy => 1.1,
        }
    }

    /// The simulator design and mix, or `None` for the attack workload.
    pub fn sim(self) -> Option<(Design, Mix)> {
        let lbm = || homogeneous("lbm", CORES);
        match self {
            Workload::MayaStream => Some((Design::Maya, lbm())),
            Workload::BaselineStream => Some((Design::Baseline, lbm())),
            Workload::MirageStream => Some((Design::Mirage, lbm())),
            // Table VI mix M3.
            Workload::MayaReuse => hetero_mixes().into_iter().nth(2).map(|m| (Design::Maya, m)),
            Workload::MayaOccupancy => None,
        }
    }
}

/// How to build a fresh LLC identical to one a run used, for replays.
#[derive(Debug, Clone, Copy)]
pub enum LlcSpec {
    Design {
        design: Design,
        lines: usize,
        seed: u64,
    },
    /// The Figure-8 Maya cache.
    MayaSets { sets: usize, seed: u64 },
}

impl LlcSpec {
    pub fn build(self) -> Box<dyn CacheModel> {
        match self {
            LlcSpec::Design {
                design,
                lines,
                seed,
            } => design.build(lines, seed),
            LlcSpec::MayaSets { sets, seed } => {
                Box::new(MayaCache::new(MayaConfig::with_sets(sets, seed)))
            }
        }
    }

    /// `(seed, skews, sets per skew)` of the PRINCE index function the
    /// design derives set indices with. The baseline has none; it is
    /// measured with the Maya index its LLC size would get.
    pub fn index_geometry(self) -> (u64, usize, usize) {
        let c = match self {
            LlcSpec::Design {
                design: Design::Mirage,
                lines,
                seed,
            } => {
                let c = MirageConfig::for_data_entries(lines, seed);
                return (c.seed, c.skews, c.sets_per_skew);
            }
            LlcSpec::Design { lines, seed, .. } => MayaConfig::for_baseline_lines(lines, seed),
            LlcSpec::MayaSets { sets, seed } => MayaConfig::with_sets(sets, seed),
        };
        (c.seed, c.skews, c.sets_per_skew)
    }
}

/// The simulator configuration every simulator workload runs.
pub fn sim_config() -> SystemConfig {
    system_config(
        CORES,
        Scale {
            warmup: WARMUP,
            measure: MEASURE,
            ..Scale::quick()
        },
    )
}

/// The clock reads of a plain rep's decorators.
type Marks = Rc<RefCell<Vec<Instant>>>;

/// How a repetition is observed.
pub enum Mode {
    /// Counting decorator, reading the clock every [`CHUNK_CALLS`] calls:
    /// the end-to-end reps.
    Plain,
    /// Sampled LLC calls and every generator block timed in situ.
    Timed(Rc<RefCell<Timings>>),
    /// The LLC request/response stream recorded, one trace per LLC.
    Recorded(Rc<RefCell<Vec<LlcTrace>>>),
    /// Simulator only: the program's own observation attached,
    /// `MetricsProbe` plus the wall-timed `SpanProfiler`.
    Observed,
}

impl Mode {
    /// The LLC decorator's watch for LLC instance `i`; a plain rep's chunk
    /// marks go to `marks`.
    fn watch(&self, i: usize, marks: &Marks) -> Watch {
        match self {
            Mode::Plain => Watch::Chunks(marks.clone()),
            Mode::Timed(t) => Watch::Time(t.clone()),
            Mode::Recorded(traces) => Watch::Record(traces.clone(), i),
            Mode::Observed => Watch::Count,
        }
    }

    fn restart_clock(&self) {
        if let Mode::Timed(t) = self {
            t.borrow_mut().restart_clock();
        }
    }
}

/// One timed repetition of a simulator workload.
pub struct SimRun {
    pub setup_ns: u64,
    /// The part of set-up spent synthesizing the streams.
    pub synth_ns: u64,
    pub synth_accesses: u64,
    pub run_ns: u64,
    /// The run cut at the plain rep's chunk marks (the whole run otherwise).
    pub chunks: Vec<u64>,
    /// LLC calls through the decorator during the run, warm-up included.
    pub calls: u64,
    pub trace_accesses: u64,
    pub result: RunResult,
    pub digest: u64,
    pub llc: LlcSpec,
    /// The benchmark-owned stream cache, kept for the per-core replays.
    pub cache: TraceCache,
    /// Audit and no-synthesis-after-setup outcome.
    pub check: Result<(), String>,
}

/// Synthesizes, for each core, exactly the blocks the simulator will pull:
/// a core runs until its retired instructions reach `target`, and pulls
/// whole blocks of [`BLOCK_ACCESSES`].
fn synthesize(cache: &mut TraceCache, mix: &Mix, seed: u64, target: u64) -> u64 {
    let placeholder = Access {
        addr: 0,
        is_write: false,
        pc: 0,
        gap: 0,
        dependent: false,
    };
    let mut block = vec![placeholder; BLOCK_ACCESSES];
    let mut total = 0;
    for (core, spec) in mix.specs.iter().enumerate() {
        let mut cursor = cache.generator(spec, core, seed);
        let mut retired = 0u64;
        while retired < target {
            cursor.fill_block(&mut block);
            retired += block.iter().map(|a| u64::from(a.gap) + 1).sum::<u64>();
            total += block.len() as u64;
        }
    }
    total
}

/// FNV digest of everything a run reports: per-core results, LLC
/// statistics and DRAM counters.
pub fn digest(r: &RunResult) -> u64 {
    fnv1a(format!("{:?}|{:?}|{:?}", r.cores, r.llc, r.dram).as_bytes())
}

pub fn sim_rep(w: Workload, seed: u64, mode: &Mode) -> SimRun {
    let (design, mix) = w.sim().expect("simulator workload");
    let cfg = sim_config();
    let target = cfg.warmup_instructions + cfg.measure_instructions;
    let llc = LlcSpec::Design {
        design,
        lines: cfg.baseline_llc_lines(),
        seed,
    };

    let t0 = Instant::now();
    let mut cache = TraceCache::new(usize::MAX);
    let synth_accesses = synthesize(&mut cache, &mix, seed, target);
    let t_synth = Instant::now();
    let calls = Rc::new(Cell::new(0));
    let marks = Marks::default();
    let model = CountedLlc::new(llc.build(), calls.clone(), mode.watch(0, &marks));
    let gens: Vec<Box<dyn TraceGenerator>> = mix
        .specs
        .iter()
        .enumerate()
        .map(|(core, spec)| {
            let cursor: Box<dyn TraceGenerator> = Box::new(cache.generator(spec, core, seed));
            match mode {
                Mode::Timed(t) => Box::new(TimedGen::new(cursor, t.clone())),
                _ => cursor,
            }
        })
        .collect();
    let mut sys = System::with_generators(cfg, Box::new(model), gens);
    let t_setup = Instant::now();

    if let Mode::Observed = mode {
        let (probe, _metrics) = ProbeHandle::of(MetricsProbe::new(100_000));
        sys.set_probe(probe);
        let mut prof = SpanProfiler::new();
        let origin = Instant::now();
        prof.set_wall_timer(Box::new(move || {
            u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }));
        sys.set_profiler(ProfileHandle::of(prof).0);
    }
    mode.restart_clock();
    let buffered = cache.buffered_accesses();
    let t_run = Instant::now();
    let result = sys.run();
    let t_end = Instant::now();
    let chunks = chunk_ns(t_run, &marks.borrow(), t_end);

    let check = sys.llc().audit().and_then(|()| {
        let after = cache.buffered_accesses();
        if after != buffered {
            return Err(format!(
                "the stream cache synthesized {} accesses after set-up",
                after - buffered
            ));
        }
        let (synthesized, _) = cache.stats();
        if synthesized != mix.specs.len() as u64 {
            return Err(format!(
                "{synthesized} streams synthesized, expected one per core"
            ));
        }
        Ok(())
    });
    SimRun {
        setup_ns: ns_between(t0, t_setup),
        synth_ns: ns_between(t0, t_synth),
        synth_accesses,
        run_ns: ns_between(t_run, t_end),
        chunks,
        calls: calls.get(),
        trace_accesses: sys.trace_accesses(),
        digest: digest(&result),
        result,
        llc,
        cache,
        check,
    }
}

/// One timed repetition of the occupancy workload.
pub struct OccRun {
    /// Every set-up timed; the run used the last.
    pub setups: Vec<u64>,
    pub run_ns: u64,
    /// The run cut at the plain rep's chunk marks (the whole run otherwise;
    /// marks read while priming are dropped).
    pub chunks: Vec<u64>,
    /// LLC calls during the timed run (priming happens in set-up).
    pub calls: u64,
    /// Memory references the attacker and victims made in the run: calls
    /// minus the attacker's re-touches of evicted lines.
    pub refs: u64,
    pub samples: u64,
    pub digest: u64,
    /// Per trial: how to rebuild its cache, and its final statistics.
    pub trials: Vec<(LlcSpec, CacheStats)>,
    pub check: Result<(), String>,
}

/// The two Figure-8 AES victims (distinct keys and table addresses).
pub fn occ_victims() -> (AesVictim, AesVictim) {
    (
        AesVictim::new([0x11; 16], 1 << 30),
        AesVictim::new([0xd3; 16], 2 << 30),
    )
}

/// Primes each cache's whole data store with attacker lines, as Figure 8
/// does.
fn prime(caches: &mut [CountedLlc]) -> Vec<OccupancyAttack<'_>> {
    caches
        .iter_mut()
        .map(|c| {
            let lines = c.capacity_lines() as u64;
            OccupancyAttack::new(c, lines)
        })
        .collect()
}

pub fn occupancy_rep(seed: u64, mode: &Mode) -> OccRun {
    let specs: Vec<LlcSpec> = (0..OCC_TRIALS)
        .map(|t| LlcSpec::MayaSets {
            sets: OCC_SETS,
            seed: seed.wrapping_add(t),
        })
        .collect();
    let build = |calls: &Rc<Cell<u64>>, watch: &dyn Fn(usize) -> Watch| -> Vec<CountedLlc> {
        specs
            .iter()
            .enumerate()
            .map(|(t, spec)| CountedLlc::new(spec.build(), calls.clone(), watch(t)))
            .collect()
    };
    // A set-up takes about a millisecond, too short for one timing to be
    // steady: time OCC_SETUPS of them and keep the last.
    let mut setups = Vec::with_capacity(OCC_SETUPS);
    for _ in 1..OCC_SETUPS {
        let t0 = Instant::now();
        let mut caches = build(&Rc::new(Cell::new(0)), &|_| Watch::Count);
        let _attacks = prime(&mut caches);
        setups.push(ns_between(t0, Instant::now()));
    }
    let calls = Rc::new(Cell::new(0));
    let marks = Marks::default();
    let t0 = Instant::now();
    let mut caches = build(&calls, &|t| mode.watch(t, &marks));
    let mut victims: Vec<(AesVictim, AesVictim)> = specs.iter().map(|_| occ_victims()).collect();
    let mut attacks = prime(&mut caches);
    setups.push(ns_between(t0, Instant::now()));

    mode.restart_clock();
    marks.borrow_mut().clear();
    let primed = calls.get();
    let mut signals = vec![0u64; specs.len()];
    let t_run = Instant::now();
    for ((attack, (a, b)), signal) in attacks.iter_mut().zip(&mut victims).zip(&mut signals) {
        for _ in 0..OCC_PAIRS {
            *signal += attack.sample(a) + attack.sample(b);
        }
    }
    let t_end = Instant::now();
    let chunks = chunk_ns(t_run, &marks.borrow(), t_end);
    drop(attacks);

    let calls = calls.get() - primed;
    let evicted: u64 = signals.iter().sum();
    let check = caches.iter().try_for_each(|c| c.audit());
    let stats: Vec<CacheStats> = caches.iter().map(|c| c.stats().clone()).collect();
    OccRun {
        setups,
        run_ns: ns_between(t_run, t_end),
        chunks,
        calls,
        refs: calls - evicted,
        samples: OCC_TRIALS * OCC_PAIRS * 2,
        digest: fnv1a(format!("{signals:?}|{stats:?}").as_bytes()),
        trials: specs.into_iter().zip(stats).collect(),
        check,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wrapping the LLC in the decorator — counting, timing or recording —
    /// changes nothing a run reports.
    #[test]
    fn decorated_runs_match_bare_runs() {
        let cfg = SystemConfig {
            cores: 2,
            ..sim_config().with_instructions(20_000, 100_000)
        };
        let mix = homogeneous("lbm", 2);
        for design in [Design::Baseline, Design::Maya, Design::Mirage] {
            let spec = LlcSpec::Design {
                design,
                lines: 4 * 1024,
                seed: 5,
            };
            let bare = digest(&System::new(cfg.clone(), spec.build(), &mix, 9).run());
            let watches = [
                Watch::Count,
                Watch::Chunks(Rc::new(RefCell::new(Vec::new()))),
                Watch::Time(Rc::new(RefCell::new(Timings::new(0)))),
                Watch::Record(Rc::new(RefCell::new(vec![LlcTrace::default()])), 0),
            ];
            for watch in watches {
                let model = CountedLlc::new(spec.build(), Rc::new(Cell::new(0)), watch);
                let wrapped = digest(&System::new(cfg.clone(), Box::new(model), &mix, 9).run());
                assert_eq!(wrapped, bare, "{design:?}");
            }
        }
    }
}
