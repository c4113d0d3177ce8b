//! Shared performance-run machinery: building systems, alone-IPC caching,
//! and normalized weighted speedup.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;

use champsim_lite::{weighted_speedup, DramConfig, RunResult, System, SystemConfig};
use maya_obs::{
    run_header, write_jsonl_with_spans, MetricsProbe, ProbeHandle, ProfileHandle, SpanProfiler,
};
use workloads::mixes::{homogeneous, Mix};

use crate::designs::Design;
use crate::Scale;

thread_local! {
    /// Ambient sidecar directory: when set, every [`run_mix_with`] call
    /// inside a sweep cell on this thread writes a JSONL metrics sidecar
    /// next to its TSV output. Thread-local so parallel tests cannot race;
    /// the sweep scheduler propagates the dispatcher's setting into its
    /// workers.
    static METRICS_DIR: RefCell<Option<PathBuf>> = const { RefCell::new(None) };
    /// Active sweep cell on this thread: `(experiment, job id)` plus a
    /// per-cell run ordinal. Sidecar names derive from the job id — not
    /// from worker identity or completion order — so `--metrics-dir`
    /// output is identical at any `--jobs` count.
    static JOB_CONTEXT: RefCell<Option<(String, usize, u64)>> = const { RefCell::new(None) };
}

/// Snapshot period used for experiment sidecars (cycles).
const SIDECAR_SAMPLE_EVERY: u64 = 100_000;

/// Directs every subsequent [`run_mix_with`] call on this thread to write
/// a `metrics_...jsonl` sidecar into `dir` (`None` disables). Only runs
/// inside a sweep cell (see [`set_job_context`]) write one, since the cell
/// names the file. Attaching the collector never changes simulation
/// results — probes are strictly read-only.
pub fn set_metrics_dir(dir: Option<PathBuf>) {
    METRICS_DIR.with(|d| *d.borrow_mut() = dir);
}

/// The sidecar directory active on this thread, if any.
pub fn metrics_dir() -> Option<PathBuf> {
    METRICS_DIR.with(|d| d.borrow().clone())
}

/// Marks the sweep cell subsequent runs on this thread belong to (set by
/// the scheduler around each job; `None` ends the cell). A run's sidecar
/// is named `metrics_{experiment}_j{job}_{ordinal}_{design}_{mix}.jsonl`,
/// so the names are the same at any `--jobs` count; outside a cell no
/// sidecar is written.
pub fn set_job_context(ctx: Option<(String, usize)>) {
    JOB_CONTEXT.with(|c| *c.borrow_mut() = ctx.map(|(exp, id)| (exp, id, 0)));
}

fn sidecar_path(design: Design, mix: &Mix) -> Option<PathBuf> {
    let dir = metrics_dir()?;
    JOB_CONTEXT.with(|c| {
        let mut c = c.borrow_mut();
        let (exp, job, ordinal) = c.as_mut()?;
        let k = *ordinal;
        *ordinal += 1;
        Some(dir.join(format!(
            "metrics_{exp}_j{job:03}_{k}_{}_{}.jsonl",
            design.id(),
            mix.name
        )))
    })
}

/// Fixed seed so every experiment is reproducible end to end.
pub const SEED: u64 = 0x4d41_5941; // "MAYA"

/// Builds the Table V system configuration for `cores` cores at `scale`.
pub fn system_config(cores: usize, scale: Scale) -> SystemConfig {
    SystemConfig {
        cores,
        ..SystemConfig::eight_core_default().with_instructions(scale.warmup, scale.measure)
    }
}

/// Runs `mix` on `design`, sizing the LLC for the mix's core count
/// (2 MB of baseline capacity per core).
pub fn run_mix(design: Design, mix: &Mix, scale: Scale) -> RunResult {
    run_mix_with(design, mix, scale, |cfg| cfg)
}

/// [`run_mix`] with a configuration hook (used e.g. to enable the
/// page-coloring DRAM bank partition).
pub fn run_mix_with(
    design: Design,
    mix: &Mix,
    scale: Scale,
    tweak: impl FnOnce(SystemConfig) -> SystemConfig,
) -> RunResult {
    let cores = mix.specs.len();
    let cfg = tweak(system_config(cores, scale));
    let llc = design.build(cfg.baseline_llc_lines(), SEED);
    // Replay (benchmark, core, seed) streams through the thread-local
    // trace cache: experiment grids run the same mix once per
    // design, and only the first synthesizes the trace. Replay cursors are
    // byte-identical to fresh generators (pinned by the workloads twin
    // tests), so results are unchanged.
    let gens = workloads::block::cached_generators(&mix.specs, SEED);
    let mut sys = System::with_generators(cfg, llc, gens);
    let sidecar = sidecar_path(design, mix).map(|path| {
        let (handle, rc) = ProbeHandle::of(MetricsProbe::new(SIDECAR_SAMPLE_EVERY));
        sys.set_probe(handle.clone());
        // Span profiler with a harness-injected wall timer: simulated
        // cycles/accesses stay deterministic, wall_nanos measures real
        // elapsed time per component. Profiling is read-only; attaching
        // it never changes results (pinned by tests/obs_conservation.rs).
        let mut prof = SpanProfiler::new();
        let t0 = std::time::Instant::now();
        prof.set_wall_timer(Box::new(move || {
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }));
        let (profile_handle, prof_rc) = ProfileHandle::of(prof);
        sys.set_profiler(profile_handle);
        (path, handle, rc, prof_rc)
    });
    let result = sys.run();
    if let Some((path, handle, rc, prof_rc)) = sidecar {
        rc.borrow_mut().finalize(handle.cycle());
        let header = run_header(&design.id(), &mix.name, SEED, SIDECAR_SAMPLE_EVERY);
        let spans = prof_rc.borrow().tree();
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(&path)
                .unwrap_or_else(|e| panic!("create sidecar {}: {e}", path.display())),
        );
        write_jsonl_with_spans(&mut f, header, &rc.borrow(), Some(&spans))
            .unwrap_or_else(|e| panic!("write sidecar {}: {e}", path.display()));
    }
    result
}

/// Computes (and memoizes) each benchmark's alone-IPC on the baseline
/// system: one core, but the full shared-LLC capacity of `cores` cores, as
/// the weighted-speedup methodology requires.
#[derive(Debug, Default)]
pub struct AloneIpcCache {
    cache: HashMap<(String, usize), f64>,
}

impl AloneIpcCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The alone IPC of `benchmark` on a `cores`-sized LLC.
    pub fn get(&mut self, benchmark: &str, cores: usize, scale: Scale) -> f64 {
        let key = (benchmark.to_string(), cores);
        if let Some(&v) = self.cache.get(&key) {
            return v;
        }
        let cfg = SystemConfig {
            cores: 1,
            // The alone run sees the full multi-core DRAM.
            dram: DramConfig::ddr4_default(),
            ..system_config(1, scale)
        };
        let llc = Design::Baseline.build(cores * 32 * 1024, SEED);
        let mix = homogeneous(benchmark, 1);
        let gens = workloads::block::cached_generators(&mix.specs, SEED);
        let ipc = System::with_generators(cfg, llc, gens).run().cores[0].ipc();
        self.cache.insert(key, ipc);
        ipc
    }
}

/// Weighted speedup of a run result given per-core alone IPCs.
pub fn ws_of(result: &RunResult, alone: &mut AloneIpcCache, mix: &Mix, scale: Scale) -> f64 {
    let shared: Vec<f64> = result.cores.iter().map(|c| c.ipc()).collect();
    let alone: Vec<f64> = mix
        .specs
        .iter()
        .map(|s| alone.get(s.name, mix.specs.len(), scale))
        .collect();
    weighted_speedup(&shared, &alone)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alone_ipc_is_memoized_and_positive() {
        let mut cache = AloneIpcCache::new();
        let scale = Scale::quick();
        let a = cache.get("mcf", 8, scale);
        let b = cache.get("mcf", 8, scale);
        assert!(a > 0.0);
        assert_eq!(a, b);
        assert_eq!(cache.cache.len(), 1);
    }

    #[test]
    fn run_mix_produces_per_core_results() {
        let mix = homogeneous("lbm", 2);
        let r = run_mix(Design::Baseline, &mix, Scale::quick());
        assert_eq!(r.cores.len(), 2);
        assert!(r.cores.iter().all(|c| c.ipc() > 0.0));
    }

    #[test]
    fn metrics_sidecar_is_written_and_never_perturbs_results() {
        let mix = homogeneous("xz", 1);
        let scale = Scale::quick();
        let plain = run_mix(Design::Maya, &mix, scale);
        let dir = std::env::temp_dir().join("maya_bench_sidecar_test");
        std::fs::create_dir_all(&dir).unwrap();
        // The sweep cell names the file: experiment, job 0, run 0.
        let sidecar = dir.join(format!(
            "metrics_sidecar-test_j000_0_maya_{}.jsonl",
            mix.name
        ));
        let _ = std::fs::remove_file(&sidecar);
        set_metrics_dir(Some(dir.clone()));
        set_job_context(Some(("sidecar-test".into(), 0)));
        let observed = run_mix(Design::Maya, &mix, scale);
        set_job_context(None);
        set_metrics_dir(None);
        assert_eq!(plain.cores, observed.cores, "probe must be read-only");
        assert_eq!(plain.dram, observed.dram);
        let text = std::fs::read_to_string(&sidecar).expect("sidecar file must exist");
        assert!(text.starts_with(r#"{"type":"run""#));
        assert!(text.lines().last().unwrap().starts_with(r#"{"type":"end""#));
        assert!(
            text.contains(r#""schema_version":"#),
            "run header must be schema-stamped"
        );
        let span_paths: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with(r#"{"type":"span""#))
            .collect();
        assert!(
            span_paths.iter().any(|l| l.contains(r#""path":"run""#)),
            "sidecar must carry the profiler's span lines"
        );
        assert!(
            span_paths
                .iter()
                .any(|l| l.contains("index_derive") || l.contains("prince")),
            "model-layer spans must nest into the sidecar tree"
        );
    }

    #[test]
    fn weighted_speedup_combines_mix_and_alone() {
        let mix = homogeneous("xz", 2);
        let scale = Scale::quick();
        let r = run_mix(Design::Baseline, &mix, scale);
        let mut alone = AloneIpcCache::new();
        let ws = ws_of(&r, &mut alone, &mix, scale);
        assert!(ws > 0.0 && ws <= 2.5, "WS {ws} out of range for 2 cores");
    }
}
