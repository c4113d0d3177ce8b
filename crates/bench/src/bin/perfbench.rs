//! `perfbench`: the perf gates nothing else measures, and the perf-history
//! check over the repository benchmark's output.
//!
//! ```text
//! perfbench [--check] [--inject-slowdown F] [benchmark-<workload>.txt ...]
//! ```
//!
//! It measures (a) PRINCE throughput on the fused table-driven path and the
//! spec-literal reference path, after cross-checking the two, and (b)
//! cold-versus-warm sweep wall time per experiment family through the
//! `sched` engine and its result cache, and writes both as JSONL to
//! `BENCH_perf.json`. The workloads are fixed iteration counts over fixed
//! seeds, so successive runs measure the same work; only the wall-clock
//! denominators vary with the host.
//!
//! Every end-to-end and per-layer timing comes from the repository
//! benchmark (`crates/bench/src/bin/benchmark`) instead. Each positional
//! argument is the output of one `benchmark --workload W --trace 1`
//! invocation, named `benchmark-W.txt` (or `W.txt`);
//! [`history::benchmark_record`] reads them into one `benchmark` record.
//! Each run appends that record and a `perfbench` record (the fused
//! throughput) to `BENCH_history.jsonl`.
//!
//! Wall-clock timing is allowed here: maya-bench is harness code, not a
//! model crate (see maya-lint's crate registry), and the timings land only
//! in the scratch JSON, never in simulation results.
//!
//! With `--check`, exits 1 if the fused path is less than [`MIN_SPEEDUP`]×
//! the reference or below [`MIN_FUSED_BLOCKS_PER_SEC`], if the warm-cache
//! sweep rerun takes more than [`MAX_WARM_FRACTION`] of the cold total, if
//! a benchmark metric is missing or below its floor in [`FLOORS`], or if
//! the history detector finds any metric more than the noise band below
//! the trailing median of prior same-host records. `--inject-slowdown F`
//! scales every throughput down by the fraction `F` (and skips the history
//! append) — the CI self-test that proves the gates fire. Bad arguments or
//! an unusable input file exit 2 with an `error:` line.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use maya_bench::experiments;
use maya_bench::history::{self, HistoryRecord};
use maya_bench::sched::{self, RunOpts};
use maya_bench::Scale;
use maya_obs::json::Obj;
use maya_obs::SCHEMA_VERSION;
use prince_cipher::{reference, Prince};

const USAGE: &str =
    "usage: perfbench [--check] [--inject-slowdown F] [benchmark-<workload>.txt ...]\n\
     each input is one `benchmark --workload <workload> --trace 1` output";

/// Blocks encrypted on the fused path.
const FUSED_BLOCKS: u64 = 4_000_000;
/// Blocks encrypted on the reference path (slower, so fewer).
const REFERENCE_BLOCKS: u64 = 400_000;
/// Blocks cross-checked fused-vs-reference before timing.
const CROSS_CHECK_BLOCKS: u64 = 10_000;
/// Required fused/reference speedup (the ISSUE's acceptance floor).
const MIN_SPEEDUP: f64 = 3.0;
/// Absolute floor for fused throughput under `--check`. Deliberately
/// conservative (~2.5x below a typical single ci core measures) so only a
/// real regression — not machine jitter — trips it.
const MIN_FUSED_BLOCKS_PER_SEC: f64 = 4_000_000.0;

/// Absolute floors under `--check` on the benchmark record's metrics
/// (rates; see [`history::BENCHMARK_METRICS`]), with what each guards.
/// Each keeps the headroom (floor over measurement) of the `perfbench`
/// floor it replaced, measured as medians of sixteen interleaved
/// `benchmark --seconds 1 --trace 1` and `perfbench` runs on one 2-vCPU
/// Xeon VM, rounded up. The second Maya floor is the banked end-to-end
/// win: 1.5× the median of the oldest five `ci-repro` perfbench records
/// (720,252/s), times the same runs' benchmark/perfbench ratio (1.664).
const FLOORS: [(&str, f64, &str); 7] = [
    ("maya-stream/llc_calls_per_s", 832_000.0, "Maya end to end"),
    (
        "maya-stream/llc_calls_per_s",
        1_798_000.0,
        "Maya end to end, 1.5x the pre-arena median",
    ),
    (
        "mirage-stream/llc_calls_per_s",
        571_000.0,
        "Mirage end to end",
    ),
    (
        "baseline-stream/llc_calls_per_s",
        1_217_000.0,
        "block dispatch",
    ),
    (
        "baseline-stream/workloads.synth_accesses_per_s",
        11_510_000.0,
        "trace generation",
    ),
    (
        "baseline-stream/sim.l1_lookups_per_s",
        6_980_000.0,
        "L1 lookup",
    ),
    (
        "baseline-stream/sim.l2_lookups_per_s",
        9_380_000.0,
        "L2 lookup",
    ),
];

/// Warm-cache rerun budget as a fraction of the cold sweep total (the
/// ISSUE's acceptance floor: a fully cached rerun must cost at most a
/// quarter of the cold time).
const MAX_WARM_FRACTION: f64 = 0.25;

const K0: u64 = 0x0123_4567_89ab_cdef;
const K1: u64 = 0xfedc_ba98_7654_3210;

/// Experiment families timed cold-vs-warm through the sweep cache. Quick
/// scale keeps the cold pass in seconds while leaving enough work that
/// cache-hit savings dominate cache-probe overheads.
const SWEEP_FAMILIES: [(&str, &[&str]); 4] = [
    ("static", &["tab8", "tab9", "tab1", "tab4"]),
    ("security", &["fig6", "ablate-skew"]),
    ("attack", &["demo-flush", "demo-eviction"]),
    ("perf", &["llcfit"]),
];

struct Args {
    check: bool,
    inject_slowdown: Option<f64>,
    inputs: Vec<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        check: false,
        inject_slowdown: None,
        inputs: Vec::new(),
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => args.check = true,
            "--inject-slowdown" => {
                let v = it.next().ok_or("--inject-slowdown needs a value")?;
                let f = v
                    .parse()
                    .ok()
                    .filter(|f| (0.0..1.0).contains(f))
                    .ok_or(format!(
                        "--inject-slowdown needs a fraction in [0,1), not {v}"
                    ))?;
                args.inject_slowdown = Some(f);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown argument {flag}")),
            path => args.inputs.push(PathBuf::from(path)),
        }
    }
    Ok(args)
}

/// The workload a benchmark output holds, from its file name:
/// `benchmark-maya-stream.txt` and `maya-stream.txt` are both `maya-stream`.
fn workload_of(path: &Path) -> Option<&str> {
    let stem = path.file_stem()?.to_str()?;
    Some(stem.strip_prefix("benchmark-").unwrap_or(stem))
}

/// Reads every input into one `benchmark` record (`None` without inputs).
fn read_inputs(paths: &[PathBuf]) -> Result<Option<HistoryRecord>, String> {
    let mut merged: Option<HistoryRecord> = None;
    for path in paths {
        let shown = path.display();
        let workload = workload_of(path).ok_or(format!("{shown}: no workload in the file name"))?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{shown}: {e}"))?;
        let record =
            history::benchmark_record(workload, &text).map_err(|e| format!("{shown}: {e}"))?;
        match &mut merged {
            None => merged = Some(record),
            Some(m) => {
                for (key, value) in record.metrics {
                    if m.metrics.insert(key, value).is_some() {
                        return Err(format!("{shown}: workload {workload} is given twice"));
                    }
                }
            }
        }
    }
    Ok(merged)
}

/// Runs every experiment of a family through the scheduler against
/// `cache_dir`, returning (total wall seconds, total jobs, total cache
/// hits, concatenated output).
fn run_family(ids: &[&str], scale: Scale, cache_dir: &Path) -> (f64, usize, usize, String) {
    let opts = RunOpts {
        jobs: 1,
        cache_dir: Some(cache_dir.to_path_buf()),
    };
    let mut text = String::new();
    let (mut jobs, mut hits) = (0, 0);
    let t = Instant::now();
    for id in ids {
        let sw = experiments::sweep(id, scale).unwrap_or_else(|| panic!("unknown id {id}"));
        let (out, summary) = sched::execute(sw, &opts);
        text.push_str(&out);
        jobs += summary.jobs;
        hits += summary.cache_hits;
    }
    (t.elapsed().as_secs_f64(), jobs, hits, text)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let usage_error = |e: String| -> ! {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    };
    let args = parse_args(argv.into_iter()).unwrap_or_else(|e| usage_error(e));
    let benchmark = read_inputs(&args.inputs).unwrap_or_else(|e| usage_error(e));
    // Synthetic regression: pretend the host got `1 - F` times as fast.
    let slow = 1.0 - args.inject_slowdown.unwrap_or(0.0);
    let benchmark = benchmark.map(|r| r.scaled(slow));

    // Correctness gate before any timing: the two paths must agree.
    let cipher = Prince::new(K0, K1);
    let mut checksum = 0u64;
    for i in 0..CROSS_CHECK_BLOCKS {
        let fused = cipher.encrypt(i);
        let refr = reference::encrypt(K0, K1, i);
        assert_eq!(fused, refr, "fused/reference divergence at block {i}");
        checksum ^= fused.rotate_left((i % 63) as u32);
    }

    let t = Instant::now();
    let mut acc = 0u64;
    for i in 0..FUSED_BLOCKS {
        acc ^= cipher.encrypt(i);
    }
    let fused_secs = t.elapsed().as_secs_f64();
    let fused_bps = slow * FUSED_BLOCKS as f64 / fused_secs.max(1e-9);

    let t = Instant::now();
    for i in 0..REFERENCE_BLOCKS {
        acc ^= reference::encrypt(K0, K1, i);
    }
    let ref_secs = t.elapsed().as_secs_f64();
    let ref_bps = REFERENCE_BLOCKS as f64 / ref_secs.max(1e-9);
    let speedup = fused_bps / ref_bps.max(1e-9);
    if let Some(f) = args.inject_slowdown {
        eprintln!(
            "injected synthetic slowdown: throughputs scaled by {:.2}",
            1.0 - f
        );
    }

    println!("prince fused:     {fused_bps:>12.0} blocks/sec");
    println!("prince reference: {ref_bps:>12.0} blocks/sec");
    println!("speedup:          {speedup:>12.1} x");

    // Sweep engine: cold (empty cache) vs warm (fully cached) wall time
    // per experiment family, at quick scale, serial workers — the cache is
    // what's being measured, not thread scaling.
    let scale = Scale::quick();
    let cache_root = PathBuf::from("target/exp-cache-perfbench");
    let _ = std::fs::remove_dir_all(&cache_root);
    let mut sweep_lines = Vec::new();
    let (mut cold_total, mut warm_total) = (0.0f64, 0.0f64);
    for (family, ids) in SWEEP_FAMILIES {
        let dir = cache_root.join(family);
        let (cold_secs, jobs, cold_hits, cold_text) = run_family(ids, scale, &dir);
        let (warm_secs, _, warm_hits, warm_text) = run_family(ids, scale, &dir);
        assert_eq!(cold_hits, 0, "{family}: cold pass must not hit the cache");
        assert_eq!(warm_hits, jobs, "{family}: warm pass must be fully cached");
        assert_eq!(cold_text, warm_text, "{family}: cached output diverged");
        println!(
            "sweep {family:<9} cold {cold_secs:>7.2}s  warm {warm_secs:>7.2}s  \
             ({jobs} jobs, warm/cold {:.3})",
            warm_secs / cold_secs.max(1e-9)
        );
        cold_total += cold_secs;
        warm_total += warm_secs;
        sweep_lines.push(
            Obj::new()
                .str("type", "sweep")
                .str("tool", "perfbench")
                .str("family", family)
                .str("experiments", &ids.join(","))
                .u64("jobs", jobs as u64)
                .f64("cold_secs", cold_secs)
                .f64("warm_secs", warm_secs)
                .f64("warm_fraction", warm_secs / cold_secs.max(1e-9))
                .finish(),
        );
    }
    let warm_fraction_total = warm_total / cold_total.max(1e-9);
    println!(
        "sweep total:      cold {cold_total:>7.2}s  warm {warm_total:>7.2}s  \
         (warm/cold {warm_fraction_total:.3})"
    );

    let host = history::host_id();
    let build = history::build_id();
    let line = Obj::new()
        .str("type", "perf")
        .str("tool", "perfbench")
        .str("host", &host)
        .str("build", &build)
        .u64("schema_version", SCHEMA_VERSION)
        .u64("fused_blocks", FUSED_BLOCKS)
        .u64("reference_blocks", REFERENCE_BLOCKS)
        .u64("cross_check_blocks", CROSS_CHECK_BLOCKS)
        .u64("checksum", checksum)
        .u64("sink", acc)
        .f64("fused_blocks_per_sec", fused_bps)
        .f64("reference_blocks_per_sec", ref_bps)
        .f64("speedup", speedup)
        .finish();
    let total_line = Obj::new()
        .str("type", "sweep-total")
        .str("tool", "perfbench")
        .f64("cold_secs", cold_total)
        .f64("warm_secs", warm_total)
        .f64("warm_fraction", warm_fraction_total)
        .finish();
    let mut file = std::fs::File::create("BENCH_perf.json").expect("create BENCH_perf.json");
    writeln!(file, "{line}").expect("write BENCH_perf.json");
    for l in &sweep_lines {
        writeln!(file, "{l}").expect("write BENCH_perf.json");
    }
    writeln!(file, "{total_line}").expect("write BENCH_perf.json");
    eprintln!("wrote BENCH_perf.json");

    // Perf history: read the committed trail, judge this run against it,
    // then append (real runs only — an injected slowdown must not poison
    // the baseline for the next run).
    let fused = HistoryRecord {
        tool: "perfbench".to_string(),
        host,
        build,
        metrics: [("fused_blocks_per_sec".to_string(), fused_bps)]
            .into_iter()
            .collect(),
    };
    let current: Vec<&HistoryRecord> = std::iter::once(&fused).chain(&benchmark).collect();
    let prior_text = std::fs::read_to_string(history::HISTORY_FILE).unwrap_or_default();
    let prior = history::parse_history(&prior_text).unwrap_or_else(|e| {
        eprintln!("FAIL: unreadable {}: {e}", history::HISTORY_FILE);
        std::process::exit(1);
    });
    let mut findings = Vec::new();
    for record in &current {
        let outcome = history::check_regressions(&prior, record);
        for w in &outcome.warnings {
            eprintln!("history: warning: {} {w}", record.tool);
        }
        findings.extend(outcome.findings);
    }
    if args.inject_slowdown.is_none() {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(history::HISTORY_FILE)
            .expect("append BENCH_history.jsonl");
        for record in &current {
            writeln!(f, "{}", record.to_json_line()).expect("append BENCH_history.jsonl");
        }
        eprintln!(
            "appended {} record(s) to {} ({} prior record(s))",
            current.len(),
            history::HISTORY_FILE,
            prior.len()
        );
    }

    if !args.check {
        return;
    }
    let mut failed = false;
    for finding in &findings {
        eprintln!("FAIL: perf regression: {finding}");
        failed = true;
    }
    if speedup < MIN_SPEEDUP {
        eprintln!("FAIL: speedup {speedup:.2}x below the {MIN_SPEEDUP}x floor");
        failed = true;
    }
    if fused_bps < MIN_FUSED_BLOCKS_PER_SEC {
        eprintln!(
            "FAIL: fused throughput {fused_bps:.0} below the {MIN_FUSED_BLOCKS_PER_SEC:.0} blocks/sec floor"
        );
        failed = true;
    }
    for (metric, floor, what) in FLOORS {
        match benchmark.as_ref().and_then(|r| r.metrics.get(metric)) {
            None => {
                eprintln!("FAIL: {what}: no {metric} in the benchmark inputs");
                failed = true;
            }
            Some(&value) if value < floor => {
                eprintln!("FAIL: {what}: {metric} {value:.0} below the {floor:.0} floor");
                failed = true;
            }
            Some(_) => {}
        }
    }
    if warm_fraction_total > MAX_WARM_FRACTION {
        eprintln!(
            "FAIL: warm-cache rerun took {:.0}% of the cold sweep time \
             (budget {:.0}%)",
            warm_fraction_total * 100.0,
            MAX_WARM_FRACTION * 100.0
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("perf check passed");
}
