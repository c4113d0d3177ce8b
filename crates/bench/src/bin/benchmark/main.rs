//! `benchmark`: the repository benchmark. Five workloads, each measured
//! from outside the program through public APIs: end-to-end throughput
//! counted at the LLC boundary, then (when traced) per-layer timings from a
//! timed run, and replays of a recording run's streams into fresh
//! instances of each layer.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With a workload it prints one `name value unit n=.. min=.. max=..` line
//! per metric and, last, a JSON object with the end-to-end metrics
//! (`--trace 0`), the per-layer metrics (`--trace 1`) or both (no
//! `--trace`). Without a workload it runs every workload in a child
//! process of its own, one at a time. The exit code is non-zero if any
//! correctness check failed. See README.md next to this file.

mod boundary;
mod replay;
mod report;
mod workload;

use std::cell::RefCell;
use std::path::Path;
use std::process::Command;
use std::rc::Rc;
use std::time::Instant;

use attacks::victims::Victim;
use maya_core::{AccessEvent, AccessKind, CacheStats};

use boundary::{Call, LlcTrace, Timings};
use report::{median, quantile_sorted, Report, END_TO_END, PER_LAYER};
use workload::{occ_victims, sim_config, sim_rep, Mode, Workload, OCC_PAIRS, OCC_TRIALS};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
     workloads: maya-stream baseline-stream mirage-stream maya-reuse maya-occupancy\n\
     --seconds: about how long the untraced reps of one workload take (default 30)\n\
     seeds: default 0x4d415941 (maya_bench::perf::SEED); check claims also on 0x5eed0b5e";

/// `--seconds` when it is not given: `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: u64 = 30;

/// Fewest untraced repetitions per invocation.
const MIN_REPS: usize = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    /// `None`: report both metric sets.
    trace: Option<bool>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: maya_bench::perf::SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = parse_u64(&v).ok_or(format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = parse_u64(&v)
                    .filter(|&s| s >= 1)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let args = parse_args(argv.into_iter()).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let ok = match args.workload {
        Some(w) => run_workload(w, &args),
        None => run_all(&args),
    };
    if !ok {
        std::process::exit(1);
    }
}

/// Runs every workload in a child process of its own, one at a time, so
/// each has its own peak RSS and the host runs one load at a time.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if let Some(t) = args.trace {
            cmd.args(["--trace", if t { "1" } else { "0" }]);
        }
        println!("== {}", w.name());
        match cmd.output() {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                if !out.status.success() {
                    println!("== {} FAILED ({})", w.name(), out.status);
                    ok = false;
                }
            }
            Err(e) => {
                println!("== {} FAILED to start: {e}", w.name());
                ok = false;
            }
        }
    }
    ok
}

fn run_workload(w: Workload, args: &Args) -> bool {
    let mut report = Report::default();
    let reps = timed_reps(w, args.seed, args.seconds, &mut report);
    if args.trace != Some(false) {
        let timer_cost = boundary::timer_cost_ns();
        if w.sim().is_some() {
            sim_layers(w, args.seed, &reps, timer_cost, &mut report);
        } else {
            occupancy_layers(args.seed, &reps, timer_cost, &mut report);
        }
    }
    let names: Vec<&str> = match args.trace {
        Some(false) => END_TO_END.to_vec(),
        Some(true) => PER_LAYER.to_vec(),
        None => END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect(),
    };
    let json = report.json_line(&names);
    for line in report.text_lines() {
        println!("{line}");
    }
    println!("{json}");
    report.failed == 0
}

/// What the untraced repetitions established.
struct Reps {
    /// Median untraced run time.
    run_ns: f64,
    /// LLC calls per run (identical across reps: the work is fixed).
    calls: u64,
    digest: u64,
}

/// Untraced repetitions of `w` for a `seconds` budget: as many as fit on
/// the reference host. The count depends on nothing measured, so a faster
/// commit runs the same repetitions as its parent, only sooner.
fn rep_count(w: Workload, seconds: u64) -> usize {
    ((seconds as f64 / w.rep_s()).round() as usize).max(MIN_REPS)
}

/// The time the fixed work takes when no part of it is slowed down: for
/// each chunk the runs were cut into, the fastest rep's time for it,
/// summed. `None` unless every rep was cut into the same number of chunks.
fn fastest_chunks_ns(reps: &[Vec<u64>]) -> Option<u64> {
    let n = reps.first()?.len();
    if reps.iter().any(|c| c.len() != n) {
        return None;
    }
    (0..n).map(|k| reps.iter().map(|c| c[k]).min()).sum()
}

/// The untraced repetitions: each sets up from scratch and runs the same
/// fixed work once. `run_s` is the fixed work's time taken chunk by chunk
/// at its fastest ([`fastest_chunks_ns`]), and `llc_calls_per_s` the rate
/// that gives: other tenants' load on the shared host only ever slows a
/// run down, for a second to a minute at a time, so the fastest time of
/// each ~10 ms part of the work varies far less between invocations than
/// any summary of whole runs. `setup_s` is the median set-up.
fn timed_reps(w: Workload, seed: u64, seconds: u64, report: &mut Report) -> Reps {
    let (mut setup_s, mut run_s, mut chunks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut synth, mut diag_rates) = (Vec::new(), Vec::new());
    let mut first: Option<(u64, u64)> = None;
    for rep in 1..=rep_count(w, seconds) {
        let (run_ns, calls, digest, check) = if w.sim().is_some() {
            let r = sim_rep(w, seed, &Mode::Plain);
            synth.push(r.synth_ns as f64 / r.synth_accesses.max(1) as f64);
            // What `diag` reports: LLC statistics, which cover only the
            // measured window, over wall time that includes set-up.
            diag_rates
                .push(r.result.llc.accesses() as f64 / ((r.setup_ns + r.run_ns) as f64 / 1e9));
            setup_s.push(r.setup_ns as f64 / 1e9);
            chunks.push(r.chunks);
            (r.run_ns, r.calls, r.digest, r.check)
        } else {
            let r = workload::occupancy_rep(seed, &Mode::Plain);
            setup_s.extend(r.setups.iter().map(|&ns| ns as f64 / 1e9));
            chunks.push(r.chunks);
            (r.run_ns, r.calls, r.digest, r.check)
        };
        let (calls0, digest0) = *first.get_or_insert((calls, digest));
        let outcome = check.and_then(|()| {
            if (calls, digest) == (calls0, digest0) {
                Ok(())
            } else {
                Err(format!(
                    "calls {calls} / digest {digest:016x} differ from rep 1's {calls0} / {digest0:016x}"
                ))
            }
        });
        report.op(&format!("rep {rep}"), outcome);
        run_s.push(run_ns as f64 / 1e9);
    }
    let (calls, digest) = first.unwrap_or_default();
    let run_ns = median(&run_s) * 1e9;
    let fastest_s = match fastest_chunks_ns(&chunks) {
        Some(ns) => ns as f64 / 1e9,
        None => {
            report.op("chunks", Err("the reps' runs were cut differently".into()));
            f64::NAN
        }
    };
    let rates = run_s.iter().map(|s| calls as f64 / s).collect();
    report.add_valued(
        "llc_calls_per_s",
        "calls/s",
        calls as f64 / fastest_s,
        rates,
    );
    report.add_valued("run_s", "s", fastest_s, run_s.clone());
    let fastest_rep = run_s.iter().copied().fold(f64::INFINITY, f64::min);
    report.add_valued("run.fastest_rep_s", "s", fastest_rep, run_s);
    report.add("setup_s", "s", setup_s);
    match report::peak_rss_mib() {
        Some(mib) => report.one("peak_rss_mib", "MiB", mib),
        None => report.op("peak RSS", Err("VmHWM unavailable".into())),
    }
    if !synth.is_empty() {
        report.add("workloads.synth_ns_per_access", "ns", synth);
        let fastest = diag_rates.iter().copied().fold(0.0, f64::max);
        report.add_valued("diag_style.lookups_per_s", "lookups/s", fastest, diag_rates);
    }
    Reps {
        run_ns,
        calls,
        digest,
    }
}

fn digest_matches(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what} digest {got:016x} differs from the reps' {want:016x}"
        ))
    }
}

fn write_trace(w: Workload, timings: &Timings, run_ns: u64, report: &mut Report) {
    let path = format!("target/benchmark/trace-{}.jsonl", w.name());
    let outcome = timings
        .write_spans(Path::new(&path), run_ns)
        .map_err(|e| format!("{path}: {e}"));
    report.op("trace file", outcome);
}

/// Mean of the sampled in-situ LLC call times.
fn mean_ns(samples: &[u32]) -> f64 {
    samples.iter().map(|&x| f64::from(x)).sum::<f64>() / samples.len().max(1) as f64
}

/// In-situ and stream metrics of the LLC layer, over every recorded
/// instance. `calls_per_access` is over the workload's memory references
/// (trace accesses, or attacker and victim references).
fn llc_layer(
    report: &mut Report,
    traces: &[LlcTrace],
    stats: &[&CacheStats],
    samples: &[u32],
    calls_per_access: f64,
) {
    let calls: u64 = traces.iter().map(|t| t.calls.len() as u64).sum();
    let measured: u64 = traces
        .iter()
        .map(|t| (t.calls.len() - t.reset_at.unwrap_or(0)) as u64)
        .sum();
    let share = |f: &dyn Fn(&Call) -> bool| -> f64 {
        let n: usize = traces
            .iter()
            .map(|t| t.calls.iter().filter(|c| f(c)).count())
            .sum();
        n as f64 / calls.max(1) as f64
    };
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    report.one("llc.calls_per_access", "ratio", calls_per_access);
    report.one("llc.insitu_ns_per_call", "ns", mean_ns(&sorted));
    report.one("llc.insitu_ns_p50", "ns", quantile_sorted(&sorted, 0.50));
    report.one("llc.insitu_ns_p99", "ns", quantile_sorted(&sorted, 0.99));
    report.one("llc.insitu_samples", "count", sorted.len() as f64);
    report.one(
        "llc.data_hit_ratio",
        "ratio",
        share(&|c| c.event == AccessEvent::DataHit),
    );
    report.one(
        "llc.writeback_share",
        "ratio",
        share(&|c| c.kind == AccessKind::Writeback),
    );
    report.one(
        "llc.prefetch_share",
        "ratio",
        share(&|c| c.kind == AccessKind::Prefetch),
    );
    let per_kcall = |f: fn(&CacheStats) -> u64| -> f64 {
        stats.iter().map(|s| f(s)).sum::<u64>() as f64 * 1000.0 / measured.max(1) as f64
    };
    report.one(
        "llc.global_data_evictions_per_kcall",
        "1/kcall",
        per_kcall(|s| s.global_data_evictions),
    );
    report.one(
        "llc.global_tag_evictions_per_kcall",
        "1/kcall",
        per_kcall(|s| s.global_tag_evictions),
    );
    report.one(
        "llc.tag_fills_per_kcall",
        "1/kcall",
        per_kcall(|s| s.tag_fills),
    );
    report.one(
        "llc.data_fills_per_kcall",
        "1/kcall",
        per_kcall(|s| s.data_fills),
    );
    report.one(
        "llc.tag_only_hits_per_kcall",
        "1/kcall",
        per_kcall(|s| s.tag_only_hits),
    );
    report.one(
        "llc.saes",
        "count",
        stats.iter().map(|s| s.saes).sum::<u64>() as f64,
    );
}

fn per(ns: u64, n: u64) -> f64 {
    ns as f64 / n.max(1) as f64
}

/// The simulator workloads' layers: a timed run (in-situ LLC and generator
/// times, the trace file), a recording run, and replays of its streams.
fn sim_layers(w: Workload, seed: u64, reps: &Reps, timer_cost: u64, report: &mut Report) {
    let untraced_ns = reps.run_ns;
    let cfg = sim_config();

    let timings = Rc::new(RefCell::new(Timings::new(timer_cost)));
    let timed = sim_rep(w, seed, &Mode::Timed(timings.clone()));
    report.op(
        "timed run",
        timed
            .check
            .and_then(|()| digest_matches("timed run", timed.digest, reps.digest)),
    );
    let (timed_ns, accesses) = (timed.run_ns, timed.trace_accesses);
    drop(timed.cache);
    let timings = timings.borrow();
    write_trace(w, &timings, timed_ns, report);

    let traces = Rc::new(RefCell::new(vec![LlcTrace {
        calls: Vec::with_capacity(reps.calls as usize),
        ..LlcTrace::default()
    }]));
    let run = sim_rep(w, seed, &Mode::Recorded(traces.clone()));
    report.op(
        "recording run",
        run.check
            .clone()
            .and_then(|()| digest_matches("recording run", run.digest, reps.digest)),
    );
    let traces = traces.borrow();
    let trace = &traces[0];
    let calls = trace.calls.len() as u64;

    let (llc_ns, outcome) = replay::llc(trace, run.llc.build(), &run.result.llc);
    report.op("llc replay", outcome);
    let dram = replay::dram(trace, &cfg);
    report.op(
        "dram replay",
        if dram.counters == run.result.dram {
            Ok(())
        } else {
            Err(format!(
                "counters {:?} vs run {:?}",
                dram.counters, run.result.dram
            ))
        },
    );
    let (_, mix) = w.sim().expect("simulator workload");
    let mut cache = run.cache;
    let cores = replay::cores(&mut cache, &mix, seed, &cfg);
    drop(cache);
    report.op(
        "core replay",
        if cores.accesses == run.trace_accesses {
            Ok(())
        } else {
            Err(format!(
                "{} accesses vs the run's {}",
                cores.accesses, run.trace_accesses
            ))
        },
    );
    let geometry = run.llc.index_geometry();
    let index_ns = replay::index(&trace.calls, geometry, true);
    let index_plain_ns = replay::index(&trace.calls, geometry, false);

    llc_layer(
        report,
        std::slice::from_ref(trace),
        &[&run.result.llc],
        &timings.llc_samples,
        calls as f64 / accesses as f64,
    );
    report.one("llc.replay_ns_per_call", "ns", per(llc_ns, calls));
    report.one("prince.index_ns_per_call", "ns", per(index_ns, calls));
    report.one(
        "prince.index_ns_per_call_nomemo",
        "ns",
        per(index_plain_ns, calls),
    );
    report.one(
        "workloads.replay_ns_per_access",
        "ns",
        per(timings.gen_ns, timings.gen_accesses),
    );
    report.one(
        "sim.l1_ns_per_lookup",
        "ns",
        per(cores.l1_ns, cores.accesses),
    );
    report.one(
        "sim.l1_hit_ratio",
        "ratio",
        per(cores.l1_hits, cores.accesses),
    );
    report.one(
        "sim.l2_ns_per_lookup",
        "ns",
        per(cores.l2_ns, cores.l2_lookups),
    );
    report.one(
        "sim.l2_hit_ratio",
        "ratio",
        per(cores.l2_hits, cores.l2_lookups),
    );
    report.one(
        "sim.prefetch_ns_per_observe",
        "ns",
        per(cores.prefetch_ns, cores.accesses),
    );
    report.one(
        "sim.prefetch_candidates_per_access",
        "ratio",
        per(cores.prefetch_candidates, cores.accesses),
    );
    report.one("sim.dram_ns_per_request", "ns", per(dram.ns, dram.requests));
    report.one(
        "sim.dram_row_hit_ratio",
        "ratio",
        per(dram.counters.2, dram.counters.0),
    );
    let insitu_llc_ns = mean_ns(&timings.llc_samples) * calls as f64;
    let gen_ns = timings.gen_ns as f64;
    let residual = timed_ns as f64 - insitu_llc_ns - gen_ns - timings.timer_overhead_ns() as f64;
    report.one(
        "sim.residual_ns_per_access",
        "ns",
        residual / accesses as f64,
    );
    report.one("sim.ipc_sum", "ipc", run.result.ipc_sum());
    report.one("sim.llc_mpki", "mpki", run.result.avg_mpki());
    report.one(
        "trace.overhead_ratio",
        "ratio",
        timed_ns as f64 / untraced_ns,
    );

    // Σ (isolated layer ns × calls) over the untraced run. The generator
    // has no isolated replay; its in-situ time stands in for one.
    let others = (cores.l1_ns + cores.l2_ns + cores.prefetch_ns + dram.ns) as f64 + gen_ns;
    report.one(
        "ledger.explained_frac_replay",
        "ratio",
        (llc_ns as f64 + others) / untraced_ns,
    );
    report.one(
        "ledger.explained_frac_insitu",
        "ratio",
        (insitu_llc_ns + others) / untraced_ns,
    );

    if w == Workload::MayaStream {
        let observed = sim_rep(w, seed, &Mode::Observed);
        report.op(
            "observed run",
            observed
                .check
                .and_then(|()| digest_matches("observed run", observed.digest, reps.digest)),
        );
        report.one(
            "obs.observed_run_ratio",
            "ratio",
            observed.run_ns as f64 / untraced_ns,
        );
    }
}

/// The occupancy workload's layers: a timed run, a recording run, LLC and
/// index replays per trial, and the victims timed alone.
fn occupancy_layers(seed: u64, reps: &Reps, timer_cost: u64, report: &mut Report) {
    let untraced_ns = reps.run_ns;

    let timings = Rc::new(RefCell::new(Timings::new(timer_cost)));
    let timed = workload::occupancy_rep(seed, &Mode::Timed(timings.clone()));
    report.op(
        "timed run",
        timed
            .check
            .and_then(|()| digest_matches("timed run", timed.digest, reps.digest)),
    );
    let timings = timings.borrow();
    write_trace(Workload::MayaOccupancy, &timings, timed.run_ns, report);

    let traces = Rc::new(RefCell::new(
        (0..OCC_TRIALS).map(|_| LlcTrace::default()).collect(),
    ));
    let run = workload::occupancy_rep(seed, &Mode::Recorded(traces.clone()));
    report.op(
        "recording run",
        run.check
            .clone()
            .and_then(|()| digest_matches("recording run", run.digest, reps.digest)),
    );
    let traces = traces.borrow();

    let (mut llc_ns, mut index_ns, mut index_plain_ns) = (0, 0, 0);
    let mut outcome = Ok(());
    for (trace, (spec, stats)) in traces.iter().zip(&run.trials) {
        let (ns, o) = replay::llc(trace, spec.build(), stats);
        llc_ns += ns;
        outcome = outcome.and(o);
        index_ns += replay::index(&trace.calls, spec.index_geometry(), true);
        index_plain_ns += replay::index(&trace.calls, spec.index_geometry(), false);
    }
    report.op("llc replay", outcome);

    // The victims alone: the AES work a sample does besides LLC calls.
    let mut sink = 0u64;
    let t = Instant::now();
    for _ in 0..OCC_TRIALS {
        let (mut a, mut b) = occ_victims();
        for _ in 0..OCC_PAIRS {
            a.run(&mut |line| sink ^= line);
            b.run(&mut |line| sink ^= line);
        }
    }
    let victim_ns = boundary::ns_between(t, Instant::now());
    std::hint::black_box(sink);

    // Recorded streams include the priming calls made during set-up.
    let recorded: u64 = traces.iter().map(|t| t.calls.len() as u64).sum();
    let stats: Vec<&CacheStats> = run.trials.iter().map(|(_, s)| s).collect();
    llc_layer(
        report,
        &traces,
        &stats,
        &timings.llc_samples,
        per(run.calls, run.refs),
    );
    let replay_per_call = per(llc_ns, recorded);
    report.one("llc.replay_ns_per_call", "ns", replay_per_call);
    report.one("prince.index_ns_per_call", "ns", per(index_ns, recorded));
    report.one(
        "prince.index_ns_per_call_nomemo",
        "ns",
        per(index_plain_ns, recorded),
    );
    report.one("attacks.sample_ns", "ns", untraced_ns / run.samples as f64);
    report.one(
        "attacks.llc_calls_per_sample",
        "ratio",
        per(run.calls, run.samples),
    );
    report.one(
        "attacks.victim_ns_per_run",
        "ns",
        per(victim_ns, run.samples),
    );
    report.one(
        "trace.overhead_ratio",
        "ratio",
        timed.run_ns as f64 / untraced_ns,
    );
    let calls = run.calls as f64;
    let insitu = mean_ns(&timings.llc_samples);
    report.one(
        "ledger.explained_frac_replay",
        "ratio",
        (replay_per_call * calls + victim_ns as f64) / untraced_ns,
    );
    report.one(
        "ledger.explained_frac_insitu",
        "ratio",
        (insitu * calls + victim_ns as f64) / untraced_ns,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let a = args(&[
            "--workload",
            "maya-reuse",
            "--seed",
            "0x10",
            "--seconds",
            "7",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(a.workload, Some(Workload::MayaReuse));
        assert_eq!((a.seed, a.seconds, a.trace), (16, 7, Some(true)));
        let d = args(&[]).expect("defaults");
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (maya_bench::perf::SEED, DEFAULT_SECONDS, None)
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rep_count_follows_the_budget_but_never_falls_below_the_minimum() {
        let w = Workload::MayaStream;
        assert_eq!(rep_count(w, 1), MIN_REPS);
        assert_eq!(rep_count(w, 30), (30.0 / w.rep_s()).round() as usize);
        assert!(rep_count(w, 60) > rep_count(w, 30));
    }

    #[test]
    fn fastest_chunks_sum_each_chunks_fastest_rep() {
        assert_eq!(
            fastest_chunks_ns(&[vec![5, 1, 9], vec![2, 4, 8]]),
            Some(2 + 1 + 8)
        );
        assert_eq!(fastest_chunks_ns(&[vec![5, 1], vec![2, 4, 8]]), None);
        assert_eq!(fastest_chunks_ns(&[]), None);
    }

    /// The non-comment lines of one `[header]` table of a manifest.
    fn manifest_table(manifest: &str, header: &str) -> Vec<String> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect()
    }

    /// The directory a `rand = { path = "..." }` patch line points at,
    /// relative to the manifest's directory.
    fn rand_patch(dir: &Path, manifest: &str) -> std::path::PathBuf {
        let line = manifest_table(manifest, "[patch.crates-io]")
            .into_iter()
            .find(|l| l.starts_with("rand "))
            .expect("a rand patch");
        let path = line
            .split('"')
            .nth(1)
            .expect("a quoted patch path")
            .to_string();
        dir.join(path).canonicalize().expect("patch path exists")
    }

    /// The standalone manifest next to this file copies the workspace's
    /// release profile and `rand` patch; this keeps the copies in step.
    #[test]
    fn standalone_manifest_matches_the_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|d| {
                d.join("crates/bench/src/bin/benchmark/Cargo.toml")
                    .is_file()
            })
            .expect("repository root");
        let own_dir = root.join("crates/bench/src/bin/benchmark");
        let read = |p: &Path| std::fs::read_to_string(p).expect("manifest");
        let (ws, own) = (
            read(&root.join("Cargo.toml")),
            read(&own_dir.join("Cargo.toml")),
        );
        assert_eq!(
            manifest_table(&own, "[profile.release]"),
            manifest_table(&ws, "[profile.release]")
        );
        assert_eq!(rand_patch(&own_dir, &own), rand_patch(root, &ws));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(report::legal_name(w.name()));
        }
    }
}
