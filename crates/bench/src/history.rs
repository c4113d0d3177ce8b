//! Perf history and the CI regression detector.
//!
//! `perfbench` appends schema-versioned records to `BENCH_history.jsonl`:
//! a `perfbench` record with the fused PRINCE throughput it measures
//! itself, and a `benchmark` record that [`benchmark_record`] reads out of
//! the repository benchmark's output (`crates/bench/src/bin/benchmark`),
//! one traced invocation per workload. [`check_regressions`] compares the
//! newest run against the median of a trailing window of prior same-host,
//! same-tool records, with a noise band wide enough that machine jitter
//! never trips it. `perfbench --check` turns detector findings into a
//! non-zero exit, which is what the CI benchmark-smoke job gates on.
//!
//! Wall-clock throughput is inherently host-specific, so records carry a
//! host id and only like-for-like histories are compared: a laptop run
//! appended to a CI host's history is simply ignored by the detector on
//! either machine. Records of tools and metrics that are gone (the `diag`
//! example, `perfbench`'s simulator timings) stay parseable and simply
//! never enter a window again.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use maya_obs::json::{parse_value, Obj, Value};
use maya_obs::SCHEMA_VERSION;

/// The committed history file, appended to from the repository root.
pub const HISTORY_FILE: &str = "BENCH_history.jsonl";

/// Trailing records (per host+tool) the detector compares against.
pub const WINDOW: usize = 5;

/// Fractional throughput drop tolerated as noise: a metric must fall more
/// than this far below the trailing median to count as a regression.
/// Single-core CI containers jitter by ~10%; 20% keeps false positives
/// out while still catching any real 25%+ slowdown.
pub const NOISE_BAND: f64 = 0.2;

/// One appended perf-history record: a named set of throughput metrics
/// (higher is better) stamped with the host and build that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Producing tool (`perfbench`, `benchmark`; older records also
    /// `diag`).
    pub tool: String,
    /// Host id the run executed on (see [`host_id`]).
    pub host: String,
    /// Build id (crate version + profile, see [`build_id`]).
    pub build: String,
    /// Throughput metrics, higher-is-better (`fused_blocks_per_sec`,
    /// `maya-stream/llc_calls_per_s`, ...).
    pub metrics: BTreeMap<String, f64>,
}

impl HistoryRecord {
    /// The single-line JSON form (schema-stamped).
    pub fn to_json_line(&self) -> String {
        let mut o = Obj::new()
            .str("type", "perf-history")
            .str("tool", &self.tool)
            .str("host", &self.host)
            .str("build", &self.build);
        for (name, value) in &self.metrics {
            o = o.f64(name, *value);
        }
        o.u64("schema_version", SCHEMA_VERSION).finish()
    }

    /// The same record with every metric multiplied by `factor`:
    /// `scaled(0.7)` is the run 30% slower (`--inject-slowdown 0.3`).
    pub fn scaled(&self, factor: f64) -> HistoryRecord {
        let mut out = self.clone();
        out.metrics.values_mut().for_each(|v| *v *= factor);
        out
    }
}

/// The tool name of the records [`benchmark_record`] builds.
const BENCHMARK_TOOL: &str = "benchmark";

/// The benchmark metrics the history tracks, as (name in the benchmark's
/// output, name in the history). Every workload reports the first two;
/// the simulator workloads report all of them, and the history keeps the
/// last three, which time the simulator's front end, for
/// [`FRONT_END_WORKLOAD`] only. A `_ns_` metric is a cost per operation,
/// so the history records its rate, 1e9 / ns, and every history metric
/// stays higher-is-better.
pub const BENCHMARK_METRICS: [(&str, &str); 6] = [
    ("llc_calls_per_s", "llc_calls_per_s"),
    (
        "prince.index_ns_per_call_nomemo",
        "prince.index_calls_per_s_nomemo",
    ),
    ("diag_style.lookups_per_s", "diag_style.lookups_per_s"),
    (
        "workloads.synth_ns_per_access",
        "workloads.synth_accesses_per_s",
    ),
    ("sim.l1_ns_per_lookup", "sim.l1_lookups_per_s"),
    ("sim.l2_ns_per_lookup", "sim.l2_lookups_per_s"),
];

/// How many leading [`BENCHMARK_METRICS`] every traced workload reports.
const EVERY_WORKLOAD: usize = 2;

/// How many leading [`BENCHMARK_METRICS`] the history keeps for every
/// simulator workload; the rest time the front end (trace synthesis, L1,
/// L2).
const EVERY_SIMULATOR: usize = 3;

/// The one workload whose front-end metrics the history keeps. The other
/// simulator workloads (maya-stream, mirage-stream) replay the same lbm
/// stream through the same front end, so their readings would only repeat
/// this one's.
pub const FRONT_END_WORKLOAD: &str = "baseline-stream";

/// Reads one `benchmark --workload <workload> --trace 1` invocation's
/// output — its `name value unit n=.. min=.. max=..` lines and the final
/// JSON line — into a `benchmark` record whose metrics are keyed
/// `<workload>/<history name>` (see [`BENCHMARK_METRICS`] and
/// [`FRONT_END_WORKLOAD`]).
///
/// An output whose JSON line reports a failed operation, that lacks a
/// metric the workload must report, or that gives any of the metrics a
/// non-positive value is an error: a run that did not pass or was not
/// traced cannot stand in the history.
pub fn benchmark_record(workload: &str, output: &str) -> Result<HistoryRecord, String> {
    let lines: Vec<&str> = output.lines().filter(|l| !l.trim().is_empty()).collect();
    let (last, metric_lines) = lines.split_last().ok_or("empty benchmark output")?;
    let summary = parse_value(last)
        .map_err(|e| format!("the last line is not the benchmark's JSON object: {e}"))?;
    match summary.get("failed").and_then(Value::as_u64) {
        Some(0) => {}
        Some(failed) => {
            return Err(format!(
                "the benchmark reports {failed} failed operation(s)"
            ))
        }
        None => return Err("the benchmark's JSON line has no \"failed\" count".into()),
    }
    let mut reported = BTreeMap::new();
    for (name, key) in BENCHMARK_METRICS {
        let Some(text) = metric_lines.iter().find_map(|l| {
            let mut words = l.split_whitespace();
            (words.next() == Some(name)).then(|| words.next().unwrap_or(""))
        }) else {
            continue;
        };
        let value = text
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or(format!("{name}: {text:?} is not a positive number"))?;
        let rate = if name.contains("_ns_") {
            1e9 / value
        } else {
            value
        };
        reported.insert(key, rate);
    }
    // The simulator metrics come all together or not at all.
    let simulator = BENCHMARK_METRICS[EVERY_WORKLOAD..]
        .iter()
        .any(|(_, key)| reported.contains_key(key));
    let kept = match (simulator, workload == FRONT_END_WORKLOAD) {
        (false, _) => EVERY_WORKLOAD,
        (true, false) => EVERY_SIMULATOR,
        (true, true) => BENCHMARK_METRICS.len(),
    };
    let required = &BENCHMARK_METRICS[..kept];
    let missing: Vec<&str> = required
        .iter()
        .filter(|(_, key)| !reported.contains_key(key))
        .map(|(name, _)| *name)
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "no {} in the output (is it a `--trace 1` run?)",
            missing.join(", ")
        ));
    }
    let metrics = required
        .iter()
        .map(|(_, key)| (format!("{workload}/{key}"), reported[key]))
        .collect();
    Ok(HistoryRecord {
        tool: BENCHMARK_TOOL.to_string(),
        host: host_id(),
        build: build_id(),
        metrics,
    })
}

/// Parses a `BENCH_history.jsonl` text into records, oldest first.
///
/// Every `perf-history` line must carry a `schema_version` no newer than
/// this build understands; unknown record types are rejected so a
/// corrupted append surfaces immediately rather than skewing medians.
pub fn parse_history(text: &str) -> Result<Vec<HistoryRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_value(line).map_err(|e| format!("{HISTORY_FILE}:{line_no}: {e}"))?;
        let ty = v.get("type").and_then(Value::as_str).unwrap_or("");
        if ty != "perf-history" {
            return Err(format!(
                "{HISTORY_FILE}:{line_no}: unexpected record type {ty:?} \
                 (history files hold only perf-history lines)"
            ));
        }
        match v.get("schema_version").and_then(Value::as_u64) {
            Some(found) if found <= SCHEMA_VERSION => {}
            Some(found) => {
                return Err(format!(
                    "{HISTORY_FILE}:{line_no}: schema_version {found} is newer \
                     than this build understands ({SCHEMA_VERSION})"
                ));
            }
            None => {
                return Err(format!(
                    "{HISTORY_FILE}:{line_no}: record has no schema_version \
                     (pre-versioning output?)"
                ));
            }
        }
        let field = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        let mut metrics = BTreeMap::new();
        if let Some(obj) = v.as_obj() {
            for (k, val) in obj {
                if matches!(
                    k.as_str(),
                    "type" | "tool" | "host" | "build" | "schema_version"
                ) {
                    continue;
                }
                if let Some(f) = val.as_f64() {
                    metrics.insert(k.clone(), f);
                }
            }
        }
        records.push(HistoryRecord {
            tool: field("tool"),
            host: field("host"),
            build: field("build"),
            metrics,
        });
    }
    Ok(records)
}

/// A stable identifier for the machine running the benchmark.
///
/// `MAYA_HOST_ID` overrides (CI sets it to the runner class so history
/// from like runners pools); otherwise os-arch-ncpu plus a slug of the
/// CPU model name from `/proc/cpuinfo` where available.
pub fn host_id() -> String {
    if let Ok(id) = std::env::var("MAYA_HOST_ID") {
        if !id.is_empty() {
            return id;
        }
    }
    let ncpu = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut id = format!(
        "{}-{}-{}c",
        std::env::consts::OS,
        std::env::consts::ARCH,
        ncpu
    );
    if let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") {
        if let Some(model) = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
        {
            let slug: String = model
                .trim()
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '-'
                    }
                })
                .collect();
            let slug = slug.trim_matches('-').replace("--", "-");
            if !slug.is_empty() {
                let _ = write!(id, "-{slug}");
            }
        }
    }
    id
}

/// A stable identifier for the binary that produced a record: crate
/// version plus optimization profile (debug and release throughputs are
/// not comparable, but both append to the same per-host history and the
/// profile tag makes mixed entries explainable).
pub fn build_id() -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("{}-{profile}", env!("CARGO_PKG_VERSION"))
}

/// One detected regression: a metric fell below the noise band.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Metric name.
    pub metric: String,
    /// The newest run's value.
    pub current: f64,
    /// Median of the trailing window.
    pub baseline: f64,
    /// `current / baseline`.
    pub ratio: f64,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.0} is {:.0}% of the trailing median {:.0} \
             (floor {:.0}%)",
            self.metric,
            self.current,
            self.ratio * 100.0,
            self.baseline,
            (1.0 - NOISE_BAND) * 100.0
        )
    }
}

/// The detector's verdict: regressions found (fail) plus non-fatal
/// warnings (short history, unmatched metrics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckOutcome {
    /// Metrics that regressed beyond the noise band.
    pub findings: Vec<Finding>,
    /// Non-fatal conditions worth printing.
    pub warnings: Vec<String>,
}

impl CheckOutcome {
    /// True when no regression was found.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Compares `current` against the trailing [`WINDOW`] of prior records
/// from the same host and tool. A metric regresses when it falls below
/// `median * (1 - NOISE_BAND)`; improvements and in-band jitter pass.
/// With no comparable prior record the check passes with a warning (the
/// first run on a host records a baseline, it cannot be judged).
pub fn check_regressions(prior: &[HistoryRecord], current: &HistoryRecord) -> CheckOutcome {
    let mut out = CheckOutcome::default();
    let matching: Vec<&HistoryRecord> = prior
        .iter()
        .filter(|r| r.host == current.host && r.tool == current.tool)
        .collect();
    if matching.is_empty() {
        out.warnings.push(format!(
            "no prior history for host {:?} / tool {:?}; recording a baseline, \
             nothing to compare against",
            current.host, current.tool
        ));
        return out;
    }
    let window: Vec<&HistoryRecord> = matching.iter().rev().take(WINDOW).copied().collect();
    if window.len() < WINDOW {
        out.warnings.push(format!(
            "short history: {} of {WINDOW} trailing runs for this host/tool; \
             the median is noisier than usual",
            window.len()
        ));
    }
    for (metric, &value) in &current.metrics {
        let mut priors: Vec<f64> = window
            .iter()
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect();
        if priors.is_empty() {
            out.warnings
                .push(format!("metric {metric:?} has no prior samples; skipped"));
            continue;
        }
        let baseline = median(&mut priors);
        if baseline <= 0.0 {
            continue;
        }
        let ratio = value / baseline;
        if ratio < 1.0 - NOISE_BAND {
            out.findings.push(Finding {
                metric: metric.clone(),
                current: value,
                baseline,
                ratio,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(host: &str, e2e: f64, fused: f64) -> HistoryRecord {
        let mut metrics = BTreeMap::new();
        metrics.insert("e2e_accesses_per_sec".to_string(), e2e);
        metrics.insert("fused_blocks_per_sec".to_string(), fused);
        HistoryRecord {
            tool: "perfbench".to_string(),
            host: host.to_string(),
            build: "0.1.0-debug".to_string(),
            metrics,
        }
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let a = record("ci-x86", 1.5e6, 8.0e6);
        let b = record("ci-x86", 1.6e6, 8.2e6);
        let text = format!("{}\n{}\n", a.to_json_line(), b.to_json_line());
        assert!(text.starts_with(r#"{"type":"perf-history""#));
        assert!(text.contains(r#""schema_version":"#));
        let parsed = parse_history(&text).unwrap();
        assert_eq!(parsed, vec![a, b]);
    }

    #[test]
    fn unstamped_or_foreign_lines_are_rejected() {
        let err = parse_history(r#"{"type":"perf-history","tool":"x"}"#).unwrap_err();
        assert!(err.contains("no schema_version"), "{err}");
        let err = parse_history(r#"{"type":"perf","schema_version":2}"#).unwrap_err();
        assert!(err.contains("unexpected record type"), "{err}");
        let newer = format!(
            r#"{{"type":"perf-history","schema_version":{}}}"#,
            SCHEMA_VERSION + 1
        );
        let err = parse_history(&newer).unwrap_err();
        assert!(err.contains("newer"), "{err}");
    }

    #[test]
    fn injected_two_x_slowdown_fires() {
        let prior: Vec<HistoryRecord> = (0..WINDOW)
            .map(|i| record("ci", 2.0e6 + i as f64, 8.0e6))
            .collect();
        let slow = record("ci", 1.0e6, 8.0e6);
        let out = check_regressions(&prior, &slow);
        assert!(!out.passed());
        assert_eq!(out.findings.len(), 1);
        let f = &out.findings[0];
        assert_eq!(f.metric, "e2e_accesses_per_sec");
        assert!((f.ratio - 0.5).abs() < 0.01, "ratio {}", f.ratio);
        assert!(f.to_string().contains("e2e_accesses_per_sec"));
    }

    #[test]
    fn in_band_jitter_does_not_fire() {
        let prior: Vec<HistoryRecord> = (0..WINDOW).map(|_| record("ci", 2.0e6, 8.0e6)).collect();
        for factor in [1.0 - NOISE_BAND + 0.01, 0.95, 1.0, 1.05, 1.5] {
            let jittered = record("ci", 2.0e6 * factor, 8.0e6 * factor);
            let out = check_regressions(&prior, &jittered);
            assert!(
                out.passed(),
                "factor {factor} should be in band: {:?}",
                out.findings
            );
        }
        // Just past the band on one metric: exactly one finding.
        let slow = record("ci", 2.0e6 * (1.0 - NOISE_BAND - 0.02), 8.0e6);
        let out = check_regressions(&prior, &slow);
        assert_eq!(out.findings.len(), 1);
    }

    #[test]
    fn short_history_passes_with_a_warning() {
        // No prior at all: pass, warn, judge nothing (even a 10x slowdown).
        let out = check_regressions(&[], &record("ci", 0.1e6, 0.1e6));
        assert!(out.passed());
        assert!(out.warnings.iter().any(|w| w.contains("no prior history")));

        // Fewer than WINDOW priors: still compared, but flagged as short.
        let prior = vec![record("ci", 2.0e6, 8.0e6)];
        let out = check_regressions(&prior, &record("ci", 1.9e6, 8.1e6));
        assert!(out.passed());
        assert!(out.warnings.iter().any(|w| w.contains("short history")));
    }

    #[test]
    fn other_hosts_and_tools_are_ignored() {
        let mut foreign = record("laptop", 9.0e6, 90.0e6);
        foreign.tool = "perfbench".to_string();
        let mut other_tool = record("ci", 9.0e6, 90.0e6);
        other_tool.tool = "diag".to_string();
        let prior = vec![foreign, other_tool];
        let out = check_regressions(&prior, &record("ci", 1.0e6, 1.0e6));
        assert!(
            out.passed(),
            "cross-host/tool records must not form a baseline"
        );
        assert!(out.warnings.iter().any(|w| w.contains("no prior history")));
    }

    #[test]
    fn window_slides_over_old_records() {
        // Five old slow runs, then five fast ones: the window holds only
        // the fast ones, so a mid-speed run regresses relative to them.
        let mut prior: Vec<HistoryRecord> =
            (0..WINDOW).map(|_| record("ci", 1.0e6, 8.0e6)).collect();
        prior.extend((0..WINDOW).map(|_| record("ci", 4.0e6, 8.0e6)));
        let out = check_regressions(&prior, &record("ci", 2.0e6, 8.0e6));
        assert_eq!(
            out.findings.len(),
            1,
            "window must exclude the old slow era"
        );
        assert!((out.findings[0].baseline - 4.0e6).abs() < 1.0);
    }

    /// A captured `benchmark --workload maya-stream --seconds 1 --trace 1`
    /// output, verbatim.
    const MAYA_STREAM_OUTPUT: &str = r#"llc_calls_per_s 1528929.1401166546 calls/s n=3 min=1152670.5430717072 max=1346315.6678030014
run_s 0.848929467 s n=3 min=0.964077765 max=1.12603988
run.fastest_rep_s 0.964077765 s n=3 min=0.964077765 max=1.12603988
setup_s 0.058694022 s n=3 min=0.044572125 max=0.074646849
peak_rss_mib 74.140625 MiB n=1 min=74.140625 max=74.140625
workloads.synth_ns_per_access 58.47435209676289 ns n=3 min=41.876777956838566 max=75.05959111371916
diag_style.lookups_per_s 812849.9374545115 lookups/s n=3 min=692038.1012275615 max=812849.9374545115
llc.calls_per_access 1.4233907316142362 ratio n=1 min=1.4233907316142362 max=1.4233907316142362
llc.insitu_ns_per_call 465.0029567382509 ns n=1 min=465.0029567382509 max=465.0029567382509
llc.insitu_ns_p50 278.67692307692306 ns n=1 min=278.67692307692306 max=278.67692307692306
llc.insitu_ns_p99 1575.8372093023256 ns n=1 min=1575.8372093023256 max=1575.8372093023256
llc.insitu_samples 12852 count n=1 min=12852 max=12852
llc.data_hit_ratio 0 ratio n=1 min=0 max=0
llc.writeback_share 0.2942803013668446 ratio n=1 min=0.2942803013668446 max=0.2942803013668446
llc.prefetch_share 0.69811849889788 ratio n=1 min=0.69811849889788 max=0.69811849889788
llc.global_data_evictions_per_kcall 226.07427175407162 1/kcall n=1 min=226.07427175407162 max=226.07427175407162
llc.global_tag_evictions_per_kcall 113.20423329727119 1/kcall n=1 min=113.20423329727119 max=113.20423329727119
llc.tag_fills_per_kcall 313.77602359366784 1/kcall n=1 min=313.77602359366784 max=313.77602359366784
llc.data_fills_per_kcall 310.9512234092509 1/kcall n=1 min=310.9512234092509 max=310.9512234092509
llc.tag_only_hits_per_kcall 1.9880933940413303 1/kcall n=1 min=1.9880933940413303 max=1.9880933940413303
llc.saes 0 count n=1 min=0 max=0
llc.replay_ns_per_call 282.382401365843 ns n=1 min=282.382401365843 max=282.382401365843
prince.index_ns_per_call 128.63452759845694 ns n=1 min=128.63452759845694 max=128.63452759845694
prince.index_ns_per_call_nomemo 192.45449488540802 ns n=1 min=192.45449488540802 max=192.45449488540802
workloads.replay_ns_per_access 4.688997687780269 ns n=1 min=4.688997687780269 max=4.688997687780269
sim.l1_ns_per_lookup 65.49759506247574 ns n=1 min=65.49759506247574 max=65.49759506247574
sim.l1_hit_ratio 0 ratio n=1 min=0 max=0
sim.l2_ns_per_lookup 46.90578942940876 ns n=1 min=46.90578942940876 max=46.90578942940876
sim.l2_hit_ratio 0.3089198789533237 ratio n=1 min=0.3089198789533237 max=0.3089198789533237
sim.prefetch_ns_per_observe 11.840446158131495 ns n=1 min=11.840446158131495 max=11.840446158131495
sim.prefetch_candidates_per_access 3.999789444594319 ratio n=1 min=3.999789444594319 max=3.999789444594319
sim.dram_ns_per_request 24.121273533724672 ns n=1 min=24.121273533724672 max=24.121273533724672
sim.dram_row_hit_ratio 0.9178354372477459 ratio n=1 min=0.9178354372477459 max=0.9178354372477459
sim.residual_ns_per_access 497.0265544282621 ns n=1 min=497.0265544282621 max=497.0265544282621
sim.ipc_sum 2.2738866802950057 ipc n=1 min=2.2738866802950057 max=2.2738866802950057
sim.llc_mpki 62.64437677932268 mpki n=1 min=62.64437677932268 max=62.64437677932268
trace.overhead_ratio 0.9581567568737478 ratio n=1 min=0.9581567568737478 max=0.9581567568737478
ledger.explained_frac_replay 0.47789997131719103 ratio n=1 min=0.47789997131719103 max=0.47789997131719103
ledger.explained_frac_insitu 0.6917199377786569 ratio n=1 min=0.6917199377786569 max=0.6917199377786569
obs.observed_run_ratio 2.7744451374527372 ratio n=1 min=2.7744451374527372 max=2.7744451374527372
ops_attempted 10 count
ops_failed 0 count
{"correct":true,"attempted":10,"failed":0,"metrics":{"llc.calls_per_access":{"value":1.4233907316142362,"unit":"ratio"},"llc.insitu_ns_per_call":{"value":465.0029567382509,"unit":"ns"},"llc.insitu_ns_p50":{"value":278.67692307692306,"unit":"ns"},"llc.insitu_ns_p99":{"value":1575.8372093023256,"unit":"ns"},"llc.replay_ns_per_call":{"value":282.382401365843,"unit":"ns"},"llc.data_hit_ratio":{"value":0,"unit":"ratio"},"llc.writeback_share":{"value":0.2942803013668446,"unit":"ratio"},"llc.prefetch_share":{"value":0.69811849889788,"unit":"ratio"},"llc.global_data_evictions_per_kcall":{"value":226.07427175407162,"unit":"1/kcall"},"llc.global_tag_evictions_per_kcall":{"value":113.20423329727119,"unit":"1/kcall"},"llc.tag_fills_per_kcall":{"value":313.77602359366784,"unit":"1/kcall"},"llc.data_fills_per_kcall":{"value":310.9512234092509,"unit":"1/kcall"},"llc.tag_only_hits_per_kcall":{"value":1.9880933940413303,"unit":"1/kcall"},"llc.saes":{"value":0,"unit":"count"},"prince.index_ns_per_call":{"value":128.63452759845694,"unit":"ns"},"prince.index_ns_per_call_nomemo":{"value":192.45449488540802,"unit":"ns"},"trace.overhead_ratio":{"value":0.9581567568737478,"unit":"ratio"},"ledger.explained_frac_replay":{"value":0.47789997131719103,"unit":"ratio"},"ledger.explained_frac_insitu":{"value":0.6917199377786569,"unit":"ratio"}}}"#;

    #[test]
    fn benchmark_output_yields_its_named_metrics() {
        let r = benchmark_record("maya-stream", MAYA_STREAM_OUTPUT).unwrap();
        assert_eq!(r.tool, BENCHMARK_TOOL);
        let keys: Vec<&str> = r.metrics.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "maya-stream/diag_style.lookups_per_s",
                "maya-stream/llc_calls_per_s",
                "maya-stream/prince.index_calls_per_s_nomemo",
            ]
        );
        assert_eq!(r.metrics["maya-stream/llc_calls_per_s"], 1528929.1401166546);
        assert_eq!(
            r.metrics["maya-stream/diag_style.lookups_per_s"],
            812849.9374545115
        );
        // The record survives the history file.
        assert_eq!(parse_history(&r.to_json_line()).unwrap(), vec![r]);

        // Only the front-end workload keeps the front-end metrics.
        let r = benchmark_record(FRONT_END_WORKLOAD, MAYA_STREAM_OUTPUT).unwrap();
        let keys: Vec<&str> = r.metrics.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "baseline-stream/diag_style.lookups_per_s",
                "baseline-stream/llc_calls_per_s",
                "baseline-stream/prince.index_calls_per_s_nomemo",
                "baseline-stream/sim.l1_lookups_per_s",
                "baseline-stream/sim.l2_lookups_per_s",
                "baseline-stream/workloads.synth_accesses_per_s",
            ]
        );
        assert_eq!(parse_history(&r.to_json_line()).unwrap(), vec![r]);
    }

    #[test]
    fn ns_metrics_are_inverted_to_rates() {
        let r = benchmark_record(FRONT_END_WORKLOAD, MAYA_STREAM_OUTPUT).unwrap();
        for (key, ns) in [
            ("sim.l1_lookups_per_s", 65.49759506247574),
            ("sim.l2_lookups_per_s", 46.90578942940876),
            ("workloads.synth_accesses_per_s", 58.47435209676289),
            ("prince.index_calls_per_s_nomemo", 192.45449488540802),
        ] {
            let rate = r.metrics[&format!("{FRONT_END_WORKLOAD}/{key}")];
            assert!((rate - 1e9 / ns).abs() < 1e-6, "{key}: {rate}");
        }
    }

    #[test]
    fn failed_or_incomplete_output_is_an_error() {
        let failed = MAYA_STREAM_OUTPUT.replace(r#""failed":0"#, r#""failed":2"#);
        let err = benchmark_record("maya-stream", &failed).unwrap_err();
        assert!(err.contains("2 failed"), "{err}");

        let without = |names: &[&str]| -> String {
            MAYA_STREAM_OUTPUT
                .lines()
                .filter(|l| names.iter().all(|n| !l.starts_with(&format!("{n} "))))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for (name, _) in BENCHMARK_METRICS {
            let err = benchmark_record(FRONT_END_WORKLOAD, &without(&[name])).unwrap_err();
            assert!(err.contains(name), "{name}: {err}");
        }
        // The other simulator workloads need every metric but the front
        // end's.
        for (i, (name, _)) in BENCHMARK_METRICS.iter().enumerate() {
            let r = benchmark_record("maya-stream", &without(&[name]));
            if i < EVERY_SIMULATOR {
                let err = r.unwrap_err();
                assert!(err.contains(name), "{name}: {err}");
            } else {
                assert_eq!(r.unwrap().metrics.len(), EVERY_SIMULATOR, "{name}");
            }
        }

        // A workload without the simulator metrics (maya-occupancy) reports
        // only the ones every workload has.
        let sim: Vec<&str> = BENCHMARK_METRICS[EVERY_WORKLOAD..]
            .iter()
            .map(|(name, _)| *name)
            .collect();
        let r = benchmark_record("maya-occupancy", &without(&sim)).unwrap();
        assert_eq!(r.metrics.len(), EVERY_WORKLOAD);

        let text_only = MAYA_STREAM_OUTPUT.rsplit_once('\n').unwrap().0;
        for bad in ["", "llc_calls_per_s 1 calls/s", text_only, "{}"] {
            assert!(benchmark_record("maya-stream", bad).is_err(), "{bad:?}");
        }
        let zero =
            MAYA_STREAM_OUTPUT.replace("sim.l1_ns_per_lookup 65.", "sim.l1_ns_per_lookup 0 65.");
        for workload in [FRONT_END_WORKLOAD, "maya-stream"] {
            assert!(benchmark_record(workload, &zero).is_err(), "{workload}");
        }
    }

    #[test]
    fn injected_slowdown_of_a_benchmark_record_fires() {
        let r = benchmark_record("maya-stream", MAYA_STREAM_OUTPUT).unwrap();
        let prior = vec![r.clone(); WINDOW];
        assert!(check_regressions(&prior, &r).passed());
        assert!(check_regressions(&prior, &r.scaled(0.9)).passed());
        let out = check_regressions(&prior, &r.scaled(0.7));
        assert_eq!(out.findings.len(), r.metrics.len());
        assert!(out.findings.iter().all(|f| (f.ratio - 0.7).abs() < 1e-9));
    }

    #[test]
    fn host_and_build_ids_are_stable_and_overridable() {
        assert!(build_id().contains("debug") || build_id().contains("release"));
        let a = host_id();
        let b = host_id();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
