//! Metric records, summary statistics and the two output formats: one
//! `name value unit n=.. min=.. max=..` line per metric for people, and a
//! final JSON object for tools.

use maya_obs::json::Obj;

/// The gated end-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: [&str; 4] = ["llc_calls_per_s", "run_s", "setup_s", "peak_rss_mib"];

/// The per-layer metrics every workload reports, emitted with `--trace 1`.
/// Layer metrics that exist on only some workloads (the simulator layers,
/// the attack loop, observation overhead) print as text lines only.
pub const PER_LAYER: [&str; 19] = [
    "llc.calls_per_access",
    "llc.insitu_ns_per_call",
    "llc.insitu_ns_p50",
    "llc.insitu_ns_p99",
    "llc.replay_ns_per_call",
    "llc.data_hit_ratio",
    "llc.writeback_share",
    "llc.prefetch_share",
    "llc.global_data_evictions_per_kcall",
    "llc.global_tag_evictions_per_kcall",
    "llc.tag_fills_per_kcall",
    "llc.data_fills_per_kcall",
    "llc.tag_only_hits_per_kcall",
    "llc.saes",
    "prince.index_ns_per_call",
    "prince.index_ns_per_call_nomemo",
    "trace.overhead_ratio",
    "ledger.explained_frac_replay",
    "ledger.explained_frac_insitu",
];

/// One reported metric: its value and the samples it was taken from, whose
/// `n`, `min` and `max` are printed beside it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

/// Everything one invocation reports: metrics plus the operation ledger
/// (each rep, timed or recording run, and replay is one operation).
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records one metric from its samples, summarized by their median.
    pub fn add(&mut self, name: &'static str, unit: &'static str, samples: Vec<f64>) {
        self.add_valued(name, unit, median(&samples), samples);
    }

    /// Records one metric whose value the caller derived from `samples`.
    pub fn add_valued(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: Vec<f64>,
    ) {
        debug_assert!(legal_name(name), "illegal metric name {name}");
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Records a single-sample metric.
    pub fn one(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.add_valued(name, unit, value, vec![value]);
    }

    /// Counts one operation; a failed one is reported on stderr.
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("FAIL: {what}: {why}");
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable lines: every metric, then the operation ledger.
    pub fn text_lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let (lo, hi) = m
                    .samples
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                        (lo.min(x), hi.max(x))
                    });
                format!(
                    "{} {} {} n={} min={} max={}",
                    m.name,
                    m.value,
                    m.unit,
                    m.samples.len(),
                    lo,
                    hi
                )
            })
            .collect();
        out.push(format!("ops_attempted {} count", self.attempted));
        out.push(format!("ops_failed {} count", self.failed));
        out
    }

    /// The final JSON object over the metrics named in `names`. A named
    /// metric that was not measured, or whose value is not finite, is a
    /// failure: the object must carry every name with a number.
    pub fn json_line(&mut self, names: &[&str]) -> String {
        let mut metrics = Obj::new();
        for &name in names {
            match self.get(name).map(|m| (m.value, m.unit)) {
                Some((v, unit)) if v.is_finite() => {
                    let entry = Obj::new().f64("value", v).str("unit", unit).finish();
                    metrics = metrics.raw(name, &entry);
                }
                _ => self.op(&format!("metric {name}"), Err("not measured".into())),
            }
        }
        Obj::new()
            .bool("correct", self.failed == 0)
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    }
}

/// Median of `xs` (mean of the middle pair for even counts); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quantile `q` in `[0, 1]` of an ascending slice of whole nanoseconds:
/// the mean of the samples ranked within half a percentile of `q`. A
/// nearest-rank pick would read back the same whole number run after run;
/// the window average resolves below one nanosecond.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len() as f64;
    let lo = ((q - 0.005) * n).floor().clamp(0.0, n - 1.0) as usize;
    let hi = ((q + 0.005) * n).ceil().clamp(lo as f64 + 1.0, n) as usize;
    let window = &sorted[lo..hi];
    window.iter().map(|&x| f64::from(x)).sum::<f64>() / window.len() as f64
}

/// True if `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn legal_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// 64-bit FNV-1a, for result digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_obs::json::parse_value;

    fn sample_report() -> Report {
        let mut r = Report::default();
        r.add("run_s", "s", vec![3.0, 1.0, 2.0]);
        r.add_valued("setup_s", "s", 0.1, vec![0.3, 0.1, 0.2]);
        r.add_valued("llc_calls_per_s", "calls/s", 6.5, vec![4.0, 6.0, 5.0]);
        r.one("llc.saes", "count", 0.0);
        r.one("llc.insitu_ns_per_call", "ns", 123.456);
        r.op("rep 1", Ok(()));
        r
    }

    #[test]
    fn text_lines_parse_as_name_value_unit() {
        let r = sample_report();
        for line in r.text_lines() {
            let mut fields = line.split_whitespace();
            let name = fields.next().expect("name");
            let value: f64 = fields
                .next()
                .expect("value")
                .parse()
                .expect("numeric value");
            let unit = fields.next().expect("unit");
            assert!(legal_name(name), "illegal name in {line:?}");
            assert!(value.is_finite());
            assert!(!unit.is_empty() && unit.len() <= 16, "unit in {line:?}");
            for extra in fields {
                let (k, v) = extra.split_once('=').expect("key=value");
                assert!(["n", "min", "max"].contains(&k), "{line:?}");
                v.parse::<f64>().expect("numeric extra");
            }
        }
        assert!(r.text_lines()[0].starts_with("run_s 2 s n=3 min=1 max=3"));
        assert!(r.text_lines()[1].starts_with("setup_s 0.1 s n=3 min=0.1 max=0.3"));
        assert!(r.text_lines()[2].starts_with("llc_calls_per_s 6.5 calls/s n=3 min=4 max=6"));
    }

    #[test]
    fn every_declared_name_is_legal_and_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        assert!(all.iter().all(|n| legal_name(n)));
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(before, all.len());
        assert!(!legal_name("_x") && !legal_name("a b") && !legal_name(&"x".repeat(65)));
    }

    #[test]
    fn json_line_carries_requested_metrics_and_fails_missing_ones() {
        let mut r = sample_report();
        let line = r.json_line(&["run_s", "llc.saes"]);
        let v = parse_value(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&maya_obs::json::Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(1));
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("run_s")
                .and_then(|x| x.get("value"))
                .and_then(|x| x.as_f64()),
            Some(2.0)
        );
        assert_eq!(
            m.get("llc.saes")
                .and_then(|x| x.get("unit"))
                .and_then(|x| x.as_str()),
            Some("count")
        );

        let line = r.json_line(&["peak_rss_mib"]);
        let v = parse_value(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&maya_obs::json::Value::Bool(false)));
        assert_eq!(v.get("failed").and_then(|x| x.as_u64()), Some(1));
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50.5);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99.5);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[7], 0.99), 7.0);
        assert!(quantile_sorted(&[], 0.5).is_nan());
    }
}
