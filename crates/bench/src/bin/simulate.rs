//! `simulate`: run one multi-core simulation from the command line.
//!
//! ```text
//! simulate --benchmark mcf --design maya [--cores 8] [--instructions 2000000] [--seed 42]
//!          [--metrics out.jsonl] [--metrics-tsv out.tsv] [--sample-every 100000]
//! ```
//!
//! `--design` accepts every id in the design registry ([`Design::all`]).
//! Bad input (an unknown flag, design or benchmark, a missing or
//! non-numeric value, an unwritable output file) prints `error: …` and
//! exits with status 2.
//!
//! With `--metrics`, a [`maya_obs::MetricsProbe`] is attached to the whole
//! system (LLC + DRAM + cores) and its counters, histograms, and periodic
//! snapshots are written as JSONL after the run. Attaching the probe never
//! changes simulation results — observability is strictly read-only.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use std::str::FromStr;

use champsim_lite::{System, SystemConfig};
use maya_bench::designs::Design;
use maya_obs::{run_header, write_jsonl, write_tsv, MetricsProbe, ProbeHandle};
use workloads::mixes::homogeneous;
use workloads::spec::benchmark;

const USAGE: &str = "usage: simulate --benchmark <name> --design <design> \
                     [--cores N] [--instructions N] [--seed S] \
                     [--metrics out.jsonl] [--metrics-tsv out.tsv] [--sample-every N]";

/// Why the command line was rejected, or an output could not be written.
#[derive(Debug)]
enum ArgError {
    UnknownFlag(String),
    MissingValue(String),
    /// A flag's value is not what it expects: `--flag value: expected …`.
    BadValue(String),
    Output(String, io::Error),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag {flag}\n{USAGE}"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadValue(msg) => f.write_str(msg),
            ArgError::Output(path, err) => write!(f, "cannot write {path}: {err}"),
        }
    }
}

fn bad(flag: &str, value: impl fmt::Display, expected: impl fmt::Display) -> ArgError {
    ArgError::BadValue(format!("{flag} {value}: expected {expected}"))
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, ArgError> {
    value
        .parse()
        .map_err(|_| bad(flag, value, "a non-negative integer"))
}

#[derive(Debug)]
struct Args {
    benchmark: String,
    design: Design,
    cores: usize,
    instructions: u64,
    seed: u64,
    metrics: Option<String>,
    metrics_tsv: Option<String>,
    sample_every: u64,
}

/// Parses the flags after the program name; `Ok(None)` means `--help`.
fn parse_args(argv: &[String]) -> Result<Option<Args>, ArgError> {
    let mut args = Args {
        benchmark: "mcf".to_string(),
        design: Design::Maya,
        cores: 8,
        instructions: 2_000_000,
        seed: 42,
        metrics: None,
        metrics_tsv: None,
        sample_every: 100_000,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = it
            .next()
            .ok_or_else(|| ArgError::MissingValue(flag.clone()));
        match flag.as_str() {
            "--benchmark" => args.benchmark = value?.clone(),
            "--design" => {
                let id = value?;
                args.design = Design::from_id(id).ok_or_else(|| {
                    let ids: Vec<String> = Design::all().iter().map(Design::id).collect();
                    bad(flag, id, format!("one of {}", ids.join(", ")))
                })?;
            }
            "--cores" => args.cores = number(flag, value?)?,
            "--instructions" => args.instructions = number(flag, value?)?,
            "--seed" => args.seed = number(flag, value?)?,
            "--metrics" => args.metrics = Some(value?.clone()),
            "--metrics-tsv" => args.metrics_tsv = Some(value?.clone()),
            "--sample-every" => args.sample_every = number(flag, value?)?,
            _ => return Err(ArgError::UnknownFlag(flag.clone())),
        }
    }
    if benchmark(&args.benchmark).is_none() {
        return Err(bad("--benchmark", &args.benchmark, "a known benchmark"));
    }
    // Every design's geometry needs a power-of-two set count, and a
    // partitioned design needs a domain per core.
    let max = args.design.max_domains();
    if !args.cores.is_power_of_two() || max.is_some_and(|m| args.cores > m) {
        let limit = max.map_or(String::new(), |m| format!(" up to {m} for this design"));
        return Err(bad("--cores", args.cores, format!("a power of two{limit}")));
    }
    Ok(Some(args))
}

/// Creates `path` and fills it through `write`.
fn write_file(
    path: &str,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> Result<(), ArgError> {
    File::create(path)
        .and_then(|f| {
            let mut f = BufWriter::new(f);
            write(&mut f)?;
            f.flush()
        })
        .map_err(|err| ArgError::Output(path.to_string(), err))
}

fn run(args: &Args) -> Result<(), ArgError> {
    let (benchmark, cores, seed) = (&args.benchmark, args.cores, args.seed);
    let cfg = SystemConfig {
        cores,
        ..SystemConfig::eight_core_default()
            .with_instructions(args.instructions / 4, args.instructions)
    };
    let llc = args.design.build(cfg.baseline_llc_lines(), seed);
    let mix = homogeneous(benchmark, cores);
    let mut sys = System::new(cfg, llc, &mix, seed);
    let collector = if args.metrics.is_some() || args.metrics_tsv.is_some() {
        let (handle, rc) = ProbeHandle::of(MetricsProbe::new(args.sample_every));
        sys.set_probe(handle.clone());
        Some((handle, rc))
    } else {
        None
    };
    let r = sys.run();
    if let Some((handle, rc)) = collector {
        rc.borrow_mut().finalize(handle.cycle());
        let probe = rc.borrow();
        if let Some(path) = &args.metrics {
            let header = run_header(&args.design.id(), benchmark, seed, args.sample_every);
            write_file(path, |f| write_jsonl(f, header, &probe))?;
        }
        if let Some(path) = &args.metrics_tsv {
            write_file(path, |f| write_tsv(f, &probe))?;
        }
    }

    println!("design        {}", r.llc_name);
    println!("benchmark     {benchmark} x {cores} cores");
    println!("ipc_sum       {:.3}", r.ipc_sum());
    println!("avg_mpki      {:.2}", r.avg_mpki());
    println!(
        "dead_blocks   {}",
        r.dead_block_fraction()
            .map(|d| format!("{:.1}%", d * 100.0))
            .unwrap_or("n/a".into())
    );
    println!("llc_hits      {}", r.llc.data_hits);
    println!("llc_saes      {}", r.llc.saes);
    println!("cross_evict   {}", r.llc.cross_domain_evictions);
    println!("dram_reads    {}", r.dram.0);
    println!("dram_writes   {}", r.dram.1);
    for (i, c) in r.cores.iter().enumerate() {
        println!(
            "core{i:<2}        ipc={:.3} mpki={:.2} late_pf={} timely_pf={}",
            c.ipc(),
            c.mpki(),
            c.late_prefetch_merges,
            c.timely_prefetch_hits
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Ok(Some(args)) => run(&args),
        Ok(None) => {
            eprintln!("{USAGE}");
            Ok(())
        }
        Err(e) => Err(e),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, ArgError> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn error(args: &[&str]) -> String {
        parse(args).expect_err("must be rejected").to_string()
    }

    #[test]
    fn non_numeric_cores_is_rejected() {
        let msg = error(&["--cores", "x"]);
        assert_eq!(msg, "--cores x: expected a non-negative integer");
    }

    #[test]
    fn missing_flag_value_is_rejected() {
        assert_eq!(
            error(&["--design", "maya", "--seed"]),
            "--seed needs a value"
        );
    }

    #[test]
    fn unknown_design_lists_every_valid_id() {
        let msg = error(&["--design", "nope"]);
        for d in Design::all() {
            assert!(msg.contains(&d.id()), "{msg} lacks {}", d.id());
        }
    }

    #[test]
    fn every_registered_id_resolves() {
        for d in Design::all() {
            let args = parse(&["--design", &d.id()]).expect("valid id");
            assert_eq!(args.expect("not --help").design, d);
        }
    }

    #[test]
    fn bad_benchmarks_and_core_counts_are_rejected() {
        error(&["--benchmark", "nope"]);
        error(&["--cores", "0"]);
        error(&["--cores", "3"]);
        error(&["--design", "dawg", "--cores", "16"]);
        error(&["--verbose"]);
    }
}
