//! `perfbench` rejects what it does not understand: an unknown flag, a
//! missing or bad value, and an input file it cannot use each exit 2 with
//! an `error:` line, before any measurement and without a panic. A typo
//! such as `--chek` must never pass silently.

use std::path::PathBuf;
use std::process::Command;

fn rejects(args: &[&str], expected: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(expected), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

fn scratch_file(name: &str, contents: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, contents).expect("write scratch input");
    path
}

#[test]
fn bad_arguments_exit_2_with_an_error() {
    rejects(&["--chek"], "unknown argument --chek");
    rejects(&["--check", "-x"], "unknown argument -x");
    rejects(&["--inject-slowdown"], "needs a value");
    rejects(&["--inject-slowdown", "1.5"], "fraction");
    rejects(&["--inject-slowdown", "x", "--check"], "fraction");
}

#[test]
fn unusable_inputs_exit_2_with_an_error() {
    let missing = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("benchmark-absent.txt");
    let _ = std::fs::remove_file(&missing);
    rejects(
        &["--check", missing.to_str().unwrap()],
        "benchmark-absent.txt",
    );

    let failed = scratch_file(
        "benchmark-maya-stream.txt",
        "llc_calls_per_s 1500000 calls/s n=3 min=1 max=2\n\
         {\"correct\":false,\"attempted\":10,\"failed\":1,\"metrics\":{}}\n",
    );
    rejects(&["--check", failed.to_str().unwrap()], "1 failed operation");

    let untraced = scratch_file(
        "benchmark-maya-occupancy.txt",
        "llc_calls_per_s 15000000 calls/s n=3 min=1 max=2\n\
         {\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{}}\n",
    );
    rejects(
        &["--check", untraced.to_str().unwrap()],
        "prince.index_ns_per_call_nomemo",
    );
}
