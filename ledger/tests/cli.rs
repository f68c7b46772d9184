//! The built executable's refusals: each must exit 2 before any work and say
//! why on standard error, leaving standard output empty (the driver reads a
//! result from its last line).
//!
//! Having an integration test also makes `cargo test` build the package's
//! two bins, which puts `sparkline-worker` where the unit tests' worker-
//! process workload looks for it.

use std::process::{Command, Output};

fn ledger() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
}

fn refused(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may look like a result");
    assert!(
        stderr.contains(needle),
        "{stderr:?} should mention {needle:?}"
    );
}

#[test]
fn a_knob_that_changes_what_is_measured_is_refused() {
    for var in [
        "SPARKLINE_CHAOS",
        "SPARKLINE_STORAGE_BUDGET",
        "SPARKLINE_WORKER_PROCS",
        "SAC_KERNEL",
        "SAC_ADAPTIVE",
    ] {
        let out = ledger()
            .args(["--workload", "small_queries", "--seconds", "1"])
            .env(var, "1")
            .output()
            .unwrap();
        refused(&out, var);
    }
}

#[test]
fn a_missing_worker_binary_is_refused_with_the_build_command() {
    let out = ledger()
        .args(["--workload", "matmul_procs"])
        .env("SPARKLINE_WORKER_BIN", "no/such/sparkline-worker")
        .output()
        .unwrap();
    refused(
        &out,
        "cargo build --release --manifest-path ledger/Cargo.toml",
    );
}

#[test]
fn bad_arguments_are_refused() {
    refused(&ledger().output().unwrap(), "usage");
    refused(
        &ledger().args(["--workload", "smooth"]).output().unwrap(),
        "unknown workload",
    );
    refused(
        &ledger().args(["compare", "only-one"]).output().unwrap(),
        "usage",
    );
}
