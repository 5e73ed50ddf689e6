//! The paper's printed tables, pinned byte for byte.
//!
//! Each harness below prints only simulated quantities (latencies,
//! radio-on times, coverage, success ratios, slot counts), so its stdout
//! is a pure function of the code and the fixed seeds. Comparing it with
//! a committed fixture in `tests/golden/paper_tables/` catches any change
//! to the transport's RNG draw order or to the protocol pipeline at the
//! level of the paper's own numbers. Regenerate with `GOLDEN_REGEN=1`
//! after an intended change, then review the diff.

use std::process::Command;

/// Run one harness binary and compare its stdout with
/// `tests/golden/paper_tables/<name>.txt`.
fn assert_table(name: &str, exe: &str, args: &[&str]) {
    let output = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
    assert!(
        output.status.success(),
        "{name} exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("tables are UTF-8");
    ppda_testkit::assert_golden(&format!("paper_tables/{name}.txt"), &stdout);
}

#[test]
fn fig1_table() {
    assert_table("fig1", env!("CARGO_BIN_EXE_fig1"), &["--iterations", "3"]);
}

#[test]
fn ablation_ntx_table() {
    assert_table(
        "ablation_ntx",
        env!("CARGO_BIN_EXE_ablation_ntx"),
        &["--iterations", "3"],
    );
}

#[test]
fn ablation_degree_table() {
    assert_table(
        "ablation_degree",
        env!("CARGO_BIN_EXE_ablation_degree"),
        &["--iterations", "3"],
    );
}

#[test]
fn ablation_faults_table() {
    assert_table(
        "ablation_faults",
        env!("CARGO_BIN_EXE_ablation_faults"),
        &["--iterations", "3"],
    );
}

#[test]
fn chain_sizes_table() {
    assert_table("chain_sizes", env!("CARGO_BIN_EXE_chain_sizes"), &[]);
}
