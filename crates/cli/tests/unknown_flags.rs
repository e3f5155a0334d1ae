//! The real binary refuses flags it does not know, instead of running
//! with the default configuration: exit code 2, and the message names
//! the offending flag.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sierra-cli"))
        .args(args)
        .output()
        .expect("sierra-cli runs")
}

fn assert_rejected(args: &[&str], named: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(named),
        "{args:?} must name {named}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} must not run: {stderr}");
}

#[test]
fn removed_and_misspelt_flags_are_rejected() {
    assert_rejected(
        &["analyze", "Astrid", "--refute-jobs", "4"],
        "--refute-jobs",
    );
    assert_rejected(&["analyze", "Astrid", "--worklist", "fifo"], "--worklist");
    assert_rejected(&["table3", "--no-shared-intern"], "--no-shared-intern");
    assert_rejected(&["table3", "--no-artifact-cache"], "--no-artifact-cache");
    assert_rejected(&["table4", "--no-cycle-collapse"], "--no-cycle-collapse");
    assert_rejected(&["analyze", "Astrid", "--no-prefiltr"], "--no-prefiltr");
    assert_rejected(&["analyze", "Astrid", "--bogus-flag", "3"], "--bogus-flag");
}

#[test]
fn subcommand_flags_are_checked() {
    assert_rejected(&["table5", "--apps", "abc"], "--apps");
    assert_rejected(&["table5", "--apps"], "--apps");
    // A subcommand's own flag is unknown to every other subcommand.
    assert_rejected(&["table3", "--apps", "4"], "--apps");
    assert_rejected(&["table3", "--socket", "/tmp/s"], "--socket");
}

#[test]
fn help_still_works() {
    for flag in ["--help", "-h", "help"] {
        let out = run(&[flag]);
        assert!(out.status.success(), "{flag}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage:"));
    }
}
