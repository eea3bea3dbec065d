//! The `frac` binary's exit codes and streams: usage errors exit 2 with the
//! usage text on stderr, run errors exit 1, and `help` prints the usage
//! text to stdout.

use std::process::{Command, Output};

fn frac(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_frac")).args(args).output().unwrap()
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).unwrap()
}

/// The usage text, as `frac help` prints it.
fn usage() -> String {
    let help = frac(&["help"]);
    assert_eq!(help.status.code(), Some(0));
    text(&help.stdout)
}

#[test]
fn help_prints_the_usage_text_to_stdout() {
    let usage = usage();
    assert!(usage.starts_with("frac — FRaC anomaly detection"), "{usage}");
    assert!(usage.contains("USAGE:"), "{usage}");
}

#[test]
fn usage_errors_exit_2_with_the_usage_text() {
    let usage = usage();
    let run = frac(&["train", "--bogus"]);
    assert_eq!(run.status.code(), Some(2));
    let stderr = text(&run.stderr);
    assert!(stderr.starts_with("error: unknown flag `--bogus` for train"), "{stderr}");
    assert!(stderr.contains(&usage), "{stderr}");
    // An unknown variant is refused before either input is opened.
    let run = frac(&[
        "score",
        "--train",
        "/nonexistent/a.tsv",
        "--test",
        "/nonexistent/b.tsv",
        "--variant",
        "bogus",
    ]);
    assert_eq!(run.status.code(), Some(2));
    let stderr = text(&run.stderr);
    assert!(stderr.starts_with("error: unknown score variant `bogus`"), "{stderr}");
    assert!(stderr.contains(&usage), "{stderr}");
}

#[test]
fn score_with_a_saved_model_refuses_fit_flags_before_reading_input() {
    // Neither file exists: the refusal comes from the flags alone.
    let run = frac(&[
        "score",
        "--model",
        "/nonexistent/m.frac",
        "--test",
        "/nonexistent/b.tsv",
        "--snp",
    ]);
    assert_eq!(run.status.code(), Some(2));
    let stderr = text(&run.stderr);
    assert!(
        stderr.starts_with("error: score --model takes no --snp"),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

#[test]
fn run_errors_exit_1_naming_the_input() {
    let run = frac(&["train", "--train", "/nonexistent/a.tsv", "--out", "x"]);
    assert_eq!(run.status.code(), Some(1));
    let stderr = text(&run.stderr);
    assert!(stderr.starts_with("error: /nonexistent/a.tsv"), "{stderr}");
    assert!(!stderr.contains("USAGE:"), "{stderr}");
}
