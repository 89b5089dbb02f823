//! Hostile command-line input to the single-run binaries: a zero core
//! count or a zero measured-access count must be rejected with an
//! `error:` line and exit code 2, like any other bad flag value, and
//! never reach the simulator's internal assertions.

use std::process::Command;

/// Runs `binary` with `args` and returns (exit code, stderr).
fn run(binary: &str, args: &[&str]) -> (Option<i32>, String) {
    let out_dir = std::env::temp_dir().join(format!("nocstar-cli-test-{}", std::process::id()));
    let out = Command::new(binary)
        .args(args)
        .env("NOCSTAR_OUT", &out_dir)
        .env("NOCSTAR_QUICK", "1")
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(binary: &str, args: &[&str]) {
    let (code, stderr) = run(binary, args);
    assert_eq!(
        code,
        Some(2),
        "{binary} {args:?} must exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("error:"),
        "{binary} {args:?} must say what is wrong; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{binary} {args:?} must not panic; stderr:\n{stderr}"
    );
}

#[test]
fn replay_rejects_zero_cores_and_zero_measure() {
    let replay = env!("CARGO_BIN_EXE_replay");
    assert_usage_error(replay, &["--cores", "0"]);
    assert_usage_error(replay, &["--measure", "0"]);
    assert_usage_error(replay, &["--warmup", "abc"]);
}

#[test]
fn perf_rejects_zero_cores_and_zero_measure() {
    let perf = env!("CARGO_BIN_EXE_perf");
    assert_usage_error(perf, &["--cores", "0"]);
    assert_usage_error(perf, &["--measure", "0"]);
    assert_usage_error(perf, &["--warmup", "abc"]);
}
