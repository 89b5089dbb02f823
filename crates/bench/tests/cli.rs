//! Hostile command-line input to the single-run binaries: a zero or huge
//! core count, a zero measured-access count, an access quota whose totals
//! overflow or a configuration the simulator cannot build must be
//! rejected with an `error:` line and exit code 2, like any other bad flag
//! value, and never reach the simulator's internal assertions or
//! allocations.

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

#[test]
fn perf_rejects_cluster_sizes_that_do_not_partition_the_cores() {
    let perf = env!("CARGO_BIN_EXE_perf");
    assert_usage_error(perf, &["--org", "hier", "--cluster-size", "0"]);
    assert_usage_error(
        perf,
        &["--org", "hier", "--cluster-size", "3", "--cores", "16"],
    );
}

#[test]
fn perf_and_replay_reject_quotas_that_overflow() {
    let max = u64::MAX.to_string();
    let half = (u64::MAX / 2).to_string();
    for binary in [env!("CARGO_BIN_EXE_perf"), env!("CARGO_BIN_EXE_replay")] {
        // warmup + measure accesses per thread overflows.
        assert_usage_error(
            binary,
            &["--cores", "4", "--warmup", &max, "--measure", "1"],
        );
        assert_usage_error(binary, &["--cores", "4", "--measure", &max]);
        // measure times the four threads overflows.
        assert_usage_error(
            binary,
            &["--cores", "4", "--warmup", "0", "--measure", &half],
        );
    }
}

#[test]
fn perf_and_replay_reject_core_counts_past_the_trace_id_space() {
    let max = u64::MAX.to_string();
    for binary in [env!("CARGO_BIN_EXE_perf"), env!("CARGO_BIN_EXE_replay")] {
        for cores in ["65537", "100000", &max] {
            assert_usage_error(binary, &["--cores", cores, "--measure", "1"]);
        }
    }
}
