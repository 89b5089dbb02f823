//! Wall-clock timing for the simulation driver.
//!
//! Runs one fixed-seed configuration end to end and prints a single JSON
//! line with the best-of-`--reps` wall-clock time and the simulation
//! throughput (committed memory accesses — the simulator's unit of work —
//! per wall-clock second), plus the process's peak resident set over all
//! repetitions (`peak_rss_mb`, from `VmHWM` in `/proc/self/status`; `null`
//! where that is unavailable). `scripts/perf.sh` sweeps this binary over
//! the paper's fabrics and core counts and assembles
//! `bench_results/BENCH_perf.json`.
//!
//! Flags:
//!
//! * `--cores <n>` — core count (default 256).
//! * `--org <name>` — `ideal`, `distributed` (packet mesh), `smart`
//!   (monolithic over a SMART mesh), `nocstar` (circuit fabric) or `hier`
//!   (clustered bus + mesh overlay); default `distributed`.
//! * `--cluster-size <n>` — tiles per cluster for `--org hier`
//!   (default 16; must evenly divide `--cores`).
//! * `--warmup <n>` / `--measure <n>` — per-thread access counts
//!   (defaults 500 / 2000).
//! * `--reps <n>` — timed repetitions; the minimum is reported
//!   (default 3).

use nocstar::prelude::*;
use std::time::Instant;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_u64(args: &[String], name: &str, default: u64) -> u64 {
    match flag(args, name).map(|v| v.parse::<u64>()) {
        None => default,
        Some(Ok(n)) => n,
        Some(Err(e)) => {
            eprintln!("error: bad {name} value: {e}");
            std::process::exit(2);
        }
    }
}

/// [`flag_u64`] for a flag that cannot be zero: no cores, or no measured
/// accesses, leaves nothing to simulate.
fn flag_nonzero(args: &[String], name: &str, default: u64) -> u64 {
    let n = flag_u64(args, name, default);
    if n == 0 {
        eprintln!("error: {name} must be at least 1");
        std::process::exit(2);
    }
    n
}

/// Peak resident set in MiB as a JSON value: `VmHWM` from
/// `/proc/self/status`, or `null` where the kernel does not provide it.
fn peak_rss_mb() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kb: f64 = status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()?;
            Some(format!("{:.1}", kb / 1024.0))
        })
        .unwrap_or_else(|| "null".into())
}

fn parse_org(name: &str, cores: usize, cluster_size: usize) -> TlbOrg {
    match name {
        "ideal" => TlbOrg::paper_ideal(),
        "distributed" => TlbOrg::paper_distributed(),
        "smart" => TlbOrg::Monolithic {
            entries_per_core: 1024,
            banks: cores,
            net: MonolithicNet::Smart(8),
            latency_override: None,
        },
        "nocstar" => TlbOrg::paper_nocstar(),
        "hier" => TlbOrg::paper_hier(cluster_size),
        other => {
            eprintln!(
                "error: unknown --org {other:?} \
                 (expected ideal|distributed|smart|nocstar|hier)"
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cores = flag_nonzero(&args, "--cores", 256) as usize;
    let cluster_size = flag_u64(&args, "--cluster-size", 16) as usize;
    let org_name = flag(&args, "--org").unwrap_or_else(|| "distributed".into());
    let org = parse_org(&org_name, cores, cluster_size);
    let warmup = flag_u64(&args, "--warmup", 500);
    let measure = flag_nonzero(&args, "--measure", 2000);
    let reps = flag_u64(&args, "--reps", 3).max(1);
    let config = SystemConfig::new(cores, org);
    if let Err(problem) = config
        .check()
        .and_then(|()| config.check_quota(warmup, measure))
    {
        eprintln!("error: {problem}");
        std::process::exit(2);
    }

    let mut best_ms = f64::INFINITY;
    let mut cycles = 0u64;
    let mut accesses = 0u64;
    for _ in 0..reps {
        let config = SystemConfig::new(cores, org);
        let workload = WorkloadAssignment::preset(&config, Preset::Redis);
        let sim = Simulation::new(config, workload);
        let start = Instant::now();
        let report = sim.run_measured(warmup, measure);
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        cycles = report.cycles;
        accesses = report.accesses;
    }
    let events_per_sec = accesses as f64 / (best_ms / 1e3);
    let peak_rss_mb = peak_rss_mb();
    println!(
        "{{\"org\":\"{org_name}\",\"cores\":{cores},\
         \"warmup\":{warmup},\"measure\":{measure},\"reps\":{reps},\
         \"wall_ms\":{best_ms:.1},\"events_per_sec\":{events_per_sec:.0},\
         \"cycles\":{cycles},\"accesses\":{accesses},\
         \"peak_rss_mb\":{peak_rss_mb}}}"
    );
}
