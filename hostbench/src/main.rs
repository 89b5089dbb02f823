//! One benchmark repetition in a fresh process.
//!
//! `run.py` starts this binary once per repetition, so every repetition's
//! set-up time and peak RSS (`VmHWM`) belong to that repetition alone.
//!
//! ```text
//! hostbench run   --workload <name> --seed <n>
//! hostbench trace --workload <name> --seed <n> --untraced-run-s <secs>
//! hostbench reference
//! ```
//!
//! `run` builds the workload's simulation, runs it untraced and prints one
//! JSON line: host set-up and run seconds, simulated accesses, peak RSS,
//! the FNV-64 digest of `SimReport::to_json()` and the output check.
//! `trace` runs the same simulation once for its report, then the
//! benchmark's own traced replay (`traced.rs`), and prints the per-layer
//! metrics as one JSON line. `reference` times a fixed kernel that
//! `run.py` uses to correct for the host's speed. Host times are
//! wall-clock seconds on the machine running the benchmark; simulated
//! times are in cycles.

mod traced;

use nocstar::prelude::*;
use std::time::Instant;

/// How a workload drives the simulator.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// `run_measured(warmup, measure)`: every access detailed.
    Exact { warmup: u64, measure: u64 },
    /// `run_sampled(spec, span)`: functional fast-forward between windows.
    Sampled { spec: SampleSpec, span: u64 },
}

/// One benchmark workload: a configuration, a preset and a run mode.
#[derive(Debug, Clone, Copy)]
struct Workload {
    cores: usize,
    org: TlbOrg,
    preset: Preset,
    mode: Mode,
}

impl Workload {
    /// The workload named `name`; see `README.md` for why each exists.
    fn by_name(name: &str) -> Option<Self> {
        let (cores, org, preset, mode) = match name {
            "circuit-redis-256" => (
                256,
                TlbOrg::paper_nocstar(),
                Preset::Redis,
                Mode::Exact {
                    warmup: 300,
                    measure: 1200,
                },
            ),
            "private-gups-256" => (
                256,
                TlbOrg::paper_private(),
                Preset::Gups,
                Mode::Exact {
                    warmup: 500,
                    measure: 2000,
                },
            ),
            "hier-redis-1024" => (
                1024,
                TlbOrg::paper_hier(16),
                Preset::Redis,
                Mode::Exact {
                    warmup: 100,
                    measure: 400,
                },
            ),
            "sampled-redis-256" => (
                256,
                TlbOrg::paper_distributed(),
                Preset::Redis,
                Mode::Sampled {
                    spec: "2000:100:50@7"
                        .parse()
                        .expect("the fixed sample spec parses"),
                    span: 10_000,
                },
            ),
            _ => return None,
        };
        Some(Self {
            cores,
            org,
            preset,
            mode,
        })
    }

    /// The system configuration for this workload and seed: one
    /// simulation domain, everything else at the paper defaults.
    fn config(&self, seed: u64) -> SystemConfig {
        let mut config = SystemConfig::new(self.cores, self.org);
        config.seed = seed;
        config.parallel_domains = 1;
        config
    }
}

/// FNV-1a, 64 bit: a stable digest of a report's JSON text.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The result of one untraced simulation: the report, or why it failed.
struct Outcome {
    setup_s: f64,
    run_s: f64,
    /// Every access the run simulated: warmup, measured and fast-forward.
    sim_accesses: u64,
    report: Result<SimReport, String>,
}

/// Sets up and runs `w` untraced, timing set-up and run separately, and
/// applies the output check on the report's access counts.
fn run_once(w: &Workload, seed: u64) -> Outcome {
    let setup = Instant::now();
    let config = w.config(seed);
    let workload = WorkloadAssignment::preset(&config, w.preset);
    let sim = Simulation::new(config, workload);
    let setup_s = setup.elapsed().as_secs_f64();
    let threads = config.threads() as u64;
    let run = Instant::now();
    let result = match w.mode {
        Mode::Exact { warmup, measure } => sim.try_run_measured(warmup, measure),
        Mode::Sampled { spec, span } => sim.try_run_sampled(spec, span),
    };
    let run_s = run.elapsed().as_secs_f64();
    let (sim_accesses, report) = match result {
        Err(abort) => (0, Err(format!("SimAbort: {}", abort.error))),
        Ok(report) => match check(w, threads, &report) {
            Ok(total) => (total, Ok(report)),
            Err(why) => (0, Err(why)),
        },
    };
    Outcome {
        setup_s,
        run_s,
        sim_accesses,
        report,
    }
}

/// The output check: the report covers exactly the quota the mode asked
/// for. Returns every access simulated, for the throughput metric.
fn check(w: &Workload, threads: u64, report: &SimReport) -> Result<u64, String> {
    let (expected, total) = match w.mode {
        Mode::Exact { warmup, measure } => (threads * measure, threads * (warmup + measure)),
        Mode::Sampled { spec, span } => {
            let s = report
                .sampling
                .as_ref()
                .ok_or("sampled run returned no sampling section")?;
            let detailed = threads * spec.detailed_accesses(span);
            if s.accesses_detailed != detailed {
                return Err(format!(
                    "sampled run detailed {} accesses, spec places {detailed}",
                    s.accesses_detailed
                ));
            }
            (
                threads * spec.windows(span) * spec.window(),
                s.accesses_detailed + s.accesses_fast_forwarded,
            )
        }
    };
    if report.accesses != expected {
        return Err(format!(
            "report.accesses is {}, expected {expected}",
            report.accesses
        ));
    }
    Ok(total)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn cmd_run(name: &str, w: &Workload, seed: u64) -> Result<(), String> {
    let o = run_once(w, seed);
    let rss = peak_rss_mb()?;
    let (ok, digest, error) = match &o.report {
        Ok(r) => (
            true,
            fnv64(r.to_json().to_string().as_bytes()),
            String::new(),
        ),
        Err(e) => (false, 0, e.clone()),
    };
    println!(
        "{{\"workload\":{},\"seed\":{seed},\"ok\":{ok},\"error\":{},\
         \"setup_s\":{},\"run_s\":{},\"sim_accesses\":{},\
         \"peak_rss_mb\":{rss},\"report_fnv64\":\"{digest:016x}\"}}",
        json_str(name),
        json_str(&error),
        o.setup_s,
        o.run_s,
        o.sim_accesses,
    );
    Ok(())
}

fn cmd_trace(name: &str, w: &Workload, seed: u64, untraced_run_s: f64) -> Result<(), String> {
    if untraced_run_s <= 0.0 {
        return Err("--untraced-run-s must be positive".into());
    }
    let o = run_once(w, seed);
    let report = o.report?;
    let digest = fnv64(report.to_json().to_string().as_bytes());
    let profile = traced::profile(w, seed, &report)?;
    let metrics = profile.metrics(untraced_run_s);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("{}:{value}", json_str(name)))
        .collect();
    println!(
        "{{\"workload\":{},\"seed\":{seed},\"ok\":true,\"report_fnv64\":\"{digest:016x}\",\
         \"metrics\":{{{}}}}}",
        json_str(name),
        body.join(",")
    );
    Ok(())
}

/// Host seconds for a fixed amount of work that no simulator change can
/// alter: zeroed memory faulted in on first touch, then random
/// read-modify-writes across it. The simulator's cache arrays make the
/// same two demands of the host, so this time tracks how fast the host
/// is running for the simulator at the moment it is measured.
fn reference_kernel_s() -> f64 {
    const WORDS: usize = 16 << 20;
    const STEPS: usize = 3 << 20;
    let start = Instant::now();
    let mut table = vec![0u64; WORDS];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x % WORDS as u64) as usize;
        table[i] = table[i].wrapping_add(x) | 1;
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64()
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let result = (|| {
        let cmd = args.get(1).map(String::as_str).unwrap_or("");
        if cmd == "reference" {
            println!("{{\"ok\":true,\"reference_s\":{}}}", reference_kernel_s());
            return Ok(());
        }
        let name = flag(&args, "--workload").ok_or("missing --workload")?;
        let w = Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let seed: u64 = flag(&args, "--seed")
            .ok_or("missing --seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?;
        match cmd {
            "run" => cmd_run(name, &w, seed),
            "trace" => {
                let run_s: f64 = flag(&args, "--untraced-run-s")
                    .ok_or("missing --untraced-run-s")?
                    .parse()
                    .map_err(|e| format!("bad --untraced-run-s: {e}"))?;
                cmd_trace(name, &w, seed, run_s)
            }
            other => Err(format!("unknown command {other:?} (expected run or trace)")),
        }
    })();
    if let Err(e) = result {
        eprintln!("hostbench: {e}");
        std::process::exit(1);
    }
}
