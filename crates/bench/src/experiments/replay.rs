//! Single-run driver for trace replay: runs one workload under one
//! organization and persists the full `SimReport` as JSON, so a replayed
//! `.nct` file (via `--trace-file`, see `TRACE_FORMAT.md`) can be diffed
//! byte-for-byte against the live-generator run it captured. The nightly
//! CI gate does exactly that; see `scripts/ci.sh`.
//!
//! Flags (besides the harness-wide `--quick`, `--trace-file`, `--faults`):
//!
//! * `--cores <n>` — core count (default 16).
//! * `--org <name>` — `private`, `monolithic`, `distributed`, `nocstar`
//!   or `ideal` (default `nocstar`).
//! * `--preset <name>` — workload by paper label (default `redis`); with
//!   `--trace-file` the address streams come from the file and this only
//!   names the fallback/labels.
//! * `--warmup <n>` / `--measure <n>` — override the effort's per-thread
//!   access counts.

use crate::{emit, out_dir, Effort};
use nocstar::prelude::*;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_count(args: &[String], flag: &str) -> Option<u64> {
    arg_value(args, flag).map(|v| match v.parse::<u64>() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: bad {flag} value {v:?}: {e}");
            std::process::exit(2);
        }
    })
}

/// [`parse_count`] for a flag that cannot be zero: no cores, or no
/// measured accesses, leaves nothing to simulate.
fn parse_nonzero(args: &[String], flag: &str) -> Option<u64> {
    let n = parse_count(args, flag);
    if n == Some(0) {
        eprintln!("error: {flag} must be at least 1");
        std::process::exit(2);
    }
    n
}

fn parse_org(name: &str, cores: usize) -> TlbOrg {
    match name {
        "private" => TlbOrg::paper_private(),
        "monolithic" => TlbOrg::paper_monolithic(cores),
        "distributed" => TlbOrg::paper_distributed(),
        "nocstar" => TlbOrg::paper_nocstar(),
        "ideal" => TlbOrg::paper_ideal(),
        other => {
            eprintln!(
                "error: unknown --org {other:?} \
                 (expected private|monolithic|distributed|nocstar|ideal)"
            );
            std::process::exit(2);
        }
    }
}

/// Runs the single configured simulation and persists its report.
pub fn run(effort: Effort) {
    let args: Vec<String> = std::env::args().collect();
    let cores = parse_nonzero(&args, "--cores").unwrap_or(16) as usize;
    let org = parse_org(
        &arg_value(&args, "--org").unwrap_or_else(|| "nocstar".into()),
        cores,
    );
    let preset_name = arg_value(&args, "--preset").unwrap_or_else(|| "redis".into());
    let preset = match Preset::from_name(&preset_name) {
        Some(p) => p,
        None => {
            eprintln!("error: unknown --preset {preset_name:?}");
            std::process::exit(2);
        }
    };
    let effort = Effort {
        warmup: parse_count(&args, "--warmup").unwrap_or(effort.warmup),
        accesses: parse_nonzero(&args, "--measure").unwrap_or(effort.accesses),
        ..effort
    };
    if let Err(problem) = SystemConfig::new(cores, org).check_quota(effort.warmup, effort.accesses)
    {
        eprintln!("error: {problem}");
        std::process::exit(2);
    }

    let report = effort.run(cores, org, preset);

    let mut table = Table::new(["metric", "value"]);
    table.row(["workload".to_string(), report.label.clone()]);
    table.row(["organization".to_string(), report.org_label.clone()]);
    table.row(["cores".to_string(), report.cores.to_string()]);
    table.row(["cycles".to_string(), report.cycles.to_string()]);
    table.row(["accesses".to_string(), report.accesses.to_string()]);
    table.row([
        "l1 hit rate".to_string(),
        format!("{:.4}", report.l1.hit_rate()),
    ]);
    table.row([
        "l2 hit rate".to_string(),
        format!("{:.4}", report.l2.hit_rate()),
    ]);
    table.row(["page walks".to_string(), report.walks.to_string()]);
    emit("replay", "Trace replay: single-run report", &table);

    let path = out_dir().join("replay.report.json");
    let mut text = report.to_json().to_string_pretty();
    text.push('\n');
    std::fs::write(&path, text).expect("write replay report");
    println!("(saved {})\n", path.display());
}
