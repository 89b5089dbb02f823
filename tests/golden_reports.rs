//! Golden-report regression harness.
//!
//! One small, fixed simulation per L2 organization is serialized to JSON
//! and compared byte-for-byte against a checked-in snapshot under
//! `tests/golden/`. Any change to simulated timing, statistics, metric
//! names, or the serialization format shows up as a readable diff here.
//!
//! To bless intentional changes, regenerate the snapshots with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! and review the resulting `tests/golden/*.json` diff like any other
//! code change.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] functions may panic on setup failure"
)]

use nocstar::prelude::*;
use std::path::PathBuf;

const CORES: usize = 4;
const WARMUP: u64 = 200;
const MEASURE: u64 = 500;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The small redis simulation every snapshot runs, for one organization.
fn small_sim(org: TlbOrg) -> Simulation {
    sim_with_cores(CORES, org)
}

/// [`small_sim`] on `cores` tiles.
fn sim_with_cores(cores: usize, org: TlbOrg) -> Simulation {
    let mut config = SystemConfig::new(cores, org);
    config.metrics = true;
    // A tiny ring keeps the snapshot readable while still pinning the
    // trace serialization format and the drop accounting.
    config.trace_capacity = 32;
    let workload = WorkloadAssignment::preset(&config, Preset::Redis);
    Simulation::new(config, workload)
}

fn check_golden(name: &str, org: TlbOrg) {
    check_report(name, small_sim(org));
}

/// Runs `sim` for the fixed warmup/measure window and compares its JSON
/// report against `tests/golden/<name>.json`.
fn check_report(name: &str, sim: Simulation) {
    let mut actual = sim
        .run_measured(WARMUP, MEASURE)
        .to_json()
        .to_string_pretty();
    actual.push('\n');
    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v != "0") {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &actual).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run UPDATE_GOLDEN=1 \
             cargo test --test golden_reports to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "report for `{name}` drifted from {}; if intentional, regenerate \
         with UPDATE_GOLDEN=1 cargo test --test golden_reports",
        path.display()
    );
}

#[test]
fn golden_private() {
    check_golden("private", TlbOrg::paper_private());
}

#[test]
fn golden_monolithic() {
    check_golden("monolithic", TlbOrg::paper_monolithic(CORES));
}

#[test]
fn golden_distributed() {
    check_golden("distributed", TlbOrg::paper_distributed());
}

#[test]
fn golden_nocstar() {
    check_golden("nocstar", TlbOrg::paper_nocstar());
}

#[test]
fn golden_ideal() {
    check_golden("ideal", TlbOrg::paper_ideal());
}

#[test]
fn golden_hier() {
    // Two clusters of two tiles. Homing is cluster-local and no
    // shootdown lands in the window, so every message stays on its
    // cluster bus (`network.grants` is 0); `golden_hier_faulted` pins the
    // overlay legs.
    check_golden("hier", TlbOrg::paper_hier(2));
}

#[test]
fn golden_recovery() {
    // A faulted distributed run under the full recovery policy: pins the
    // recovery.* metric names, the detect→recovered percentiles, and the
    // exact closed-loop timing. The plan keeps one slice offline across
    // the measurement window and kills every link briefly, so re-homing,
    // re-routing/escalation, and the handoff path all leave fingerprints.
    let plan = FaultPlan::parse("link:*@26000-27500=off; slice:1@24000-40000").expect("valid plan");
    check_report(
        "recovery",
        small_sim(TlbOrg::paper_distributed())
            .with_faults(plan)
            .with_recovery(RecoveryPolicy::all()),
    );
}

#[test]
fn golden_nocstar_round_trip() {
    // Round-trip acquire: requests reserve forward and reverse paths, and
    // responses travel over the reservation without arbitrating.
    check_golden(
        "nocstar_round_trip",
        TlbOrg::Nocstar {
            slice_entries: 920,
            hpc_max: 16,
            acquire: AcquireMode::RoundTrip,
            ideal_fabric: false,
        },
    );
}

#[test]
fn golden_nocstar_faulted() {
    // The circuit fabric's fault ladder under the full recovery policy:
    // setup denial and an all-link outage drive fault-blocked retries,
    // backoff, escalation and escapes to the buffered fallback, and a
    // degraded link stretches granted traversals.
    let plan = FaultPlan::parse("deny@30000-30300; link:*@36000-36500=off; link:2@0-100000=+2")
        .expect("valid plan");
    check_report(
        "nocstar_faulted",
        small_sim(TlbOrg::paper_nocstar())
            .with_faults(plan)
            .with_recovery(RecoveryPolicy::all()),
    );
}

#[test]
fn golden_monolithic_smart() {
    // Monolithic banks reached over the SMART bypass mesh (Fig 15's
    // monolithic-SMART series): pins SA-G setup and multi-hop bypass
    // timing inside a full simulation.
    check_golden(
        "monolithic_smart",
        TlbOrg::Monolithic {
            entries_per_core: 1024,
            banks: 4,
            net: MonolithicNet::Smart(8),
            latency_override: None,
        },
    );
}

#[test]
fn golden_hier_faulted() {
    // Sixteen tiles in clusters of four: a 2x2 overlay, so a dead overlay
    // link leaves a detour. Cluster 1 is offline for the whole run, so
    // its slices re-home across the overlay; one overlay link is down and
    // another degraded throughout, and every overlay link is down
    // briefly. Under the full recovery policy, detours, escalations,
    // escapes and degraded traversals all leave fingerprints.
    let plan = FaultPlan::parse(
        "cluster:1/4@0-100000000; link:1@0-100000000=off; link:2@0-100000000=+1; \
         link:*@20000-20400=off",
    )
    .expect("valid plan");
    check_report(
        "hier_faulted",
        sim_with_cores(16, TlbOrg::paper_hier(4))
            .with_faults(plan)
            .with_recovery(RecoveryPolicy::all()),
    );
}
