//! Pins the contended mesh and SMART flit-stepping engines to exact
//! output under seeded uniform-random traffic.
//!
//! Each case drives [`run_uniform_random`] through one fabric under one
//! fault setup, recording every delivery `(id, at)` in the order
//! `advance` returned it, and compares FNV-1a digests of that log and of
//! the final `NocStats`, `FaultStats` and `RecoveryStats` (their `Debug`
//! forms) against captured values, so a change to arbitration order, the
//! per-cycle claim rule, the outage ladder (reroute, backoff, escape) or
//! degradation accounting shows up as a moved digest.
//!
//! The three fault setups are: no faults; an all-link outage window, a
//! later single-link outage window, one degraded link and a six-attempt
//! retry budget under `RecoveryPolicy::all()` (escalation and detours);
//! and the same plan with no policy (the plan's own backoff/escape
//! ladder).

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] functions may panic on setup failure"
)]

use nocstar_faults::{FaultPlan, RecoveryPolicy};
use nocstar_noc::message::{Delivery, Message};
use nocstar_noc::traffic::run_uniform_random;
use nocstar_noc::{Interconnect, MeshNoc, NocStats};
use nocstar_types::{Cycle, MeshShape};
use std::fmt::Write as _;

const PLAN: &str = "link:*@300-700=off; link:3@900-1300=off; link:5@0-100000=+2; retry=6";

/// Forwards to `inner` and logs every delivery.
struct Recorder<N> {
    inner: N,
    log: String,
}

impl<N: Interconnect> Interconnect for Recorder<N> {
    fn submit(&mut self, now: Cycle, msg: Message) {
        self.inner.submit(now, msg);
    }

    fn advance(&mut self, cycle: Cycle) -> Vec<Delivery> {
        let out = self.inner.advance(cycle);
        for d in &out {
            let _ = write!(self.log, "{}@{};", d.msg.id, d.at.value());
        }
        out
    }

    fn next_activity(&self) -> Option<Cycle> {
        self.inner.next_activity()
    }

    fn stats(&self) -> &NocStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[derive(Clone, Copy)]
enum Setup {
    Clean,
    Recovered,
    OpenLoop,
}

/// Runs one case; returns the delivery count and the digests of the
/// delivery log, `NocStats`, `FaultStats` and `RecoveryStats`.
fn run<N: Interconnect>(mut noc: N, setup: Setup) -> (u64, [u64; 4]) {
    let shape = MeshShape::square_for(64);
    if !matches!(setup, Setup::Clean) {
        noc.install_faults(FaultPlan::parse(PLAN).expect("valid plan"));
    }
    if matches!(setup, Setup::Recovered) {
        noc.install_recovery(RecoveryPolicy::all());
    }
    let mut rec = Recorder {
        inner: noc,
        log: String::new(),
    };
    let report = run_uniform_random(&mut rec, shape, 0.04, 1500, 19);
    assert_eq!(report.delivered, report.injected, "a message was lost");
    let stats = format!("{:?}", rec.inner.stats());
    let faults = format!("{:?}", rec.inner.fault_stats());
    let recovery = format!("{:?}", rec.inner.recovery_stats());
    (
        report.delivered,
        [
            fnv64(&rec.log),
            fnv64(&stats),
            fnv64(&faults),
            fnv64(&recovery),
        ],
    )
}

fn mesh() -> MeshNoc {
    MeshNoc::contended(MeshShape::square_for(64))
}

fn smart(hpc_max: usize) -> MeshNoc {
    MeshNoc::smart(MeshShape::square_for(64), hpc_max)
}

fn check(label: &str, actual: (u64, [u64; 4]), expected: (u64, [u64; 4])) {
    let hex = |d: [u64; 4]| d.map(|x| format!("{x:016x}")).join(" ");
    assert_eq!(
        (actual.0, hex(actual.1)),
        (expected.0, hex(expected.1)),
        "{label}: fabric output drifted"
    );
}

const CLEAN_FAULTS: u64 = 0xcbb8_f9b4_8768_15dc;
const NO_RECOVERY: u64 = 0xaf8d_a08a_b747_a940;

#[test]
fn contended_mesh_is_pinned() {
    let cases = [
        (
            "mesh/clean",
            Setup::Clean,
            [
                0x4df9_3f62_4f76_2f64,
                0x7f9a_a185_d506_370f,
                CLEAN_FAULTS,
                NO_RECOVERY,
            ],
        ),
        (
            "mesh/recovered",
            Setup::Recovered,
            [
                0x2c7b_62e1_4c10_8df9,
                0x06a9_1869_696a_b881,
                0xcb7c_72c2_4f4b_3835,
                0x0ef0_0c50_1e39_206d,
            ],
        ),
        (
            "mesh/open-loop",
            Setup::OpenLoop,
            [
                0x6f33_e531_94b8_c788,
                0x42a4_99c3_bca0_dd89,
                0xa080_7376_5e03_829e,
                NO_RECOVERY,
            ],
        ),
    ];
    for (label, setup, digests) in cases {
        check(label, run(mesh(), setup), (3862, digests));
    }
}

#[test]
fn smart_hpc1_is_pinned() {
    let cases = [
        (
            "smart1/clean",
            Setup::Clean,
            [
                0x0034_a4ab_5d31_73d8,
                0xa335_9d98_cef7_6200,
                CLEAN_FAULTS,
                NO_RECOVERY,
            ],
        ),
        (
            "smart1/recovered",
            Setup::Recovered,
            [
                0x06a1_ad95_2bfd_b099,
                0xba81_be33_0749_26d4,
                0x2479_e85a_8e98_6457,
                0x8fa7_8521_cc20_3018,
            ],
        ),
        (
            "smart1/open-loop",
            Setup::OpenLoop,
            [
                0xf091_8ddd_b43f_31f6,
                0xa317_eefc_4250_d0d1,
                0x8f2b_5252_e7a9_e2b3,
                NO_RECOVERY,
            ],
        ),
    ];
    for (label, setup, digests) in cases {
        check(label, run(smart(1), setup), (3862, digests));
    }
}

#[test]
fn smart_hpc8_is_pinned() {
    let cases = [
        (
            "smart8/clean",
            Setup::Clean,
            [
                0x8e95_4e2c_2a40_5851,
                0x65b8_69aa_c7d4_7212,
                CLEAN_FAULTS,
                NO_RECOVERY,
            ],
        ),
        (
            "smart8/recovered",
            Setup::Recovered,
            [
                0x2a4c_6310_cb7c_d1a9,
                0x9e05_6f77_f884_8b7e,
                0xba2d_45c3_45d5_0420,
                0xfee3_be0e_8a35_a486,
            ],
        ),
        (
            "smart8/open-loop",
            Setup::OpenLoop,
            [
                0xc90a_2fa9_2063_9d19,
                0xf76f_d6ba_293f_0f9d,
                0x8a41_b17c_fc5c_2e48,
                NO_RECOVERY,
            ],
        ),
    ];
    for (label, setup, digests) in cases {
        check(label, run(smart(8), setup), (3862, digests));
    }
}
