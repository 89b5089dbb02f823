//! Forward-progress regression tests for `Interconnect::next_activity`.
//!
//! The livelock class fixed in `BusNoc` (queued work reported at its
//! original submit cycle even though the medium is busy until later)
//! can silently return in any fabric: `drain_until_idle` advances to
//! `next_activity()` and expects that cycle to make progress, so a model
//! that reports a cycle where nothing can move spins in place until the
//! iteration bound trips. These tests drive every fabric with an
//! occupied resource — several same-cycle messages contending for one
//! link, output port, or bus — and assert the drain completes well
//! inside a small iteration budget with every message delivered exactly
//! once.

use nocstar_noc::circuit::{AcquireMode, CircuitFabric};
use nocstar_noc::hier::{HierNoc, InterKind, IntraKind};
use nocstar_noc::message::{Message, MsgKind};
use nocstar_noc::{drain_until_idle, BusNoc, Interconnect, MeshNoc};
use nocstar_types::{CoreId, Cycle, MeshShape};

/// Far more iterations than any healthy fabric needs for a handful of
/// messages, far fewer than a next-activity livelock would consume.
const MAX_ITERS: u64 = 10_000;

/// Submits `n` same-cycle messages that all funnel into the same
/// destination (occupying the same links / output port / medium), then
/// drains the fabric and checks exact delivery.
fn assert_forward_progress(noc: &mut dyn Interconnect, n: u64, label: &str) {
    assert_forward_progress_kind(noc, n, MsgKind::TlbRequest, label);
}

fn assert_forward_progress_kind(noc: &mut dyn Interconnect, n: u64, kind: MsgKind, label: &str) {
    let dst = CoreId::new(0);
    for id in 0..n {
        // All sources differ but every path converges on tile 0, so the
        // final hop (or the shared medium) is contended from cycle 0.
        let src = CoreId::new(1 + id as usize);
        noc.submit(Cycle::ZERO, Message::new(id, src, dst, kind));
    }
    let deliveries = drain_until_idle(noc, Cycle::ZERO, MAX_ITERS)
        .unwrap_or_else(|e| panic!("{label}: next_activity livelock: {e}"));
    assert_eq!(deliveries.len() as u64, n, "{label}: lost deliveries");
    let mut ids: Vec<u64> = deliveries.iter().map(|d| d.msg.id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..n).collect::<Vec<_>>(),
        "{label}: duplicate or missing ids"
    );
    for d in &deliveries {
        assert_eq!(d.msg.dst, dst, "{label}: misrouted message");
    }
    assert!(
        noc.next_activity().is_none(),
        "{label}: idle fabric still reports work"
    );
}

#[test]
fn bus_makes_progress_with_an_occupied_medium() {
    // The original bug: queued messages reported at their submit cycle
    // while the bus was held, so next_activity never advanced.
    let mut noc = BusNoc::new(MeshShape::square_for(16));
    assert_forward_progress(&mut noc, 8, "bus");
}

#[test]
fn contended_mesh_makes_progress_with_an_occupied_link() {
    let mut noc = MeshNoc::contended(MeshShape::square_for(16));
    assert_forward_progress(&mut noc, 8, "mesh");
}

#[test]
fn smart_makes_progress_with_an_occupied_link() {
    let mut noc = MeshNoc::smart(MeshShape::square_for(16), 8);
    assert_forward_progress(&mut noc, 8, "smart");
}

#[test]
fn circuit_makes_progress_with_an_occupied_path() {
    let mut noc = CircuitFabric::new(MeshShape::square_for(16), 8, AcquireMode::OneWay);
    assert_forward_progress(&mut noc, 8, "circuit/one-way");
    // Round-trip requests hold their reservation until the slice responds,
    // so the drain helper uses a one-way kind (inserts release on arrival)
    // to contend for the same paths without needing a response protocol.
    let mut noc = CircuitFabric::new(MeshShape::square_for(16), 8, AcquireMode::RoundTrip);
    assert_forward_progress_kind(&mut noc, 8, MsgKind::Insert, "circuit/round-trip");
}

#[test]
fn hier_bus_clusters_make_progress_with_an_occupied_gateway() {
    let mut noc = HierNoc::new(64, 16, IntraKind::Bus, InterKind::Mesh);
    assert_forward_progress(&mut noc, 8, "hier/bus");
}

#[test]
fn hier_xbar_clusters_make_progress_with_an_occupied_output_port() {
    let mut noc = HierNoc::new(64, 16, IntraKind::Xbar, InterKind::Smart(8));
    assert_forward_progress(&mut noc, 8, "hier/xbar");
}
