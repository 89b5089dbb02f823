//! The multi-hop mesh NoCs: the traditional mesh and the SMART bypass
//! mesh of Table I.
//!
//! Every flavour routes XY over the same directed links; what differs is
//! the rule by which a flit claims links each cycle:
//!
//! * **contention-free** — every message sails through at 2 cycles/hop
//!   (one router cycle plus one link cycle). This is the generous
//!   baseline the paper grants the `distributed` configuration ("we
//!   place enough buffers and links in the system to prevent link
//!   contention", §IV); it is an analytic path with no flits.
//! * **contended mesh** — flits arbitrate per directed link each cycle
//!   (oldest first) and a granted flit holds its link for 2 cycles; the
//!   loser stalls. This is the mesh that Fig 11(c) loads with synthetic
//!   traffic.
//! * **SMART** (Krishna et al., HPCA 2013) — after a one-cycle setup
//!   (SA-G), a flit covers up to `HPCmax` hops per cycle as long as the
//!   links along the run are not claimed by another flit that cycle; on
//!   contention it latches at the blocking router and continues next
//!   cycle. Unlike NOCSTAR, bypass runs are opportunistic: partial
//!   progress is made rather than retrying the whole path.
//!
//! The two contended rules share one flit engine, including the outage
//! ladder: detour (with a re-routing policy), deterministic backoff, and
//! finally the buffered escape path, so no flit is ever lost.

use crate::message::{Delivery, Message};
use crate::topology::Links;
use crate::{Interconnect, NocStats};
use nocstar_faults::{
    DiagSnapshot, FaultPlan, FaultStats, LinkState, PendingMessage, RecoveryPolicy, RecoveryStats,
};
use nocstar_types::time::{Cycle, Cycles};
use nocstar_types::{Coord, CoreId, MeshShape};
use std::collections::{BTreeSet, BinaryHeap};

/// Cycles per hop: one for the router, one for the link.
pub const CYCLES_PER_HOP: u64 = 2;

/// How a message claims links: the only fabric-specific rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// No flits: latency is `CYCLES_PER_HOP x hops` plus fault delays.
    ContentionFree,
    /// One link per grant, held for `CYCLES_PER_HOP` cycles.
    Hop,
    /// One SA-G setup cycle, then up to `hpc_max` links per cycle.
    Bypass { hpc_max: usize },
}

#[derive(Debug, Clone)]
struct Flight {
    msg: Message,
    tiles: Vec<Coord>,
    pos: usize,
    ready_at: Cycle,
    submitted_at: Cycle,
    /// The SA-G setup cycle is still ahead (SMART only).
    needs_setup: bool,
    stalled: bool,
    fault_attempts: u64,
    // First cycle an outage blocked this flight (recovery's detect time);
    // cleared once a detour departs.
    blocked_at: Option<Cycle>,
    /// Handed to the delivery queue this cycle; dropped after the pass.
    done: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: Cycle,
    seq: u64,
    msg: Message,
    submitted_at: Cycle,
    stalled: bool,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The mesh network model (traditional or SMART; see the module docs).
///
/// # Examples
///
/// ```
/// use nocstar_noc::mesh::{MeshNoc, CYCLES_PER_HOP};
/// use nocstar_noc::message::{Message, MsgKind};
/// use nocstar_noc::Interconnect;
/// use nocstar_types::{CoreId, Cycle, MeshShape};
///
/// let mut mesh = MeshNoc::contention_free(MeshShape::new(4, 4));
/// mesh.submit(Cycle::ZERO, Message::new(1, CoreId::new(0), CoreId::new(15), MsgKind::TlbRequest));
/// let d = mesh.advance(Cycle::new(12));
/// assert_eq!(d[0].at, Cycle::new(6 * CYCLES_PER_HOP)); // 6 hops
///
/// let mut smart = MeshNoc::smart(MeshShape::new(8, 8), 8);
/// smart.submit(Cycle::ZERO, Message::new(1, CoreId::new(0), CoreId::new(63), MsgKind::TlbRequest));
/// let mut d = Vec::new();
/// for c in 0..4 {
///     d.extend(smart.advance(Cycle::new(c)));
/// }
/// // 14 hops at HPCmax=8: 1 setup + 2 bypass cycles.
/// assert_eq!(d[0].at, Cycle::new(3));
/// ```
#[derive(Debug, Clone)]
pub struct MeshNoc {
    links: Links,
    rule: Rule,
    flights: Vec<Flight>,
    scheduled: BinaryHeap<Scheduled>,
    seq: u64,
    stats: NocStats,
    faults: FaultPlan,
    fstats: FaultStats,
    recovery: RecoveryPolicy,
    rstats: RecoveryStats,
}

impl MeshNoc {
    fn with_rule(mesh: MeshShape, rule: Rule) -> Self {
        let links = Links::new(mesh);
        Self {
            stats: NocStats::with_links(links.count()),
            links,
            rule,
            flights: Vec::new(),
            scheduled: BinaryHeap::new(),
            seq: 0,
            faults: FaultPlan::default(),
            fstats: FaultStats::default(),
            recovery: RecoveryPolicy::default(),
            rstats: RecoveryStats::default(),
        }
    }

    /// A mesh with per-link contention (used under synthetic load).
    pub fn contended(mesh: MeshShape) -> Self {
        Self::with_rule(mesh, Rule::Hop)
    }

    /// The paper's idealized mesh: enough buffering that no message ever
    /// stalls; latency is purely `2 x hops`.
    pub fn contention_free(mesh: MeshShape) -> Self {
        Self::with_rule(mesh, Rule::ContentionFree)
    }

    /// A SMART bypass mesh with the given maximum hops per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `hpc_max` is zero.
    pub fn smart(mesh: MeshShape, hpc_max: usize) -> Self {
        assert!(hpc_max > 0, "HPCmax must be at least 1");
        Self::with_rule(mesh, Rule::Bypass { hpc_max })
    }

    /// The mesh shape this network spans.
    pub fn mesh(&self) -> MeshShape {
        self.links.mesh()
    }

    /// Zero-load latency of a `src -> dst` message under this network's
    /// claim rule: `CYCLES_PER_HOP` per hop on the mesh, or the SA-G
    /// setup cycle plus one cycle per `HPCmax` hops on SMART. A local
    /// message costs nothing.
    pub(crate) fn uncontended_latency(&self, src: CoreId, dst: CoreId) -> Cycles {
        let hops = self.links.mesh().hops(src, dst) as u64;
        Cycles::new(match self.rule {
            _ if hops == 0 => 0,
            Rule::Bypass { hpc_max } => 1 + hops.div_ceil(hpc_max as u64),
            Rule::ContentionFree | Rule::Hop => CYCLES_PER_HOP * hops,
        })
    }

    fn schedule(&mut self, msg: Message, at: Cycle, submitted_at: Cycle, stalled: bool) {
        self.seq += 1;
        self.scheduled.push(Scheduled {
            at,
            seq: self.seq,
            msg,
            submitted_at,
            stalled,
        });
    }

    fn step_flights(&mut self, cycle: Cycle) {
        if self.flights.is_empty() {
            return;
        }
        // Links one grant may claim, and the cycles a grant takes.
        let (bypass, max_run, grant_cycles) = match self.rule {
            Rule::Bypass { hpc_max } => (true, hpc_max, 1),
            Rule::ContentionFree | Rule::Hop => (false, 1, CYCLES_PER_HOP),
        };
        // Oldest-first arbitration per directed link.
        let mut order: Vec<usize> = (0..self.flights.len())
            .filter(|&i| self.flights[i].ready_at <= cycle)
            .collect();
        order.sort_by_key(|&i| (self.flights[i].submitted_at, self.flights[i].msg.id));

        let mut claimed: BTreeSet<usize> = BTreeSet::new();
        let now = cycle.value();
        for &i in &order {
            if self.flights[i].needs_setup {
                // SA-G: the setup request propagates this cycle.
                let f = &mut self.flights[i];
                f.needs_setup = false;
                f.ready_at = cycle + Cycles::ONE;
                continue;
            }
            // Claim consecutive free, non-outaged links, up to `max_run`.
            // Degraded links stay claimable but add their penalty. Links
            // are claimed as the run grows, which relies on a flight's
            // remaining path (XY or a detour) never repeating a link.
            let (run, penalty, outaged) = {
                let f = &self.flights[i];
                let remaining = f.tiles.len() - 1 - f.pos;
                let (mut run, mut penalty, mut outaged) = (0usize, 0u64, false);
                while run < remaining && run < max_run {
                    let from = f.tiles[f.pos + run];
                    let to = f.tiles[f.pos + run + 1];
                    let link = self.links.link_between(from, to).index();
                    if claimed.contains(&link) {
                        break;
                    }
                    let extra = if self.faults.is_empty() {
                        0
                    } else if self.faults.link_outage(link, now) {
                        outaged = run == 0;
                        break;
                    } else {
                        self.faults.link_degrade(link, now)
                    };
                    claimed.insert(link);
                    // A mesh grant holds its link for the whole (possibly
                    // degraded) traversal; a bypass run counts one cycle
                    // per link.
                    self.stats.link_busy[link] += if bypass { 1 } else { grant_cycles + extra };
                    penalty += extra;
                    run += 1;
                }
                (run, penalty, outaged)
            };
            if outaged {
                self.on_outage(i, cycle);
                continue;
            }
            if run == 0 {
                // Lost arbitration for the next link: stall a cycle.
                let f = &mut self.flights[i];
                f.ready_at = cycle + Cycles::ONE;
                f.stalled = true;
                self.stats.retries += 1;
                continue;
            }
            self.stats.grants += run as u64;
            if penalty > 0 {
                self.fstats.degraded_traversals += 1;
            }
            let f = &mut self.flights[i];
            f.pos += run;
            let next = cycle + Cycles::new(grant_cycles + penalty);
            if f.pos + 1 == f.tiles.len() {
                let (msg, submitted_at, stalled) = (f.msg, f.submitted_at, f.stalled);
                f.done = true;
                self.schedule(msg, next, submitted_at, stalled);
            } else {
                // A SMART flit that stops short of its destination latched
                // in a router buffer.
                f.stalled |= bypass;
                f.ready_at = next;
            }
        }
        self.flights.retain(|f| !f.done);
    }

    /// Flight `i`'s next link is down at `cycle`. With a re-routing
    /// policy, detour around the outage; otherwise back off, then escape
    /// over the buffered maintenance path once the (possibly
    /// escalation-clamped) retry budget is spent.
    fn on_outage(&mut self, i: usize, cycle: Cycle) {
        let now = cycle.value();
        {
            let f = &mut self.flights[i];
            f.fault_attempts += 1;
            f.stalled = true;
            if f.blocked_at.is_none() {
                f.blocked_at = Some(cycle);
            }
        }
        self.stats.retries += 1;
        self.fstats.link_blocked += 1;
        if self.recovery.reroute {
            let (pos, cur, dst, old_remaining) = {
                let f = &self.flights[i];
                let last = f.tiles[f.tiles.len() - 1];
                (f.pos, f.tiles[f.pos], last, f.tiles.len() - 1 - f.pos)
            };
            let detour = self
                .links
                .detour(cur, dst, |l| self.faults.link_outage(l.index(), now));
            if let Some(path) = detour {
                self.rstats.reroutes += 1;
                self.rstats.detour_extra_hops +=
                    (path.len() - 1).saturating_sub(old_remaining) as u64;
                let f = &mut self.flights[i];
                f.tiles.truncate(pos + 1);
                f.tiles.extend(path.into_iter().skip(1));
                // Picking the detour costs one decision cycle.
                f.ready_at = cycle + Cycles::ONE;
                if let Some(b) = f.blocked_at.take() {
                    self.rstats
                        .detect_to_reroute
                        .record((f.ready_at - b).value());
                }
                return;
            }
            self.rstats.reroute_failed += 1;
        }
        let max = self.recovery.effective_max_attempts(self.faults.retry);
        let f = &mut self.flights[i];
        if max.is_some_and(|m| f.fault_attempts >= m) {
            // The escape path is buffered: it runs at mesh speed whatever
            // the claim rule.
            let remaining = (f.tiles.len() - 1 - f.pos) as u64;
            let arrival = cycle + Cycles::new(CYCLES_PER_HOP * remaining + 1);
            let (msg, submitted_at, attempts) = (f.msg, f.submitted_at, f.fault_attempts);
            f.done = true;
            self.fstats.fallbacks += 1;
            self.fstats.retries_per_fallback.record(attempts);
            if self
                .faults
                .retry
                .max_attempts
                .is_none_or(|pm| attempts < u64::from(pm))
            {
                // The policy's threshold, not the plan's budget,
                // triggered the escape.
                self.rstats.escalations += 1;
            }
            self.schedule(msg, arrival, submitted_at, true);
        } else {
            let wait = self.faults.backoff(f.fault_attempts, f.msg.id);
            f.ready_at = cycle + Cycles::new(wait);
            self.fstats.backoff_cycles += wait;
        }
    }
}

impl Interconnect for MeshNoc {
    fn submit(&mut self, now: Cycle, msg: Message) {
        if msg.is_local() {
            self.schedule(msg, now, now, false);
            return;
        }
        if self.rule == Rule::ContentionFree {
            if self.faults.is_empty() {
                let latency = self.uncontended_latency(msg.src, msg.dst);
                self.schedule(msg, now + latency, now, false);
                return;
            }
            // Even the idealized mesh honors injected faults: departure
            // waits out any outage on the path, and degraded links add
            // their per-traversal penalty.
            let tiles: Vec<Coord> = self.links.mesh().xy_path(msg.src, msg.dst).collect();
            let now_v = now.value();
            let statically_blocked = (self.recovery.reroute || self.recovery.escalate.is_some())
                && tiles.windows(2).any(|pair| {
                    let link = self.links.link_between(pair[0], pair[1]).index();
                    self.faults.link_outage(link, now_v)
                });
            if statically_blocked {
                // Closed loop: instead of waiting out the outage window,
                // detour around it (one decision cycle), or escalate to
                // the buffered escape path after a bounded backoff.
                let static_hops = tiles.len() - 1;
                if self.recovery.reroute {
                    let detour = self.links.detour(tiles[0], tiles[static_hops], |l| {
                        self.faults.link_outage(l.index(), now_v)
                    });
                    if let Some(path) = detour {
                        let hops = path.len() - 1;
                        let mut extra = 0u64;
                        let mut degraded = false;
                        for pair in path.windows(2) {
                            let link = self.links.link_between(pair[0], pair[1]).index();
                            let d = self.faults.link_degrade(link, now_v + 1);
                            degraded |= d > 0;
                            extra += d;
                        }
                        if degraded {
                            self.fstats.degraded_traversals += 1;
                        }
                        self.fstats.link_blocked += 1;
                        self.rstats.reroutes += 1;
                        self.rstats.detour_extra_hops += (hops - static_hops) as u64;
                        self.rstats.detect_to_reroute.record(1);
                        let arrival = now + Cycles::new(1 + hops as u64 * CYCLES_PER_HOP + extra);
                        self.schedule(msg, arrival, now, true);
                        return;
                    }
                    self.rstats.reroute_failed += 1;
                }
                if self.recovery.escalate.is_some() {
                    // No fault-free path exists: emulate the bounded retry
                    // ladder, then deliver over the buffered escape path.
                    let k = self
                        .recovery
                        .effective_max_attempts(self.faults.retry)
                        .unwrap_or(1);
                    let mut wait = 0u64;
                    for attempt in 1..=k {
                        wait += self.faults.backoff(attempt, msg.id);
                    }
                    self.fstats.link_blocked += 1;
                    self.fstats.backoff_cycles += wait;
                    self.fstats.fallbacks += 1;
                    self.fstats.retries_per_fallback.record(k);
                    self.rstats.escalations += 1;
                    let arrival = now + Cycles::new(wait + static_hops as u64 * CYCLES_PER_HOP + 1);
                    self.schedule(msg, arrival, now, true);
                    return;
                }
                // Re-routing armed but the mesh is disconnected and no
                // escalation: fall through to the open-loop wait.
            }
            let hops = tiles.len().saturating_sub(1) as u64;
            let mut start = now.value();
            let mut extra = 0u64;
            let mut blocked = false;
            let mut degraded = false;
            for pair in tiles.windows(2) {
                let link = self.links.link_between(pair[0], pair[1]).index();
                let clear = self.faults.outage_clear_at(link, start);
                if clear > start {
                    blocked = true;
                    start = clear;
                }
                let d = self.faults.link_degrade(link, start);
                degraded |= d > 0;
                extra += d;
            }
            if blocked {
                self.fstats.link_blocked += 1;
            }
            if degraded {
                self.fstats.degraded_traversals += 1;
            }
            let arrival = Cycle::new(start) + Cycles::new(hops * CYCLES_PER_HOP + extra);
            self.schedule(msg, arrival, now, blocked);
            return;
        }
        let tiles: Vec<Coord> = self.links.mesh().xy_path(msg.src, msg.dst).collect();
        self.flights.push(Flight {
            msg,
            tiles,
            pos: 0,
            ready_at: now,
            submitted_at: now,
            needs_setup: matches!(self.rule, Rule::Bypass { .. }),
            stalled: false,
            fault_attempts: 0,
            blocked_at: None,
            done: false,
        });
    }

    fn advance(&mut self, cycle: Cycle) -> Vec<Delivery> {
        self.step_flights(cycle);
        let mut out = Vec::new();
        while self.scheduled.peek().is_some_and(|top| top.at <= cycle) {
            let Some(s) = self.scheduled.pop() else { break };
            self.stats.delivered += 1;
            self.stats.latency.record(s.at - s.submitted_at);
            if !s.stalled {
                self.stats.no_contention += 1;
            }
            out.push(Delivery {
                msg: s.msg,
                at: s.at,
            });
        }
        out
    }

    fn next_activity(&self) -> Option<Cycle> {
        let flight_min = self.flights.iter().map(|f| f.ready_at).min();
        let sched_min = self.scheduled.peek().map(|s| s.at);
        match (flight_min, sched_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn stats(&self) -> &NocStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.fstats.reset();
        self.rstats.reset();
    }

    fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        Some(&self.fstats)
    }

    fn install_recovery(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
    }

    fn recovery_stats(&self) -> Option<&RecoveryStats> {
        Some(&self.rstats)
    }

    fn diagnostics(&self, cycle: Cycle) -> DiagSnapshot {
        let now = cycle.value();
        let pending_messages = self
            .flights
            .iter()
            .map(|f| PendingMessage {
                id: f.msg.id,
                src: f.msg.src.index(),
                dst: f.msg.dst.index(),
                kind: format!("{:?}", f.msg.kind),
                submitted_at: f.submitted_at.value(),
                attempts: f.fault_attempts,
            })
            .collect();
        let links = (0..self.links.count())
            .map(|l| LinkState {
                link: l,
                busy_until: 0,
                reserved_by: None,
                faulted: self.faults.link_outage(l, now),
            })
            .collect();
        DiagSnapshot {
            cycle: now,
            pending_messages,
            links,
            active_faults: self.faults.active_at(now),
            ..DiagSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgKind;
    use nocstar_types::CoreId;

    fn msg(id: u64, src: usize, dst: usize) -> Message {
        Message::new(id, CoreId::new(src), CoreId::new(dst), MsgKind::TlbRequest)
    }

    fn drain(noc: &mut MeshNoc) -> Vec<Delivery> {
        crate::drain_until_idle(noc, Cycle::ZERO, 100_000).expect("mesh did not quiesce")
    }

    #[test]
    fn contended_outage_delays_and_escape_delivers() {
        let mut noc = MeshNoc::contended(MeshShape::new(4, 1));
        noc.install_faults("link:*@0-1000000=off; retry=3".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 1, "escape path must deliver");
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 1);
    }

    #[test]
    fn contention_free_waits_out_outages_and_pays_degradation() {
        let mut noc = MeshNoc::contention_free(MeshShape::new(4, 1));
        noc.install_faults("link:*@0-40=off; link:*@0-100=+1".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3)); // 3 hops
        let d = drain(&mut noc);
        // Departs at 40 (outage clear), 3 hops x 2 cycles + 3 x 1 extra.
        assert_eq!(d[0].at, Cycle::new(40 + 6 + 3));
        let fs = noc.fault_stats().unwrap();
        assert_eq!(fs.link_blocked, 1);
        assert_eq!(fs.degraded_traversals, 1);
    }

    #[test]
    fn reroute_detours_a_contended_flight_around_an_outage() {
        // 4x4 mesh, single dead link on the XY route: the detour adds two
        // hops instead of burning the whole retry budget.
        let mut noc = MeshNoc::contended(MeshShape::new(4, 4));
        noc.install_faults("link:0@0-1000000=off".parse().unwrap());
        noc.install_recovery("reroute".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 1);
        let rs = noc.recovery_stats().unwrap();
        assert_eq!(rs.reroutes, 1);
        assert_eq!(rs.detour_extra_hops, 2);
        assert_eq!(rs.detect_to_reroute.count(), 1);
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 0);
        // 1 detect cycle + 5 detour hops x 2 cycles.
        assert_eq!(d[0].at, Cycle::new(1 + 10));
    }

    #[test]
    fn escalation_beats_the_full_retry_ladder_when_disconnected() {
        // Whole-fabric outage: no detour exists, so recovery escalates to
        // the escape path after 3 attempts instead of 16.
        let shape = MeshShape::new(4, 1);
        let open = {
            let mut noc = MeshNoc::contended(shape);
            noc.install_faults("link:*@0-1000000=off".parse().unwrap());
            noc.submit(Cycle::ZERO, msg(1, 0, 3));
            drain(&mut noc)[0].at
        };
        let mut noc = MeshNoc::contended(shape);
        noc.install_faults("link:*@0-1000000=off".parse().unwrap());
        noc.install_recovery(RecoveryPolicy::all());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let closed = drain(&mut noc)[0].at;
        assert!(
            closed < open,
            "escalation must beat the open loop: {closed:?} vs {open:?}"
        );
        let rs = noc.recovery_stats().unwrap();
        assert_eq!(rs.escalations, 1);
        assert_eq!(rs.reroutes, 0);
        assert!(rs.reroute_failed > 0);
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 1);
    }

    #[test]
    fn contention_free_recovery_avoids_waiting_out_the_window() {
        // The faultsweep plan: every link down for a long window. Open
        // loop waits until cycle 1000; escalation escapes in tens of
        // cycles; with a partial outage, the detour wins instead.
        let shape = MeshShape::new(4, 4);
        let mut noc = MeshNoc::contention_free(shape);
        noc.install_faults("link:*@0-1000=off".parse().unwrap());
        noc.install_recovery(RecoveryPolicy::all());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert!(d[0].at < Cycle::new(1000), "must not wait out the outage");
        assert_eq!(noc.recovery_stats().unwrap().escalations, 1);

        let mut noc = MeshNoc::contention_free(shape);
        noc.install_faults("link:0@0-1000=off".parse().unwrap());
        noc.install_recovery(RecoveryPolicy::all());
        noc.submit(Cycle::ZERO, msg(2, 0, 3));
        let d = drain(&mut noc);
        // 1 detect cycle + 5-hop detour x 2 cycles.
        assert_eq!(d[0].at, Cycle::new(1 + 10));
        assert_eq!(noc.recovery_stats().unwrap().reroutes, 1);
    }

    #[test]
    fn disabled_recovery_changes_nothing() {
        let run = |recover: bool| {
            let mut noc = MeshNoc::contended(MeshShape::new(4, 1));
            noc.install_faults("link:*@0-40=off".parse().unwrap());
            if recover {
                noc.install_recovery(RecoveryPolicy::default());
            }
            noc.submit(Cycle::ZERO, msg(1, 0, 3));
            drain(&mut noc)[0].at
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn contention_free_latency_is_two_cycles_per_hop() {
        let mut noc = MeshNoc::contention_free(MeshShape::new(8, 4));
        noc.submit(Cycle::new(10), msg(1, 0, 31)); // 7 + 3 = 10 hops
        let d = drain(&mut noc);
        assert_eq!(d[0].at, Cycle::new(10 + 20));
    }

    #[test]
    fn contended_uncongested_matches_contention_free() {
        let mut noc = MeshNoc::contended(MeshShape::new(4, 1));
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d[0].at, Cycle::new(6)); // 3 hops x 2 cycles
        assert_eq!(noc.stats().no_contention, 1);
    }

    #[test]
    fn shared_link_causes_a_stall() {
        // Both messages start by crossing link 1->2 in the same cycle.
        let mut noc = MeshNoc::contended(MeshShape::new(4, 1));
        noc.submit(Cycle::ZERO, msg(1, 1, 3));
        noc.submit(Cycle::ZERO, msg(2, 1, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].at, Cycle::new(4)); // 2 hops * 2
        assert!(d[1].at > d[0].at);
        assert!(noc.stats().retries > 0);
        assert_eq!(noc.stats().no_contention, 1);
    }

    #[test]
    fn local_messages_deliver_immediately() {
        let mut noc = MeshNoc::contended(MeshShape::new(4, 4));
        noc.submit(Cycle::new(2), msg(1, 5, 5));
        let d = noc.advance(Cycle::new(2));
        assert_eq!(d[0].at, Cycle::new(2));
    }

    #[test]
    fn stats_record_latency() {
        let mut noc = MeshNoc::contention_free(MeshShape::new(4, 4));
        noc.submit(Cycle::ZERO, msg(1, 0, 1));
        drain(&mut noc);
        assert_eq!(noc.stats().latency.mean(), 2.0);
        assert_eq!(noc.stats().delivered, 1);
    }

    proptest::proptest! {
        /// No message is lost or duplicated under arbitrary traffic.
        #[test]
        fn prop_mesh_delivers_everything(
            sends in proptest::collection::vec((0usize..16, 0usize..16, 0u64..30), 1..50),
            contended in proptest::prelude::any::<bool>(),
        ) {
            let shape = MeshShape::square_for(16);
            let mut noc = if contended {
                MeshNoc::contended(shape)
            } else {
                MeshNoc::contention_free(shape)
            };
            for (i, &(src, dst, at)) in sends.iter().enumerate() {
                noc.submit(Cycle::new(at), msg(i as u64, src, dst));
            }
            let mut seen = std::collections::BTreeSet::new();
            let mut cycle = Cycle::ZERO;
            for _ in 0..100_000 {
                match noc.next_activity() {
                    None => break,
                    Some(next) => {
                        cycle = cycle.max(next);
                        for d in noc.advance(cycle) {
                            proptest::prop_assert!(seen.insert(d.msg.id), "duplicate");
                        }
                        cycle += Cycles::ONE;
                    }
                }
            }
            proptest::prop_assert_eq!(seen.len(), sends.len());
            proptest::prop_assert_eq!(noc.next_activity(), None);
        }
    }

    #[test]
    fn outage_blocks_then_recovers_without_losing_the_flit() {
        let mut noc = MeshNoc::smart(MeshShape::new(4, 1), 8);
        noc.install_faults("link:*@0-50=off".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 1);
        assert!(d[0].at >= Cycle::new(50));
        assert!(noc.fault_stats().unwrap().link_blocked > 0);
    }

    #[test]
    fn permanent_outage_escapes_after_retry_budget() {
        let mut noc = MeshNoc::smart(MeshShape::new(4, 1), 8);
        noc.install_faults("link:*@0-1000000=off; retry=3".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 1, "escape path must deliver the flit");
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 1);
    }

    #[test]
    fn reroute_detours_around_a_partial_outage() {
        // 4x4 mesh, first east link dead: the flit detours through the
        // next row instead of backing off.
        let mut noc = MeshNoc::smart(MeshShape::new(4, 4), 8);
        noc.install_faults("link:0@0-1000000=off".parse().unwrap());
        noc.install_recovery("reroute".parse().unwrap());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 1);
        let rs = noc.recovery_stats().unwrap();
        assert_eq!(rs.reroutes, 1);
        assert_eq!(rs.detour_extra_hops, 2);
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 0);
        // Setup (1) + blocked detect (1) + 5-hop bypass run (1).
        assert_eq!(d[0].at, Cycle::new(3));
    }

    #[test]
    fn escalation_escapes_faster_than_the_plan_budget() {
        let shape = MeshShape::new(4, 1);
        let open = {
            let mut noc = MeshNoc::smart(shape, 8);
            noc.install_faults("link:*@0-1000000=off".parse().unwrap());
            noc.submit(Cycle::ZERO, msg(1, 0, 3));
            drain(&mut noc)[0].at
        };
        let mut noc = MeshNoc::smart(shape, 8);
        noc.install_faults("link:*@0-1000000=off".parse().unwrap());
        noc.install_recovery(RecoveryPolicy::all());
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        let closed = drain(&mut noc)[0].at;
        assert!(closed < open, "{closed:?} vs {open:?}");
        assert_eq!(noc.recovery_stats().unwrap().escalations, 1);
        assert_eq!(noc.fault_stats().unwrap().fallbacks, 1);
    }

    #[test]
    fn uncontended_latency_is_setup_plus_bypass_runs() {
        // 6 hops at HPCmax=8: 1 setup + 1 bypass cycle.
        let mut noc = MeshNoc::smart(MeshShape::new(4, 4), 8);
        noc.submit(Cycle::ZERO, msg(1, 0, 15));
        let d = drain(&mut noc);
        assert_eq!(d[0].at, Cycle::new(2));
        assert_eq!(noc.stats().no_contention, 1);
    }

    #[test]
    fn hpc_limits_bypass_length() {
        // 14 hops at HPCmax=4: 1 setup + ceil(14/4)=4 cycles.
        let mut noc = MeshNoc::smart(MeshShape::new(8, 8), 4);
        noc.submit(Cycle::ZERO, msg(1, 0, 63));
        let d = drain(&mut noc);
        assert_eq!(d[0].at, Cycle::new(5));
    }

    #[test]
    fn contention_latches_the_younger_flit_mid_path() {
        let mut noc = MeshNoc::smart(MeshShape::new(4, 1), 8);
        noc.submit(Cycle::ZERO, msg(1, 0, 3));
        noc.submit(Cycle::ZERO, msg(2, 1, 3));
        let d = drain(&mut noc);
        assert_eq!(d.len(), 2);
        let first = d.iter().find(|d| d.msg.id == 1).unwrap();
        let second = d.iter().find(|d| d.msg.id == 2).unwrap();
        assert_eq!(first.at, Cycle::new(2));
        assert!(second.at > first.at);
        assert!(noc.stats().retries > 0);
    }

    #[test]
    fn partial_progress_beats_full_retry() {
        // Unlike NOCSTAR, a SMART flit blocked ahead still advances up to
        // the blocked router. Message 2's first link (1->2) conflicts with
        // message 1's run, but 2 advances as soon as 1's claim expires.
        let mut noc = MeshNoc::smart(MeshShape::new(8, 1), 8);
        noc.submit(Cycle::ZERO, msg(1, 0, 7));
        noc.submit(Cycle::ZERO, msg(2, 1, 7));
        let d = drain(&mut noc);
        let second = d.iter().find(|d| d.msg.id == 2).unwrap();
        assert_eq!(second.at, Cycle::new(3)); // setup, blocked cycle 1, bypass cycle 2
    }

    #[test]
    fn local_messages_skip_setup() {
        let mut noc = MeshNoc::smart(MeshShape::new(4, 4), 8);
        noc.submit(Cycle::new(9), msg(1, 2, 2));
        let d = noc.advance(Cycle::new(9));
        assert_eq!(d[0].at, Cycle::new(9));
    }

    proptest::proptest! {
        /// No message is lost or duplicated under arbitrary traffic.
        #[test]
        fn prop_smart_delivers_everything(
            sends in proptest::collection::vec((0usize..16, 0usize..16, 0u64..30), 1..50),
            contended in proptest::prelude::any::<bool>(),
        ) {
            let shape = MeshShape::square_for(16);
            let hpc = if contended { 2 } else { 8 };
            let mut noc = MeshNoc::smart(shape, hpc);
            for (i, &(src, dst, at)) in sends.iter().enumerate() {
                noc.submit(Cycle::new(at), msg(i as u64, src, dst));
            }
            let mut seen = std::collections::BTreeSet::new();
            let mut cycle = Cycle::ZERO;
            for _ in 0..100_000 {
                match noc.next_activity() {
                    None => break,
                    Some(next) => {
                        cycle = cycle.max(next);
                        for d in noc.advance(cycle) {
                            proptest::prop_assert!(seen.insert(d.msg.id), "duplicate");
                        }
                        cycle += Cycles::ONE;
                    }
                }
            }
            proptest::prop_assert_eq!(seen.len(), sends.len());
            proptest::prop_assert_eq!(noc.next_activity(), None);
        }
    }
}
