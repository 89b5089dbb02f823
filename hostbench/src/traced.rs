//! The traced run: a benchmark-owned copy of the simulation loop that
//! times every call into a layer from outside.
//!
//! The simulator's event loop and queue are private, so host time cannot
//! be split from inside without changing simulator code. This replay
//! instead builds the same structures from their public constructors
//! (`L1Tlb`, `OrgState`/`TlbSlice`, `MemorySystem`, `NetworkModel`, one
//! `WorkloadSpec::trace` per thread) and replays the call sequence of
//! `Simulation::issue`/`slice_done`/`walk_done` and of the sampled
//! fast-forward path, in the same `(cycle, sequence)` event order. Each
//! call into a layer is wrapped in a span that adds its wall time and a
//! call count to that layer's totals.
//!
//! Left out, because the benchmark's workloads never need them: the
//! monolithic and ideal organizations, remote-slice walks, shootdown
//! leader groups, prefetch, SMT, context switches, superpage churn, fault
//! injection and recovery, energy and concurrency accounting, the metrics
//! registry and the event trace. The replay refuses a configuration or
//! trace event it does not copy. The fidelity ratios reported next to the spans show how closely the
//! replay's call mix matches the simulator's own report.

use crate::{Mode, Workload};
use nocstar::core::network::NetworkModel;
use nocstar::core::org::OrgState;
use nocstar::mem::hierarchy::{MemoryConfig, MemorySystem};
use nocstar::mem::walker::{cluster_walker, WalkLatency};
use nocstar::noc::message::{Delivery, Message, MsgKind};
use nocstar::noc::{HierNoc, MeshNoc};
use nocstar::prelude::*;
use nocstar::stats::counter::HitMiss;
use nocstar::stats::latency::LatencyRecorder;
use nocstar::tlb::{L1Tlb, TlbEntry};
use nocstar::types::{PhysAddr, PhysPageNum, ThreadId, VirtPageNum};
use nocstar::workloads::trace::{MemAccess, TraceEvent, TraceSource};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// The public functions the traced run times, in report order. Names
/// follow the crate modules the functions live in.
#[derive(Debug, Clone, Copy)]
enum Layer {
    NextEvent,
    L1Lookup,
    L1Touch,
    SliceLookup,
    SliceTouch,
    /// `translate`, `ensure_mapped` and `resolve_mapped`.
    Translate,
    CacheAccess,
    CacheWarmAccess,
    Walk,
    WarmWalk,
    /// `submit` and `respond`: both inject a message.
    NocSubmit,
    NocAdvance,
    NocNextActivity,
}

const LAYERS: [(Layer, &str); 13] = [
    (Layer::NextEvent, "workloads.next_event"),
    (Layer::L1Lookup, "tlb.l1.lookup"),
    (Layer::L1Touch, "tlb.l1.touch"),
    (Layer::SliceLookup, "tlb.slice.lookup"),
    (Layer::SliceTouch, "tlb.slice.touch"),
    (Layer::Translate, "mem.page_table.translate"),
    (Layer::CacheAccess, "mem.cache.access"),
    (Layer::CacheWarmAccess, "mem.cache.warm_access"),
    (Layer::Walk, "mem.walker.walk"),
    (Layer::WarmWalk, "mem.walker.warm_walk"),
    (Layer::NocSubmit, "noc.submit"),
    (Layer::NocAdvance, "noc.advance"),
    (Layer::NocNextActivity, "noc.next_activity"),
];

/// Per-layer call counts and wall nanoseconds.
#[derive(Debug, Default)]
struct Spans {
    calls: [u64; LAYERS.len()],
    ns: [u64; LAYERS.len()],
}

impl Spans {
    /// Runs `f` inside a span of `layer`.
    #[inline(always)]
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.ns[layer as usize] += start.elapsed().as_nanos() as u64;
        self.calls[layer as usize] += 1;
        r
    }
}

/// The wall nanoseconds one empty span records: the part of a span's
/// reading that is timer cost, not layer work. Median of batches.
fn empty_span_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let mut per_span: Vec<f64> = (0..15)
        .map(|_| {
            let mut spans = Spans::default();
            for _ in 0..BATCH {
                spans.time(Layer::NextEvent, || black_box(()));
            }
            spans.ns[0] as f64 / f64::from(BATCH)
        })
        .collect();
    per_span.sort_by(f64::total_cmp);
    per_span[per_span.len() / 2]
}

/// Cycles the initiating thread spends in the OS per shootdown (`sim.rs`).
const SHOOTDOWN_COST: Cycles = Cycles::new(50);
/// Pipeline-replay penalty per L2 TLB miss (`sim.rs`).
const WALK_REPLAY_PENALTY: Cycles = Cycles::new(40);

/// Preset traces never switch contexts, promote or demote pages, so the
/// replay leaves those events out.
const UNMODELLED_EVENT: &str = "the traced replay models only accesses and remaps";

/// The visible cost of a data access under out-of-order overlap: the L1
/// latency in full plus 1/8 of the rest, as the simulator charges it.
fn data_cost(latency: Cycles) -> Cycles {
    let l = latency.value();
    Cycles::new(l.min(4) + (l.saturating_sub(4) >> 3))
}

/// A pending event. The queue orders `(cycle, push sequence, event)`
/// tuples, and sequences are unique, so events pop in the simulator's
/// `(cycle, sequence)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    ThreadNext(usize),
    Issue(usize),
    SliceDone(u64),
    WalkDone(u64),
}

#[derive(Debug, Clone, Copy)]
struct Lookup {
    thread: usize,
    requester: CoreId,
    va: VirtAddr,
    asid: Asid,
    vpn: VirtPageNum,
    is_write: bool,
    home_idx: usize,
    home_tile: CoreId,
    entry: Option<TlbEntry>,
}

#[derive(Debug, Clone, Copy)]
enum Tx {
    Lookup(Lookup),
    Insert(TlbEntry),
    Inval {
        asid: Asid,
        vpn: VirtPageNum,
        home_idx: usize,
    },
}

#[derive(Debug, Clone, Copy)]
struct Thread {
    core: CoreId,
    pending: Option<(MemAccess, Asid)>,
    accesses_done: u64,
    finish_time: Cycle,
    finished: bool,
}

/// Statistics gathered over the measured part of the run: after the
/// warmup boundary of an exact run, or inside each sampled window.
#[derive(Debug, Default)]
struct Measured {
    slice: HitMiss,
    walks: u64,
    caches: [HitMiss; 3],
    queue_wait: LatencyRecorder,
}

struct Replay {
    config: SystemConfig,
    spans: Spans,
    mem: MemorySystem,
    l1s: Vec<L1Tlb>,
    org: OrgState,
    net: NetworkModel,
    feeds: Vec<Box<dyn TraceSource>>,
    threads: Vec<Thread>,
    walker_free: Vec<Cycle>,
    events: BinaryHeap<Reverse<(Cycle, u64, Event)>>,
    seq: u64,
    txs: BTreeMap<u64, Tx>,
    next_tx: u64,
    now: Cycle,
    target: u64,
    warm_target: u64,
    warm_crossed: usize,
    completed_threads: usize,
    walks: u64,
    deliveries: u64,
    measured: Measured,
}

/// Builds the interconnect `Simulation::new` builds for `config`, for the
/// organizations the workloads use.
fn network(config: &SystemConfig) -> Result<NetworkModel, String> {
    let mesh = config.mesh();
    Ok(match config.org {
        TlbOrg::Private { .. } => NetworkModel::None,
        TlbOrg::Distributed { .. } => NetworkModel::Mesh(MeshNoc::contention_free(mesh)),
        TlbOrg::Nocstar {
            hpc_max,
            acquire,
            ideal_fabric,
            ..
        } => NetworkModel::nocstar(mesh, hpc_max, acquire, ideal_fabric),
        TlbOrg::Hier {
            cluster_size,
            intra,
            inter,
            ..
        } => NetworkModel::Hier(HierNoc::new(config.cores, cluster_size, intra, inter)),
        other => {
            return Err(format!(
                "the traced replay does not model {}",
                other.label()
            ))
        }
    })
}

impl Replay {
    fn new(w: &Workload, seed: u64) -> Result<Self, String> {
        let config = w.config(seed);
        // Every workload runs with these paper defaults; other settings take
        // simulator paths this replay does not copy.
        if config.prefetch.is_enabled()
            || config.smt != 1
            || config.walk_policy != WalkPolicy::AtRequester
            || config.leader_policy != LeaderPolicy::EveryCore
        {
            return Err("the traced replay models only the default policies".into());
        }
        let spec = w.preset.spec();
        let threads = config.threads();
        Ok(Self {
            spans: Spans::default(),
            mem: MemorySystem::new(MemoryConfig::haswell(config.cores)),
            l1s: (0..config.cores)
                .map(|_| L1Tlb::new(config.l1_config()))
                .collect(),
            org: OrgState::new(&config),
            net: network(&config)?,
            feeds: (0..threads)
                .map(|t| {
                    Box::new(spec.trace(Asid::new(1), ThreadId::new(t), config.seed, config.thp))
                        as Box<dyn TraceSource>
                })
                .collect(),
            threads: (0..threads)
                .map(|t| Thread {
                    core: CoreId::new(t),
                    pending: None,
                    accesses_done: 0,
                    finish_time: Cycle::ZERO,
                    finished: false,
                })
                .collect(),
            walker_free: vec![Cycle::ZERO; config.cores],
            events: BinaryHeap::new(),
            seq: 0,
            txs: BTreeMap::new(),
            next_tx: 0,
            now: Cycle::ZERO,
            target: 0,
            warm_target: 0,
            warm_crossed: 0,
            completed_threads: 0,
            walks: 0,
            deliveries: 0,
            measured: Measured::default(),
            config,
        })
    }

    fn push(&mut self, at: Cycle, event: Event) {
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, event)));
    }

    fn alloc_tx(&mut self) -> u64 {
        self.next_tx += 1;
        self.next_tx
    }

    fn has_net(&self) -> bool {
        !matches!(self.net, NetworkModel::None)
    }

    fn submit(&mut self, at: Cycle, msg: Message) {
        let net = &mut self.net;
        self.spans.time(Layer::NocSubmit, || net.submit(at, msg));
    }

    fn respond(&mut self, msg: Message) -> Result<(), String> {
        let (net, now) = (&mut self.net, self.now);
        self.spans
            .time(Layer::NocSubmit, || net.respond(msg, now))
            .map_err(|e| e.to_string())
    }

    /// The next trace event of thread `t`, with its address space.
    fn next_event(&mut self, t: usize) -> (TraceEvent, Asid) {
        let feed = &mut self.feeds[t];
        let ev = self.spans.time(Layer::NextEvent, || feed.next_event());
        (ev, feed.asid())
    }

    fn translate(&mut self, asid: Asid, va: VirtAddr) -> Option<(VirtPageNum, PhysPageNum)> {
        let mem = &self.mem;
        self.spans
            .time(Layer::Translate, || mem.translate(asid, va))
    }

    fn data_access(&mut self, core: CoreId, pa: PhysAddr, write: bool) -> Cycles {
        let mem = &mut self.mem;
        self.spans
            .time(Layer::CacheAccess, || mem.access(core, pa, write))
            .latency
    }

    fn warm_access(&mut self, core: CoreId, pa: PhysAddr, write: bool) {
        let mem = &mut self.mem;
        self.spans
            .time(Layer::CacheWarmAccess, || mem.warm_access(core, pa, write));
    }

    // ----- the detailed path (mirrors `Simulation::event_loop`) -----------

    fn event_loop(&mut self) -> Result<(), String> {
        while self.completed_threads < self.threads.len() {
            let heap_next = self.events.peek().map(|Reverse((at, _, _))| *at);
            let net = &self.net;
            let net_next = self
                .spans
                .time(Layer::NocNextActivity, || net.next_activity());
            self.now = match (heap_next, net_next) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) | (None, Some(a)) => a,
                (None, None) => return Err(format!("traced replay deadlocked at {}", self.now)),
            };
            while let Some(&Reverse((at, _, event))) = self.events.peek() {
                if at > self.now {
                    break;
                }
                self.events.pop();
                match event {
                    Event::ThreadNext(t) => self.thread_next(t)?,
                    Event::Issue(t) => self.issue(t)?,
                    Event::SliceDone(id) => self.slice_done(id)?,
                    Event::WalkDone(id) => self.walk_done(id)?,
                }
            }
            let net = &self.net;
            let due = self
                .spans
                .time(Layer::NocNextActivity, || net.next_activity());
            if due.is_some_and(|a| a <= self.now) {
                let (net, now) = (&mut self.net, self.now);
                let deliveries = self.spans.time(Layer::NocAdvance, || net.advance(now));
                for d in deliveries {
                    self.deliveries += 1;
                    self.handle_delivery(d)?;
                }
            }
        }
        Ok(())
    }

    fn thread_next(&mut self, t: usize) -> Result<(), String> {
        if self.threads[t].finished {
            return Ok(());
        }
        let now = self.now;
        let (ev, asid) = self.next_event(t);
        match ev {
            TraceEvent::Access(a) => {
                self.threads[t].pending = Some((a, asid));
                self.push(now + a.gap, Event::Issue(t));
            }
            TraceEvent::Remap(vpn) => {
                if self.mem.remap(asid, vpn).is_some() {
                    self.shootdown(asid, vpn);
                }
                self.push(now + SHOOTDOWN_COST, Event::ThreadNext(t));
            }
            TraceEvent::ContextSwitch | TraceEvent::Promote(_) | TraceEvent::Demote(_) => {
                return Err(UNMODELLED_EVENT.into())
            }
        }
        Ok(())
    }

    fn issue(&mut self, t: usize) -> Result<(), String> {
        let (access, asid) = self.threads[t]
            .pending
            .take()
            .ok_or("issue without access")?;
        let core = self.threads[t].core;
        let va = access.va;
        if self.translate(asid, va).is_none() {
            let size = self.feeds[t].backing(va);
            let mem = &mut self.mem;
            self.spans
                .time(Layer::Translate, || mem.ensure_mapped(asid, va, size));
        }
        let l1 = &mut self.l1s[core.index()];
        if let Some(entry) = self.spans.time(Layer::L1Lookup, || l1.lookup(asid, va)) {
            let latency = self.data_access(core, entry.translate(va), access.is_write);
            self.complete_access(t, self.now + data_cost(latency));
            return Ok(());
        }
        let t_req = self.now + Cycles::ONE;
        let vpn = va.page_number(self.feeds[t].backing(va));
        let (home_idx, home_tile) = self.org.home_of(vpn, core);
        let id = self.alloc_tx();
        self.txs.insert(
            id,
            Tx::Lookup(Lookup {
                thread: t,
                requester: core,
                va,
                asid,
                vpn,
                is_write: access.is_write,
                home_idx,
                home_tile,
                entry: None,
            }),
        );
        if home_tile == core || !self.has_net() {
            self.slice_lookup(id, t_req)
        } else {
            self.submit(
                t_req,
                Message::new(id, core, home_tile, MsgKind::TlbRequest),
            );
            Ok(())
        }
    }

    fn lookup(&self, id: u64) -> Result<Lookup, String> {
        match self.txs.get(&id) {
            Some(Tx::Lookup(l)) => Ok(*l),
            _ => Err(format!("no lookup transaction {id}")),
        }
    }

    fn slice_lookup(&mut self, id: u64, at: Cycle) -> Result<(), String> {
        let mut l = self.lookup(id)?;
        let slice = self.org.structure_mut(l.home_idx);
        let done = slice.schedule_read(at);
        l.entry = self
            .spans
            .time(Layer::SliceLookup, || slice.lookup(l.asid, l.vpn));
        self.txs.insert(id, Tx::Lookup(l));
        self.push(done, Event::SliceDone(id));
        Ok(())
    }

    fn is_local(&self, l: &Lookup) -> bool {
        l.home_tile == l.requester || !self.has_net()
    }

    fn response(l: &Lookup, id: u64) -> Message {
        Message::new(id, l.home_tile, l.requester, MsgKind::TlbResponse)
    }

    fn slice_done(&mut self, id: u64) -> Result<(), String> {
        let l = self.lookup(id)?;
        let local = self.is_local(&l);
        match (l.entry, local) {
            (Some(_), true) => self.complete_translation(id),
            (None, true) => self.start_walk(id, l.requester),
            // A hit's translation or a miss notice goes back to the
            // requester, which walks on a miss.
            (_, false) => self.respond(Self::response(&l, id)),
        }
    }

    fn start_walk(&mut self, id: u64, walk_core: CoreId) -> Result<(), String> {
        let mut l = self.lookup(id)?;
        let walk_core = match self.config.org {
            TlbOrg::Hier { cluster_size, .. }
                if walk_core.index() / cluster_size == l.home_tile.index() / cluster_size =>
            {
                cluster_walker(walk_core, l.home_tile, cluster_size, &self.walker_free)
            }
            _ => walk_core,
        };
        let start = self.now.max(self.walker_free[walk_core.index()]);
        let (mem, policy) = (&mut self.mem, self.config.walk_latency);
        let result = self.spans.time(Layer::Walk, || {
            mem.walk_with(walk_core, l.asid, l.va, policy)
        });
        self.walks += 1;
        self.walker_free[walk_core.index()] = start + result.latency;
        l.entry = Some(TlbEntry::new(l.asid, result.vpn, result.ppn));
        self.txs.insert(id, Tx::Lookup(l));
        self.push(
            start + result.latency + WALK_REPLAY_PENALTY,
            Event::WalkDone(id),
        );
        Ok(())
    }

    fn walk_done(&mut self, id: u64) -> Result<(), String> {
        let l = self.lookup(id)?;
        let entry = l.entry.ok_or("walk stored no translation")?;
        if self.is_local(&l) {
            self.insert_home(l.home_idx, entry);
        } else {
            let iid = self.alloc_tx();
            self.txs.insert(iid, Tx::Insert(entry));
            self.submit(
                self.now,
                Message::new(iid, l.requester, l.home_tile, MsgKind::Insert),
            );
        }
        self.complete_translation(id)
    }

    fn insert_home(&mut self, home_idx: usize, entry: TlbEntry) {
        let slice = self.org.structure_mut(home_idx);
        slice.schedule_write(self.now);
        slice.insert(entry);
    }

    fn complete_translation(&mut self, id: u64) -> Result<(), String> {
        let l = match self.txs.remove(&id) {
            Some(Tx::Lookup(l)) => l,
            _ => return Err(format!("transaction {id} vanished")),
        };
        let entry = l.entry.ok_or("translation completed unresolved")?;
        self.l1s[l.requester.index()].insert(entry);
        let latency = self.data_access(l.requester, entry.translate(l.va), l.is_write);
        self.complete_access(l.thread, self.now + data_cost(latency));
        Ok(())
    }

    fn complete_access(&mut self, t: usize, done: Cycle) {
        let state = &mut self.threads[t];
        state.accesses_done += 1;
        state.finish_time = done;
        if self.warm_target > 0 && state.accesses_done == self.warm_target {
            self.warm_crossed += 1;
            if self.warm_crossed == self.threads.len() {
                self.reset_statistics();
            }
        }
        let state = &mut self.threads[t];
        if state.accesses_done >= self.target {
            state.finished = true;
            self.completed_threads += 1;
        } else {
            self.push(done, Event::ThreadNext(t));
        }
    }

    /// A chip-wide shootdown after a remap. Every core's IPI handler
    /// relays one invalidation to the slice it would look the page up in
    /// (its own cluster's under hier; the one home otherwise).
    fn shootdown(&mut self, asid: Asid, vpn: VirtPageNum) {
        for l1 in &mut self.l1s {
            l1.invalidate(asid, vpn);
        }
        if !self.has_net() {
            self.org.invalidate(asid, vpn);
            return;
        }
        for core in CoreId::all(self.config.cores) {
            let (home_idx, tile) = self.org.home_of(vpn, core);
            let id = self.alloc_tx();
            self.txs.insert(
                id,
                Tx::Inval {
                    asid,
                    vpn,
                    home_idx,
                },
            );
            self.submit(
                self.now,
                Message::new(id, core, tile, MsgKind::Invalidation),
            );
        }
    }

    fn handle_delivery(&mut self, d: Delivery) -> Result<(), String> {
        let id = d.msg.id;
        match d.msg.kind {
            MsgKind::TlbRequest => self.slice_lookup(id, d.at),
            MsgKind::TlbResponse => {
                let l = self.lookup(id)?;
                if l.entry.is_some() {
                    self.complete_translation(id)
                } else {
                    self.start_walk(id, l.requester)
                }
            }
            MsgKind::Insert => {
                let Some(Tx::Insert(entry)) = self.txs.remove(&id) else {
                    return Err(format!("no insert transaction {id}"));
                };
                let (idx, _) = self.org.home_of(entry.vpn(), d.msg.dst);
                self.insert_home(idx, entry);
                Ok(())
            }
            MsgKind::Invalidation => {
                let Some(Tx::Inval {
                    asid,
                    vpn,
                    home_idx,
                }) = self.txs.remove(&id)
                else {
                    return Err(format!("no invalidation transaction {id}"));
                };
                let slice = self.org.structure_mut(home_idx);
                slice.schedule_write(self.now);
                slice.invalidate(asid, vpn);
                Ok(())
            }
        }
    }

    /// The warmup boundary: forget what was counted, keep the contents.
    fn reset_statistics(&mut self) {
        for l1 in &mut self.l1s {
            l1.reset_stats();
        }
        self.org.reset_stats();
        self.mem.reset_cache_stats();
        self.net.reset_stats();
        self.walks = 0;
    }

    /// Adds the statistics of the leg that just ended to the totals.
    fn harvest(&mut self) {
        let m = &mut self.measured;
        m.slice.merge(self.org.merged_stats());
        m.walks += self.walks;
        let (l1, l2, llc) = self.mem.cache_stats();
        for (total, level) in m.caches.iter_mut().zip([l1, l2, llc]) {
            total.merge(level);
        }
        for i in 0..self.org.count() {
            m.queue_wait.merge(self.org.structure(i).queue_delay());
        }
    }

    fn run_exact(&mut self, warmup: u64, measure: u64) -> Result<(), String> {
        self.warm_target = warmup;
        self.warm_crossed = if warmup == 0 { self.threads.len() } else { 0 };
        self.target = warmup + measure;
        for t in 0..self.threads.len() {
            self.thread_next(t)?;
        }
        self.event_loop()?;
        self.harvest();
        Ok(())
    }

    // ----- sampled replay (mirrors `Simulation::sampled_loop`) ------------

    fn run_sampled(&mut self, spec: SampleSpec, span: u64) -> Result<(), String> {
        let mut consumed = 0u64;
        let mut ff = spec.offset();
        while consumed + ff + spec.warmup() + spec.window() <= span {
            self.fast_forward(ff)?;
            consumed += ff;
            self.detailed_leg(spec.warmup(), spec.window())?;
            consumed += spec.warmup() + spec.window();
            self.harvest();
            ff = spec.slack();
        }
        Ok(())
    }

    fn fast_forward(&mut self, quota: u64) -> Result<(), String> {
        for _ in 0..quota {
            for t in 0..self.threads.len() {
                loop {
                    let (ev, asid) = self.next_event(t);
                    match ev {
                        TraceEvent::Access(a) => {
                            self.functional_access(t, asid, a);
                            self.threads[t].accesses_done += 1;
                            break;
                        }
                        TraceEvent::Remap(vpn) => {
                            if self.mem.remap(asid, vpn).is_some() {
                                for l1 in &mut self.l1s {
                                    l1.invalidate(asid, vpn);
                                }
                                self.org.invalidate(asid, vpn);
                            }
                        }
                        TraceEvent::ContextSwitch
                        | TraceEvent::Promote(_)
                        | TraceEvent::Demote(_) => return Err(UNMODELLED_EVENT.into()),
                    }
                }
            }
        }
        Ok(())
    }

    fn functional_access(&mut self, t: usize, asid: Asid, access: MemAccess) {
        let va = access.va;
        let core = self.threads[t].core;
        let l1 = &mut self.l1s[core.index()];
        if let Some(entry) = self.spans.time(Layer::L1Touch, || l1.touch(asid, va)) {
            self.warm_access(core, entry.translate(va), access.is_write);
            return;
        }
        let size = self.feeds[t].backing(va);
        let home_vpn = va.page_number(size);
        let (home_idx, _) = self.org.home_of(home_vpn, core);
        let slice = self.org.structure_mut(home_idx);
        if let Some(entry) = self
            .spans
            .time(Layer::SliceTouch, || slice.touch(asid, home_vpn))
        {
            self.l1s[core.index()].insert(entry);
            self.warm_access(core, entry.translate(va), access.is_write);
            return;
        }
        let mem = &mut self.mem;
        let (vpn, ppn) = self
            .spans
            .time(Layer::Translate, || mem.resolve_mapped(asid, va, size));
        if self.config.walk_latency == WalkLatency::Variable {
            let mem = &mut self.mem;
            self.spans
                .time(Layer::WarmWalk, || mem.warm_walk(core, asid, va));
        }
        let entry = TlbEntry::new(asid, vpn, ppn);
        self.org.structure_mut(home_idx).insert(entry);
        self.l1s[core.index()].insert(entry);
        self.warm_access(core, entry.translate(va), access.is_write);
    }

    fn detailed_leg(&mut self, warmup: u64, window: u64) -> Result<(), String> {
        let done = self.threads[0].accesses_done;
        self.warm_target = done + warmup;
        self.warm_crossed = 0;
        self.target = done + warmup + window;
        self.completed_threads = 0;
        let resume = self
            .threads
            .iter()
            .map(|th| th.finish_time)
            .fold(self.now, Cycle::max);
        for t in 0..self.threads.len() {
            self.threads[t].finished = false;
            self.push(resume, Event::ThreadNext(t));
        }
        self.event_loop()
    }
}

/// What one traced run measured.
pub(crate) struct Profile {
    spans: Spans,
    empty_span_ns: f64,
    traced_run_s: f64,
    deliveries: u64,
    measured: Measured,
    report: SimReport,
}

/// Runs workload `w` under the traced replay and keeps the simulator's
/// own `report` of the same workload and seed for the ratios.
pub(crate) fn profile(w: &Workload, seed: u64, report: &SimReport) -> Result<Profile, String> {
    let empty_span_ns = empty_span_ns();
    let mut d = Replay::new(w, seed)?;
    let start = Instant::now();
    match w.mode {
        Mode::Exact { warmup, measure } => d.run_exact(warmup, measure)?,
        Mode::Sampled { spec, span } => d.run_sampled(spec, span)?,
    }
    let traced_run_s = start.elapsed().as_secs_f64();
    Ok(Profile {
        spans: d.spans,
        empty_span_ns,
        traced_run_s,
        deliveries: d.deliveries,
        measured: d.measured,
        report: report.clone(),
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Profile {
    /// Every per-layer metric by name. Shares are of `untraced_run_s`, the
    /// median untraced run time of the same workload and seed.
    pub(crate) fn metrics(&self, untraced_run_s: f64) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        let mut share_sum = 0.0;
        for (layer, name) in LAYERS {
            let calls = self.spans.calls[layer as usize];
            let ns =
                (self.spans.ns[layer as usize] as f64 - calls as f64 * self.empty_span_ns).max(0.0);
            let share = ns / 1e9 / untraced_run_s;
            share_sum += share;
            out.push((format!("{name}.calls"), calls as f64));
            out.push((
                format!("{name}.ns_per_call"),
                if calls == 0 { 0.0 } else { ns / calls as f64 },
            ));
            out.push((format!("{name}.share"), share));
        }
        let r = &self.report;
        let m = &self.measured;
        let advances = self.spans.calls[Layer::NocAdvance as usize];
        let noc_no_contention = r
            .network
            .as_ref()
            .map_or(0.0, |n| n.no_contention_fraction());
        out.extend([
            ("core.residual.share".into(), 1.0 - share_sum),
            ("tlb.l1.hit_ratio".into(), r.l1.hit_rate()),
            ("tlb.slice.hit_ratio".into(), r.l2.hit_rate()),
            (
                "mem.walker.llc_or_mem_ratio".into(),
                ratio(r.walks_llc_or_mem, r.walks),
            ),
            ("mem.cache.l1d_hit_ratio".into(), m.caches[0].hit_rate()),
            ("mem.cache.l2_hit_ratio".into(), m.caches[1].hit_rate()),
            ("mem.cache.llc_hit_ratio".into(), m.caches[2].hit_rate()),
            ("noc.no_contention_fraction".into(), noc_no_contention),
            (
                "noc.deliveries_per_advance".into(),
                ratio(self.deliveries, advances),
            ),
            (
                "tlb.slice.queue_wait_mean_cycles".into(),
                m.queue_wait.mean(),
            ),
            (
                "trace.overhead_ratio".into(),
                self.traced_run_s / untraced_run_s - 1.0,
            ),
            (
                "trace.fidelity.slice_lookups".into(),
                ratio(m.slice.accesses(), r.l2.accesses()),
            ),
            ("trace.fidelity.walks".into(), ratio(m.walks, r.walks)),
            ("trace.empty_span_ns".into(), self.empty_span_ns),
        ]);
        out
    }
}
