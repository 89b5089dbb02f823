//! Simulation results.

use nocstar_energy::account::EnergyAccount;
use nocstar_json::Json;
use nocstar_noc::NocStats;
use nocstar_stats::counter::HitMiss;
use nocstar_stats::histogram::ConcurrencyBins;
use nocstar_stats::latency::LatencyRecorder;
use nocstar_stats::metrics::{MetricValue, MetricsSnapshot};
use nocstar_stats::summary;
use nocstar_stats::tracing::TraceRecord;
use nocstar_stats::Log2Histogram;
use std::fmt;

use crate::sampling::SamplingReport;

/// Everything measured by one simulation run.
///
/// Only the simulator builds one: the type is `#[non_exhaustive]`, so a
/// struct literal outside this crate — even a functional update of an
/// existing report — does not compile, and no harness code can put a
/// value into a report that the run did not measure. Fields stay public
/// to read.
///
/// ```compile_fail,E0639
/// fn rewrite(r: nocstar_core::SimReport) -> nocstar_core::SimReport {
///     nocstar_core::SimReport { cycles: 0, ..r }
/// }
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SimReport {
    /// Workload label.
    pub label: String,
    /// Organization label (`private`, `nocstar`, …).
    pub org_label: String,
    /// Core count.
    pub cores: usize,
    /// Total runtime in cycles (until the last thread finished its quota).
    pub cycles: u64,
    /// Total memory accesses completed.
    pub accesses: u64,
    /// Per-hardware-thread finish times (cycle of each thread's last
    /// access) — the basis for per-application speedups in Fig 18.
    pub per_thread_finish: Vec<u64>,
    /// Combined L1 TLB hit/miss statistics.
    pub l1: HitMiss,
    /// Combined L2 TLB (private / banks / slices) hit/miss statistics.
    pub l2: HitMiss,
    /// Per-structure (private L2 / bank / slice) hit/miss statistics, in
    /// structure order — shows slice load balance and hotspots.
    pub per_structure: Vec<HitMiss>,
    /// Valid L2 entries at the end of the run (all structures).
    pub l2_occupancy: usize,
    /// Page walks performed.
    pub walks: u64,
    /// Walks whose PTE reads left the private caches (LLC or DRAM).
    pub walks_llc_or_mem: u64,
    /// Shootdowns processed.
    pub shootdowns: u64,
    /// Context-switch TLB flushes processed.
    pub flushes: u64,
    /// Chip-wide concurrent-L2-access distribution (Figs 5, 6 left).
    pub chip_concurrency: ConcurrencyBins,
    /// Per-slice concurrent-access distribution, merged over slices
    /// (Fig 6 right).
    pub slice_concurrency: ConcurrencyBins,
    /// End-to-end translation latency of L1-miss accesses.
    pub translation_latency: LatencyRecorder,
    /// Interconnect statistics (None for organizations without a network).
    pub network: Option<NocStats>,
    /// Address-translation energy account.
    pub energy: EnergyAccount,
    /// Detailed metrics snapshot (empty unless `SystemConfig::metrics`).
    pub metrics: MetricsSnapshot,
    /// Retained trace records, oldest first (empty unless
    /// `SystemConfig::trace_capacity` is nonzero).
    pub trace: Vec<TraceRecord>,
    /// Trace records overwritten because the ring buffer was full.
    pub trace_dropped: u64,
    /// Sampled-replay estimates (`SAMPLING.md §4`). `None` for exact runs,
    /// and the `sampling` JSON key is omitted entirely in that case, so
    /// exact-mode golden reports stay byte-identical.
    pub sampling: Option<SamplingReport>,
}

impl SimReport {
    /// Runtime speedup of this run versus a baseline run of the same
    /// workload and work quota.
    ///
    /// # Panics
    ///
    /// Panics if the runs did different amounts of work.
    pub fn speedup_vs(&self, baseline: &SimReport) -> f64 {
        assert_eq!(
            self.accesses, baseline.accesses,
            "speedup requires equal work"
        );
        summary::speedup(baseline.cycles, self.cycles)
    }

    /// Aggregate throughput (completed accesses per kilocycle, summed over
    /// threads' individual finish times) — the Fig 18 "overall throughput"
    /// metric.
    pub fn throughput(&self) -> f64 {
        let per_thread = self.accesses as f64 / self.per_thread_finish.len() as f64;
        self.per_thread_finish
            .iter()
            .map(|&f| per_thread / (f.max(1) as f64) * 1000.0)
            // nocstar-lint: allow(float-accumulation): display-only summary metric reduced in the fixed per_thread_finish order; the golden harness pins its bytes
            .sum()
    }

    /// Per-application finish times for a mix with `threads_per_app`
    /// consecutive threads per application: the max finish among each
    /// app's threads.
    pub fn app_finish_times(&self, threads_per_app: usize) -> Vec<u64> {
        assert!(threads_per_app > 0, "apps need threads");
        self.per_thread_finish
            .chunks(threads_per_app)
            .map(|c| c.iter().copied().max().unwrap_or(0))
            .collect()
    }

    /// Fraction of private-baseline L2 misses this run eliminated
    /// (the Fig 2 metric).
    pub fn misses_eliminated_vs(&self, baseline: &SimReport) -> f64 {
        let base = baseline.l2.misses() as f64;
        if base == 0.0 {
            0.0
        } else {
            (base - self.l2.misses() as f64).max(0.0) / base * 100.0
        }
    }

    /// Fraction of walks that needed the LLC or DRAM (the paper reports
    /// 70–87 % on the baseline).
    pub fn walk_llc_fraction(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.walks_llc_or_mem as f64 / self.walks as f64
        }
    }

    /// Serializes the full report as JSON. Output is deterministic: object
    /// keys keep insertion order, metric samples are name-sorted, and trace
    /// records appear oldest-first — equal runs produce byte-identical
    /// text, which the golden-report and determinism tests rely on.
    pub fn to_json(&self) -> Json {
        let per_structure = Json::Arr(self.per_structure.iter().map(hitmiss_json).collect());
        let metrics = Json::Obj(
            self.metrics
                .samples()
                .iter()
                .map(|s| (s.name.clone(), metric_json(&s.value)))
                .collect(),
        );
        let trace = Json::Arr(self.trace.iter().map(trace_json).collect());
        let network = match &self.network {
            Some(n) => network_json(n, self.cycles),
            None => Json::Null,
        };
        let mut entries = vec![
            ("label", Json::str(self.label.as_str())),
            ("org", Json::str(self.org_label.as_str())),
            ("cores", Json::U64(self.cores as u64)),
            ("cycles", Json::U64(self.cycles)),
            ("accesses", Json::U64(self.accesses)),
            (
                "per_thread_finish",
                Json::Arr(
                    self.per_thread_finish
                        .iter()
                        .map(|&f| Json::U64(f))
                        .collect(),
                ),
            ),
            ("l1", hitmiss_json(&self.l1)),
            ("l2", hitmiss_json(&self.l2)),
            ("per_structure", per_structure),
            ("l2_occupancy", Json::U64(self.l2_occupancy as u64)),
            ("walks", Json::U64(self.walks)),
            ("walks_llc_or_mem", Json::U64(self.walks_llc_or_mem)),
            ("shootdowns", Json::U64(self.shootdowns)),
            ("flushes", Json::U64(self.flushes)),
            ("chip_concurrency", concurrency_json(&self.chip_concurrency)),
            (
                "slice_concurrency",
                concurrency_json(&self.slice_concurrency),
            ),
            (
                "translation_latency",
                latency_json(&self.translation_latency),
            ),
            ("network", network),
            ("energy", energy_json(&self.energy)),
            ("metrics", metrics),
            ("trace", trace),
            ("trace_dropped", Json::U64(self.trace_dropped)),
        ];
        if let Some(sampling) = &self.sampling {
            entries.push(("sampling", sampling.to_json()));
        }
        Json::obj(entries)
    }
}

fn hitmiss_json(h: &HitMiss) -> Json {
    Json::obj(vec![
        ("hits", Json::U64(h.hits())),
        ("misses", Json::U64(h.misses())),
    ])
}

fn latency_json(l: &LatencyRecorder) -> Json {
    Json::obj(vec![
        ("count", Json::U64(l.count())),
        ("min", Json::U64(l.min().value())),
        ("mean", Json::F64(l.mean())),
        ("max", Json::U64(l.max().value())),
    ])
}

/// Log2 histograms serialize sparsely: `[bucket_index, count]` pairs for
/// the nonzero buckets only (bucket 0 holds zero-valued samples; bucket
/// `k` holds samples in `[2^(k-1), 2^k)`).
fn histogram_json(h: &Log2Histogram) -> Json {
    let buckets = h
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| Json::Arr(vec![Json::U64(i as u64), Json::U64(c)]))
        .collect();
    Json::obj(vec![
        ("count", Json::U64(h.count())),
        ("sum", Json::U64(h.sum())),
        ("buckets", Json::Arr(buckets)),
    ])
}

fn metric_json(v: &MetricValue) -> Json {
    match v {
        MetricValue::Counter(c) => Json::obj(vec![("counter", Json::U64(*c))]),
        MetricValue::Gauge(g) => Json::obj(vec![("gauge", Json::U64(*g))]),
        MetricValue::Histogram(h) => Json::obj(vec![("histogram", histogram_json(h))]),
    }
}

fn concurrency_json(c: &ConcurrencyBins) -> Json {
    Json::obj(vec![
        ("total", Json::U64(c.total())),
        (
            "fractions",
            Json::Arr(c.fractions().into_iter().map(Json::F64).collect()),
        ),
    ])
}

fn network_json(n: &NocStats, window: u64) -> Json {
    Json::obj(vec![
        ("delivered", Json::U64(n.delivered)),
        ("no_contention", Json::U64(n.no_contention)),
        ("retries", Json::U64(n.retries)),
        ("grants", Json::U64(n.grants)),
        ("rotations", Json::U64(n.rotations)),
        ("latency", latency_json(&n.latency)),
        (
            "link_busy",
            Json::Arr(n.link_busy.iter().map(|&b| Json::U64(b)).collect()),
        ),
        (
            "link_utilization",
            Json::Arr(
                n.link_utilization(window)
                    .into_iter()
                    .map(Json::F64)
                    .collect(),
            ),
        ),
    ])
}

fn energy_json(e: &EnergyAccount) -> Json {
    Json::obj(vec![
        ("l1_tlb_pj", Json::F64(e.l1_tlb_pj)),
        ("l2_tlb_pj", Json::F64(e.l2_tlb_pj)),
        ("noc_pj", Json::F64(e.noc_pj)),
        ("walk_pj", Json::F64(e.walk_pj)),
        ("static_pj", Json::F64(e.static_pj)),
        ("total_pj", Json::F64(e.total_pj())),
    ])
}

fn trace_json(r: &TraceRecord) -> Json {
    Json::Arr(vec![
        Json::U64(r.cycle),
        Json::U64(r.component as u64),
        Json::U64(r.kind as u64),
        Json::U64(r.a),
        Json::U64(r.b),
    ])
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {} cores [{}]: {} accesses in {} cycles",
            self.label, self.cores, self.org_label, self.accesses, self.cycles
        )?;
        writeln!(f, "  L1 TLB: {}  |  L2 TLB: {}", self.l1, self.l2)?;
        writeln!(
            f,
            "  walks: {} ({:.0}% to LLC/DRAM)  shootdowns: {}  flushes: {}",
            self.walks,
            self.walk_llc_fraction() * 100.0,
            self.shootdowns,
            self.flushes
        )?;
        write!(f, "  energy: {}", self.energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, misses_hits: (u64, u64), finishes: Vec<u64>) -> SimReport {
        let mut l2 = HitMiss::new();
        for _ in 0..misses_hits.0 {
            l2.miss();
        }
        for _ in 0..misses_hits.1 {
            l2.hit();
        }
        SimReport {
            label: "test".into(),
            org_label: "test".into(),
            cores: finishes.len(),
            cycles,
            accesses: 100 * finishes.len() as u64,
            per_thread_finish: finishes,
            l1: HitMiss::new(),
            l2,
            per_structure: Vec::new(),
            l2_occupancy: 0,
            walks: 10,
            walks_llc_or_mem: 8,
            shootdowns: 0,
            flushes: 0,
            chip_concurrency: ConcurrencyBins::new(),
            slice_concurrency: ConcurrencyBins::new(),
            translation_latency: LatencyRecorder::new(),
            network: None,
            energy: EnergyAccount::default(),
            metrics: MetricsSnapshot::default(),
            trace: Vec::new(),
            trace_dropped: 0,
            sampling: None,
        }
    }

    #[test]
    fn speedup_is_cycle_ratio() {
        let base = report(2000, (10, 90), vec![2000, 1500]);
        let fast = report(1000, (10, 90), vec![1000, 900]);
        assert_eq!(fast.speedup_vs(&base), 2.0);
    }

    #[test]
    fn misses_eliminated_is_a_percentage() {
        let base = report(1000, (100, 0), vec![1000]);
        let shared = report(1000, (25, 75), vec![1000]);
        assert_eq!(shared.misses_eliminated_vs(&base), 75.0);
        // More misses than baseline clamps to zero, not negative.
        let worse = report(1000, (150, 0), vec![1000]);
        assert_eq!(worse.misses_eliminated_vs(&base), 0.0);
    }

    #[test]
    fn throughput_sums_thread_rates() {
        let r = report(1000, (0, 0), vec![1000, 2000]);
        // 100 accesses each: 100/1000*1000 + 100/2000*1000 = 100 + 50.
        assert!((r.throughput() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn app_finish_times_group_threads() {
        let r = report(1000, (0, 0), vec![10, 20, 5, 40]);
        assert_eq!(r.app_finish_times(2), vec![20, 40]);
    }

    #[test]
    fn walk_llc_fraction_handles_zero_walks() {
        let mut r = report(1, (0, 0), vec![1]);
        r.walks = 0;
        r.walks_llc_or_mem = 0;
        assert_eq!(r.walk_llc_fraction(), 0.0);
    }

    #[test]
    fn display_is_multi_line_and_informative() {
        let text = report(1000, (1, 9), vec![1000]).to_string();
        assert!(text.contains("cycles"));
        assert!(text.contains("walks"));
        assert!(text.contains("energy"));
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let r = report(1000, (1, 9), vec![1000, 900]);
        let json = r.to_json();
        let text = json.to_string();
        let parsed = Json::parse(&text).expect("valid JSON");
        // Numeric types may narrow on parse (0.0 reads back as 0), so the
        // round-trip invariant is on the serialized text.
        assert_eq!(parsed.to_string(), text);
        assert_eq!(parsed.get("cycles").and_then(Json::as_u64), Some(1000));
        assert_eq!(
            parsed
                .get("l2")
                .and_then(|l| l.get("misses"))
                .and_then(Json::as_u64),
            Some(1)
        );
        // No network: the key is present but null.
        assert_eq!(parsed.get("network"), Some(&Json::Null));
        // Exact runs omit the sampling section entirely (golden stability).
        assert!(parsed.get("sampling").is_none());
    }

    #[test]
    fn json_serializes_metrics_and_trace() {
        let mut r = report(500, (0, 0), vec![500]);
        let mut reg = nocstar_stats::metrics::MetricsRegistry::enabled();
        let c = reg.counter("core.0.stall.walk_cycles");
        reg.add(c, 42);
        let h = reg.histogram("mem.walk_latency_cycles");
        reg.observe(h, 9);
        r.metrics = reg.snapshot();
        r.trace = vec![TraceRecord {
            cycle: 7,
            component: 3,
            kind: 1,
            a: 0x1000,
            b: 0,
        }];
        r.trace_dropped = 2;
        let json = r.to_json();
        let m = json.get("metrics").expect("metrics object");
        assert_eq!(
            m.get("core.0.stall.walk_cycles")
                .and_then(|v| v.get("counter"))
                .and_then(Json::as_u64),
            Some(42)
        );
        let hist = m
            .get("mem.walk_latency_cycles")
            .and_then(|v| v.get("histogram"))
            .expect("histogram");
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(1));
        let trace = json.get("trace").and_then(Json::as_array).expect("trace");
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].as_array().unwrap()[0].as_u64(), Some(7));
        assert_eq!(json.get("trace_dropped").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn identical_reports_serialize_identically() {
        let a = report(1000, (5, 5), vec![1000, 800]).to_json().to_string();
        let b = report(1000, (5, 5), vec![1000, 800]).to_json().to_string();
        assert_eq!(a, b);
    }
}
