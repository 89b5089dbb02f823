//! Per-window samples and whole-trace estimates for sampled replay.
//!
//! Normative spec: `SAMPLING.md` at the repository root. The simulation
//! loop harvests one `WindowSample` per measurement window
//! (`sim.rs`); this module reduces those samples to the per-access-rate
//! estimates of `SAMPLING.md §3` and carries the [`SamplingReport`]
//! section that [`SimReport`](crate::report::SimReport) emits for
//! sampled runs only — exact-mode reports never contain it, which keeps
//! their goldens byte-identical.

use nocstar_energy::account::EnergyAccount;
use nocstar_json::Json;
use nocstar_noc::NocStats;
use nocstar_stats::counter::HitMiss;
use nocstar_stats::histogram::ConcurrencyBins;
use nocstar_stats::interval::Interval;
use nocstar_stats::latency::LatencyRecorder;

/// Everything one measurement window measured, captured at leg end
/// (`SAMPLING.md §1`, "Harvest").
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowSample {
    /// Per-thread measured cycles (warmup crossing → finish).
    pub(crate) durations: Vec<u64>,
    /// Window runtime: the max of `durations`.
    pub(crate) runtime: u64,
    pub(crate) l1: HitMiss,
    pub(crate) l2: HitMiss,
    pub(crate) per_structure: Vec<HitMiss>,
    pub(crate) walks: u64,
    pub(crate) walks_llc_or_mem: u64,
    pub(crate) shootdowns: u64,
    pub(crate) flushes: u64,
    pub(crate) translation_latency: LatencyRecorder,
    pub(crate) energy: EnergyAccount,
    pub(crate) chip_concurrency: ConcurrencyBins,
    pub(crate) slice_concurrency: ConcurrencyBins,
    pub(crate) network: Option<NocStats>,
}

/// One estimated metric: its per-window samples and the reduced
/// [`Interval`] (`SAMPLING.md §3`).
#[derive(Debug, Clone)]
pub struct MetricEstimate {
    /// Metric name (the `SAMPLING.md §3` estimand table).
    pub name: &'static str,
    /// The per-window values the interval was estimated from.
    pub per_window: Vec<f64>,
    /// Mean, standard error and 95 % confidence interval.
    pub interval: Interval,
}

impl MetricEstimate {
    fn of(name: &'static str, per_window: Vec<f64>) -> Self {
        let interval = Interval::of(&per_window);
        Self {
            name,
            per_window,
            interval,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mean", Json::F64(self.interval.mean())),
            ("stderr", Json::F64(self.interval.stderr())),
            (
                "ci95",
                Json::Arr(vec![
                    Json::F64(self.interval.lo()),
                    Json::F64(self.interval.hi()),
                ]),
            ),
            ("degenerate", Json::Bool(self.interval.is_degenerate())),
            (
                "per_window",
                Json::Arr(self.per_window.iter().map(|&v| Json::F64(v)).collect()),
            ),
        ])
    }
}

/// The `sampling` section of a sampled run's report (`SAMPLING.md §4`).
#[derive(Debug, Clone)]
pub struct SamplingReport {
    /// Canonical spec echo, `<period>:<window>:<warmup>@<seed>`.
    pub spec: String,
    /// Accesses per thread from one window start to the next.
    pub period: u64,
    /// Measured accesses per thread per window.
    pub window: u64,
    /// Detailed-warmup accesses per thread per window.
    pub warmup: u64,
    /// The placement seed.
    pub seed: u64,
    /// The first leg's fast-forward quota, `splitmix64(seed) mod (slack+1)`.
    pub offset: u64,
    /// Measurement windows completed.
    pub windows: u64,
    /// The replayed span, in accesses per thread.
    pub span_accesses_per_thread: u64,
    /// Accesses (all threads) consumed functionally, outside the
    /// cycle-accurate core.
    pub accesses_fast_forwarded: u64,
    /// Accesses (all threads) that entered the cycle-accurate core
    /// (warmup + window per leg).
    pub accesses_detailed: u64,
    /// Per-metric whole-trace estimates, in the `SAMPLING.md §3` table
    /// order.
    pub estimates: Vec<MetricEstimate>,
}

impl SamplingReport {
    /// Serializes the section; estimates keep table order, so equal runs
    /// produce byte-identical text.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("spec", Json::str(self.spec.as_str())),
            ("period", Json::U64(self.period)),
            ("window", Json::U64(self.window)),
            ("warmup", Json::U64(self.warmup)),
            ("seed", Json::U64(self.seed)),
            ("offset", Json::U64(self.offset)),
            ("windows", Json::U64(self.windows)),
            (
                "span_accesses_per_thread",
                Json::U64(self.span_accesses_per_thread),
            ),
            (
                "accesses_fast_forwarded",
                Json::U64(self.accesses_fast_forwarded),
            ),
            ("accesses_detailed", Json::U64(self.accesses_detailed)),
            (
                "estimates",
                Json::Obj(
                    self.estimates
                        .iter()
                        .map(|e| (e.name.to_string(), e.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// The estimate for `name`, if present.
    pub fn estimate(&self, name: &str) -> Option<&MetricEstimate> {
        self.estimates.iter().find(|e| e.name == name)
    }
}

/// Reduces the window samples to the `SAMPLING.md §3` estimand table.
/// Empty when no window completed (a partial/aborted sampled run).
pub(crate) fn estimates(
    windows: &[WindowSample],
    window_quota: u64,
    threads: usize,
) -> Vec<MetricEstimate> {
    if windows.is_empty() {
        return Vec::new();
    }
    let measured = (window_quota * threads as u64) as f64;
    let per = |f: &dyn Fn(&WindowSample) -> f64| windows.iter().map(f).collect::<Vec<f64>>();
    vec![
        MetricEstimate::of(
            "cycles_per_access",
            per(&|w| w.runtime as f64 / window_quota as f64),
        ),
        MetricEstimate::of("l1_miss_rate", per(&|w| w.l1.miss_rate())),
        MetricEstimate::of("l2_miss_rate", per(&|w| w.l2.miss_rate())),
        MetricEstimate::of("walks_per_access", per(&|w| w.walks as f64 / measured)),
        MetricEstimate::of(
            "walks_llc_or_mem_per_access",
            per(&|w| w.walks_llc_or_mem as f64 / measured),
        ),
        MetricEstimate::of(
            "shootdowns_per_access",
            per(&|w| w.shootdowns as f64 / measured),
        ),
        MetricEstimate::of("flushes_per_access", per(&|w| w.flushes as f64 / measured)),
        MetricEstimate::of(
            "translation_latency_mean",
            per(&|w| w.translation_latency.mean()),
        ),
        MetricEstimate::of(
            "energy_pj_per_access",
            per(&|w| w.energy.total_pj() / measured),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(runtime: u64, walks: u64) -> WindowSample {
        WindowSample {
            durations: vec![runtime],
            runtime,
            l1: HitMiss::new(),
            l2: HitMiss::new(),
            per_structure: Vec::new(),
            walks,
            walks_llc_or_mem: 0,
            shootdowns: 0,
            flushes: 0,
            translation_latency: LatencyRecorder::new(),
            energy: EnergyAccount::default(),
            chip_concurrency: ConcurrencyBins::new(),
            slice_concurrency: ConcurrencyBins::new(),
            network: None,
        }
    }

    #[test]
    fn estimates_cover_the_estimand_table_in_order() {
        let windows = vec![window(600, 12), window(660, 9)];
        let ests = estimates(&windows, 60, 1);
        let names: Vec<&str> = ests.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "cycles_per_access",
                "l1_miss_rate",
                "l2_miss_rate",
                "walks_per_access",
                "walks_llc_or_mem_per_access",
                "shootdowns_per_access",
                "flushes_per_access",
                "translation_latency_mean",
                "energy_pj_per_access",
            ]
        );
        let cpa = &ests[0];
        assert_eq!(cpa.per_window, vec![10.0, 11.0]);
        assert!((cpa.interval.mean() - 10.5).abs() < 1e-12);
        let wpa = &ests[3];
        assert_eq!(wpa.per_window, vec![0.2, 0.15]);
    }

    #[test]
    fn no_windows_means_no_estimates() {
        assert!(estimates(&[], 60, 4).is_empty());
    }

    #[test]
    fn json_section_is_deterministic_and_ordered() {
        let windows = vec![window(600, 12), window(660, 9), window(630, 10)];
        let report = SamplingReport {
            spec: "1000:60:30@7".into(),
            period: 1000,
            window: 60,
            warmup: 30,
            seed: 7,
            offset: 123,
            windows: 3,
            span_accesses_per_thread: 3200,
            accesses_fast_forwarded: 2930,
            accesses_detailed: 270,
            estimates: estimates(&windows, 60, 1),
        };
        let a = report.to_json().to_string();
        let b = report.to_json().to_string();
        assert_eq!(a, b);
        let parsed = Json::parse(&a).expect("valid JSON");
        assert_eq!(parsed.get("windows").and_then(Json::as_u64), Some(3));
        let est = parsed
            .get("estimates")
            .and_then(|e| e.get("cycles_per_access"))
            .expect("cycles_per_access estimate");
        assert!(est.get("ci95").is_some());
        assert_eq!(est.get("degenerate"), Some(&Json::Bool(false)));
        assert_eq!(
            report.estimate("l1_miss_rate").map(|e| e.name),
            Some("l1_miss_rate")
        );
    }
}
