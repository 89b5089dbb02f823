//! Fixture: a justified suppression silences its finding (which then
//! shows up in the report's `suppressed` list, not `findings`).

pub fn mean_ns(samples: &[f64]) -> f64 {
    debug_assert!(!samples.is_empty());
    // nocstar-lint: allow(float-accumulation): fixed-order slice, display-only summary
    let total: f64 = samples.iter().sum();
    total / samples.len() as f64
}
