//! Fixture: suppressions without a justification are rejected — the
//! original finding still fires AND the malformed comment is its own
//! error.

pub fn mean_ns(samples: &[f64]) -> f64 {
    // nocstar-lint: allow(float-accumulation)
    let total: f64 = samples.iter().sum();
    total / samples.len() as f64
}
