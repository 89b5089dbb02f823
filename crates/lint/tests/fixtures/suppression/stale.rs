//! Fixture: a well-formed suppression whose rule runs but silences
//! nothing is stale — the float sum it excused was fixed, so the comment
//! must be deleted (and failing the build is how we find out).

pub fn total_ns(samples: &[u64]) -> u64 {
    // nocstar-lint: allow(float-accumulation): leftover from a removed float sum
    samples.iter().sum()
}
