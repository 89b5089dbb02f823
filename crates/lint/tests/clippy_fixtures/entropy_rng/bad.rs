//! Fixture: entropy-seeded randomness. The vendored `rand` shim has no
//! entropy-seeded constructor, so this does not compile, test module
//! included (flaky tests are still flaky).

pub fn shuffle_seed() -> u64 {
    let mut rng = rand::thread_rng();
    let extra: u64 = rand::random();
    let from_os = SmallRng::from_entropy();
    let _ = (&mut rng, from_os);
    extra
}

#[cfg(test)]
mod tests {
    #[test]
    fn nondeterministic_test() {
        let noise: u64 = rand::random();
        assert!(noise >= 0);
    }
}
