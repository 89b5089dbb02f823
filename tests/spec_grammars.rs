//! Property tests for the three user-facing spec grammars: `--faults`
//! ([`FaultPlan`]), `--recovery` ([`RecoveryPolicy`]) and `--sample`
//! ([`SampleSpec`]).
//!
//! Whatever string arrives, each parser returns `Ok` or `Err` and never
//! panics. An accepted fault plan stays inside the magnitude ceiling, and
//! `SampleSpec`, the one grammar with a `Display`, round-trips
//! parse → display → parse.

use nocstar::faults::{LinkFaultKind, MAX_FAULT_MAGNITUDE};
use nocstar::prelude::*;
use proptest::prelude::*;

/// Fragments of all three grammars, edge-case numbers, and stray bytes.
/// Concatenations of these reach every branch of the parsers far more
/// often than uniform random text does.
const TOKENS: &[&str] = &[
    "seed=",
    "retry=",
    "inf",
    "deny@",
    "storm@",
    "walk@",
    "link:",
    "slice:",
    "cluster:",
    "reroute",
    "rehome",
    "failover",
    "escalate=",
    "all",
    "*",
    "@",
    "-",
    "=",
    "+",
    "x",
    "off",
    ":",
    "/",
    ";",
    " ",
    "0",
    "1",
    "7",
    "1000",
    "1000000",
    "1000001",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "é",
    "\u{0}",
    "\n",
];

/// Two hostile inputs per case: a concatenation of grammar tokens, and
/// raw bytes decoded lossily.
fn inputs(parts: &[&str], bytes: &[u8]) -> [String; 2] {
    [parts.concat(), String::from_utf8_lossy(bytes).into_owned()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn fault_plans_parse_or_reject_within_the_ceiling(
        parts in prop::collection::vec(prop::sample::select(TOKENS.to_vec()), 0..16),
        bytes in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        for s in inputs(&parts, &bytes) {
            let Ok(plan) = FaultPlan::parse(&s) else { continue };
            for f in &plan.link_faults {
                if let LinkFaultKind::Degrade(extra) = f.kind {
                    prop_assert!(extra <= MAX_FAULT_MAGNITUDE, "{s:?}: +{extra}");
                }
            }
            for w in &plan.walk_spikes {
                prop_assert!(w.multiplier <= MAX_FAULT_MAGNITUDE, "{s:?}: x{}", w.multiplier);
            }
        }
    }

    #[test]
    fn fault_magnitudes_parse_exactly_up_to_the_ceiling(
        walk in any::<bool>(),
        magnitude in prop_oneof![
            0u64..=2 * MAX_FAULT_MAGNITUDE,
            any::<u64>(),
            MAX_FAULT_MAGNITUDE - 1..=MAX_FAULT_MAGNITUDE + 1,
        ],
        start in 0u64..1_000,
    ) {
        let spec = if walk {
            format!("walk@{start}-100000=x{magnitude}")
        } else {
            format!("link:*@{start}-100000=+{magnitude}")
        };
        let parsed = FaultPlan::parse(&spec);
        prop_assert_eq!(parsed.is_ok(), magnitude <= MAX_FAULT_MAGNITUDE, "{spec}: {parsed:?}");
        if let Err(e) = parsed {
            prop_assert!(e.contains("at byte 0"), "{spec}: {e}");
        }
    }

    #[test]
    fn recovery_policies_parse_or_reject(
        parts in prop::collection::vec(prop::sample::select(TOKENS.to_vec()), 0..16),
        bytes in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        for s in inputs(&parts, &bytes) {
            let _ = RecoveryPolicy::parse(&s);
        }
    }

    #[test]
    fn sample_specs_parse_or_reject_and_round_trip(
        parts in prop::collection::vec(prop::sample::select(TOKENS.to_vec()), 0..16),
        bytes in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        for s in inputs(&parts, &bytes) {
            if let Ok(spec) = s.parse::<SampleSpec>() {
                prop_assert_eq!(spec.to_string().parse::<SampleSpec>(), Ok(spec));
            }
        }
    }

    #[test]
    fn valid_sample_specs_round_trip(
        period in any::<u64>(),
        window in prop_oneof![1u64..100, any::<u64>()],
        warmup in prop_oneof![1u64..100, any::<u64>()],
        seed in any::<u64>(),
    ) {
        let text = format!("{period}:{window}:{warmup}@{seed}");
        match SampleSpec::new(period, window, warmup, seed) {
            Ok(spec) => {
                prop_assert_eq!(text.parse::<SampleSpec>(), Ok(spec));
                prop_assert_eq!(spec.to_string(), text);
            }
            Err(e) => prop_assert_eq!(text.parse::<SampleSpec>(), Err(e)),
        }
    }
}
