//! Report rendering: human-readable and JSON.
//!
//! JSON serializes through `nocstar-json`, so equal reports always
//! produce byte-identical artifacts (the same property the simulator's
//! golden harness relies on).

use crate::{Finding, Report};
use nocstar_json::Json;
use std::fmt::Write as _;

/// Human-readable rendering, one line per finding plus a summary.
pub fn human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(
            out,
            "{}[{}]: {}:{}: {}\n    hint: {}",
            f.severity,
            f.rule,
            f.path.display(),
            f.line,
            f.message,
            f.hint
        );
    }
    let errors = report.error_count();
    let warns = report.findings.len() - errors;
    let _ = writeln!(
        out,
        "nocstar-lint: {} file(s) scanned, {errors} error(s), {warns} warning(s), \
         {} justified suppression(s)",
        report.files_scanned,
        report.suppressed.len()
    );
    out
}

fn finding_json(f: &Finding) -> Json {
    Json::obj(vec![
        ("rule", Json::str(&f.rule)),
        ("severity", Json::str(f.severity.name())),
        ("path", Json::str(f.path.to_string_lossy())),
        ("line", Json::U64(u64::from(f.line))),
        ("message", Json::str(&f.message)),
        ("hint", Json::str(&f.hint)),
    ])
}

/// JSON report: full findings, suppressions, and counts.
pub fn json(report: &Report) -> String {
    Json::obj(vec![
        ("tool", Json::str("nocstar-lint")),
        ("files_scanned", Json::U64(report.files_scanned as u64)),
        ("errors", Json::U64(report.error_count() as u64)),
        (
            "findings",
            Json::Arr(report.findings.iter().map(finding_json).collect()),
        ),
        (
            "suppressed",
            Json::Arr(report.suppressed.iter().map(finding_json).collect()),
        ),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Severity;
    use std::path::PathBuf;

    fn sample() -> Report {
        Report {
            findings: vec![Finding {
                rule: "float-accumulation".into(),
                severity: Severity::Error,
                path: PathBuf::from("crates/x/src/a.rs"),
                line: 7,
                message: "`.sum()` reduces floats in iteration order".into(),
                hint: "accumulate in integers".into(),
            }],
            suppressed: vec![],
            files_scanned: 3,
        }
    }

    #[test]
    fn human_output_names_rule_path_and_line() {
        let text = human(&sample());
        assert!(text.contains("error[float-accumulation]: crates/x/src/a.rs:7:"));
        assert!(text.contains("3 file(s) scanned, 1 error(s)"), "{text}");
    }

    #[test]
    fn json_is_valid_and_deterministic() {
        let r = sample();
        let j1 = json(&r);
        assert_eq!(j1, json(&r));
        let parsed = nocstar_json::Json::parse(&j1).unwrap();
        assert_eq!(parsed.get("errors").unwrap().as_u64(), Some(1));
        let findings = parsed.get("findings").unwrap().as_array().unwrap();
        assert_eq!(
            findings[0].get("rule").unwrap().as_str(),
            Some("float-accumulation")
        );
    }
}
