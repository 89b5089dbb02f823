//! Clippy parity for the determinism rules that moved out of
//! `nocstar-lint`: `unordered-iteration`, `wall-clock`, `entropy-rng`
//! and `sim-unwrap`.
//!
//! Each fixture under `tests/clippy_fixtures/` becomes the `lib.rs` of a
//! throwaway crate in one scratch workspace under `target/`. Every crate
//! carries the root manifest's `[workspace.lints.clippy]` table verbatim
//! and depends on the vendored `rand` shim, and one `cargo clippy` run
//! reads the root `clippy.toml` through `CLIPPY_CONF_DIR`, exactly like
//! the `-D warnings` gate in `scripts/ci.sh`. Every `bad.rs` must fail
//! with its clippy lint (`entropy_rng/bad.rs` with a compile error: the
//! shim has no entropy-seeded constructors) and every `good.rs` must
//! compile with no diagnostic at all.

use nocstar_json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// What the gate must report for a bad fixture.
enum Expect {
    /// An error carrying each of these lint codes.
    Lints(&'static [&'static str]),
    /// A rustc error (an `E….` code): the fixture does not compile.
    CompileError,
}

/// (fixture directory, what its `bad.rs` must fail with).
const FIXTURES: &[(&str, Expect)] = &[
    (
        "unordered_iteration",
        Expect::Lints(&["clippy::disallowed_types"]),
    ),
    (
        "unordered_resolved",
        Expect::Lints(&["clippy::disallowed_types"]),
    ),
    ("wall_clock", Expect::Lints(&["clippy::disallowed_types"])),
    (
        "sim_unwrap",
        Expect::Lints(&["clippy::unwrap_used", "clippy::expect_used"]),
    ),
    ("entropy_rng", Expect::CompileError),
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// The root manifest's `[workspace.lints.clippy]` table body, verbatim.
fn workspace_clippy_lints(root: &Path) -> String {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let body: Vec<&str> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[workspace.lints.clippy]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .collect();
    assert!(
        body.iter().any(|l| l.contains("unwrap_used")),
        "root Cargo.toml has no [workspace.lints.clippy] table"
    );
    body.join("\n")
}

fn crate_name(dir: &str, kind: &str) -> String {
    format!("parity_{dir}_{kind}")
}

/// Writes the scratch workspace: one crate per fixture file.
fn write_workspace(root: &Path, scratch: &Path) {
    let lints = workspace_clippy_lints(root);
    let rand = root.join("third_party/rand");
    let mut members = Vec::new();
    for (dir, _) in FIXTURES {
        for kind in ["bad", "good"] {
            let name = crate_name(dir, kind);
            let src = std::fs::read_to_string(
                Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("tests/clippy_fixtures")
                    .join(dir)
                    .join(format!("{kind}.rs")),
            )
            .expect("fixture readable");
            let manifest = format!(
                "[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
                 publish = false\n\n[dependencies]\nrand = {{ path = {rand:?}, \
                 default-features = false, features = [\"std\", \"small_rng\"] }}\n\n\
                 [lints.clippy]\n{lints}\n",
                rand = rand.display().to_string(),
            );
            let krate = scratch.join(&name);
            std::fs::create_dir_all(krate.join("src")).expect("scratch crate dir");
            std::fs::write(krate.join("Cargo.toml"), manifest).expect("write manifest");
            std::fs::write(krate.join("src/lib.rs"), src).expect("write lib.rs");
            members.push(format!("{name:?}"));
        }
    }
    std::fs::write(
        scratch.join("Cargo.toml"),
        format!(
            "[workspace]\nresolver = \"2\"\nmembers = [{}]\n",
            members.join(", ")
        ),
    )
    .expect("write workspace manifest");
}

/// One crate's diagnostics under the gate.
#[derive(Default, Debug)]
struct Outcome {
    /// Codes of its error-level diagnostics: lint names or `E….`.
    codes: Vec<String>,
    /// Every diagnostic, rendered.
    diagnostics: Vec<String>,
}

fn run_clippy(root: &Path, scratch: &Path) -> BTreeMap<String, Outcome> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(scratch)
        .env("CLIPPY_CONF_DIR", root)
        .env("CARGO_TARGET_DIR", scratch.join("target"))
        .args([
            "clippy",
            "--offline",
            "--workspace",
            "--all-targets",
            "--keep-going",
            "--message-format=json",
            "--",
            "-D",
            "warnings",
        ])
        .output()
        .expect("cargo clippy runs");
    let mut outcomes: BTreeMap<String, Outcome> = BTreeMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let msg = Json::parse(line).unwrap_or_else(|e| panic!("bad cargo JSON {e:?}: {line}"));
        if msg.get("reason").and_then(Json::as_str) != Some("compiler-message") {
            continue;
        }
        let target = msg
            .get("target")
            .and_then(|t| t.get("name"))
            .and_then(Json::as_str)
            .expect("message names its target")
            .to_string();
        let diag = msg.get("message").expect("message body");
        let entry = outcomes.entry(target).or_default();
        let rendered = diag.get("rendered").and_then(Json::as_str).unwrap_or("");
        entry.diagnostics.push(rendered.to_string());
        if diag.get("level").and_then(Json::as_str) == Some("error") {
            if let Some(code) = diag
                .get("code")
                .and_then(|c| c.get("code"))
                .and_then(Json::as_str)
            {
                entry.codes.push(code.to_string());
            }
        }
    }
    assert!(
        !out.status.success(),
        "the bad fixtures must fail the gate; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    outcomes
}

#[test]
fn moved_rules_hold_under_the_clippy_gate() {
    let root = workspace_root();
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-parity");
    write_workspace(&root, &scratch);
    let outcomes = run_clippy(&root, &scratch);
    let mut failures = Vec::new();
    for (dir, expect) in FIXTURES {
        let codes = outcomes
            .get(&crate_name(dir, "bad"))
            .map_or(&[][..], |o| &o.codes[..]);
        match expect {
            Expect::Lints(lints) => {
                for lint in *lints {
                    if !codes.iter().any(|c| c == lint) {
                        failures.push(format!("{dir}/bad.rs must fail with `{lint}`: {codes:?}"));
                    }
                }
            }
            Expect::CompileError => {
                if !codes.iter().any(|c| c.starts_with('E')) {
                    failures.push(format!("{dir}/bad.rs must fail to compile: {codes:?}"));
                }
            }
        }
        if let Some(good) = outcomes.get(&crate_name(dir, "good")) {
            failures.push(format!(
                "{dir}/good.rs must pass the gate with no diagnostic:\n{}",
                good.diagnostics.join("\n")
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
