//! `tainted-event-time`: nondeterminism flowing into event-time sinks.

use super::{RawFinding, Rule};
use crate::scope::Scope;
use crate::source::SourceFile;
use crate::taint;

/// Flags nondeterministic values reaching event-time and report sinks.
///
/// Clippy bans the *sources* in sim crates (`clippy.toml`); this rule
/// runs the [`crate::taint`] dataflow pass to flag the *flows*, which
/// the tools class must avoid too: a clock read laundered through a
/// `let` chain before landing in `ev.at`, a hash-map iteration binding
/// used to stamp `at:` in a struct literal, entropy folded into a
/// `SimReport`. One finding per sink, with the source named in the
/// message so the report reads as "what flowed where".
///
/// The pass is per-function and per-file (no cross-crate propagation);
/// the gaps are documented in DESIGN.md §10.
pub struct TaintedEventTime;

impl Rule for TaintedEventTime {
    fn id(&self) -> &'static str {
        "tainted-event-time"
    }

    fn description(&self) -> &'static str {
        "a nondeterministic value (wall clock, entropy, hash-iteration order) flows \
         through local bindings into an event-time field or SimReport: two \
         identically-seeded runs will diverge"
    }

    fn fix_hint(&self) -> &'static str {
        "derive event times from simulated time and seeded RNG only; keep host \
         clocks and entropy out of the dataflow that reaches .at and SimReport"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<RawFinding>) {
        let scope = Scope::new(&file.ast);
        for f in &file.ast.fns {
            for tf in taint::analyze_fn(f, &file.toks, &scope) {
                out.push(RawFinding {
                    line: tf.line,
                    message: tf.message,
                });
            }
        }
    }
}
