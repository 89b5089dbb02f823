//! Forward dataflow-lite: "nondeterministic" taint propagation.
//!
//! Sources are the things that make two identically-seeded runs differ:
//! host-clock reads (`Instant`, `SystemTime`), entropy-seeded RNG
//! (`thread_rng`, `from_entropy`, `OsRng`, `rand::random`), and
//! iteration over a hash-ordered collection (resolved through the
//! [`crate::scope`] table, so a `HashMap` behind an alias or a struct
//! field still counts). Taint propagates forward through `let` chains
//! (`let t = source(); let u = t + 1;` taints `u`) and `for` bindings
//! (`for k in map.keys()` taints `k`); any expression mentioning a
//! tainted name is tainted.
//!
//! Sinks are where nondeterminism becomes a wrong *report* rather than
//! just a wrong value: writes to an event-time field (`ev.at = …`,
//! `at: …` in a struct literal) and `SimReport { … }` construction.
//! The pass is per-function and flow-insensitive below statement
//! granularity — sound enough to catch the let-chain smuggling the
//! token rules cannot see, cheap enough to run on every lint.

use crate::lexer::{Tok, TokKind};
use crate::parser::FnDef;
use crate::scope::{Scope, TypeClass};
use std::collections::BTreeSet;

/// Identifiers that read host time or OS entropy — taint sources on
/// sight. Clippy bans the same sources in sim crates (`clippy.toml`);
/// this pass also follows them through tools code into event times.
const SOURCE_IDENTS: &[&str] = &[
    "Instant",
    "SystemTime",
    "UNIX_EPOCH",
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
];

/// Methods that iterate a collection in its own order; on a hash-ordered
/// receiver these yield values in a run-varying order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_keys",
    "into_values",
];

/// Event-time field names, shared with the `event-time-regression` rule.
const TIME_FIELDS: &[&str] = &["at"];

/// Report types whose construction is a determinism sink.
const REPORT_TYPES: &[&str] = &["SimReport"];

/// One taint-flow finding.
#[derive(Debug, Clone)]
pub struct TaintFinding {
    /// 1-based line of the sink.
    pub line: u32,
    /// What flowed where.
    pub message: String,
}

/// Runs the taint pass over one function.
pub fn analyze_fn(f: &FnDef, toks: &[Tok], scope: &Scope<'_>) -> Vec<TaintFinding> {
    let mut tainted: BTreeSet<String> = BTreeSet::new();

    // Forward pass over the binding statements, in source order. `let`
    // bindings and `for` bindings are interleaved by line so a `for`
    // over a tainted let-bound iterator taints its binding.
    let mut events: Vec<(u32, Event<'_>)> = Vec::new();
    for l in &f.lets {
        if let Some(init) = l.init {
            events.push((l.line, Event::Let(l.name.as_str(), init)));
        }
    }
    for fl in &f.fors {
        if let Some(b) = &fl.binding {
            events.push((fl.line, Event::For(b.as_str(), fl.iter)));
        }
    }
    events.sort_by_key(|(line, _)| *line);
    for (_, ev) in events {
        let (name, range) = match ev {
            Event::Let(name, range) | Event::For(name, range) => (name, range),
        };
        if expr_taint(f, toks, range, &tainted, scope).is_some() {
            tainted.insert(name.to_string());
        }
    }

    // Sink pass over the whole body.
    let mut out = Vec::new();
    let (start, end) = f.body;
    let end = end.min(toks.len());
    let mut i = start;
    while i < end {
        let t = &toks[i];
        // `.at = rhs` / `.at += rhs` / `.at -= rhs`
        if i > start && toks[i - 1].is_punct('.') && TIME_FIELDS.iter().any(|n| t.is_ident(n)) {
            let assign_rhs = match (toks.get(i + 1), toks.get(i + 2)) {
                (Some(n1), Some(n2)) if n1.is_punct('=') && !n2.is_punct('=') => Some(i + 2),
                (Some(n1), Some(n2))
                    if (n1.is_punct('+') || n1.is_punct('-')) && n2.is_punct('=') =>
                {
                    Some(i + 3)
                }
                _ => None,
            };
            if let Some(rhs) = assign_rhs {
                let rhs_end = stmt_end(toks, rhs, end);
                if let Some(desc) = expr_taint(f, toks, (rhs, rhs_end), &tainted, scope) {
                    out.push(TaintFinding {
                        line: t.line,
                        message: format!(
                            "event time `.{}` is set from a nondeterministic value ({desc})",
                            t.text
                        ),
                    });
                }
                i = rhs_end;
                continue;
            }
        }
        // Struct-literal field init `at: expr` (preceded by `{` or `,`).
        if t.kind == TokKind::Ident
            && TIME_FIELDS.contains(&t.text.as_str())
            && i > start
            && (toks[i - 1].is_punct('{') || toks[i - 1].is_punct(','))
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            let val_start = i + 2;
            let val_end = field_init_end(toks, val_start, end);
            if let Some(desc) = expr_taint(f, toks, (val_start, val_end), &tainted, scope) {
                out.push(TaintFinding {
                    line: t.line,
                    message: format!(
                        "event-time field `{}:` is initialized from a nondeterministic \
                         value ({desc})",
                        t.text
                    ),
                });
            }
            i = val_end;
            continue;
        }
        // `SimReport { … }` construction with any tainted field value.
        if t.kind == TokKind::Ident
            && REPORT_TYPES.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('{'))
        {
            let lit_end = brace_end(toks, i + 1, end);
            if let Some(desc) = expr_taint(f, toks, (i + 2, lit_end), &tainted, scope) {
                out.push(TaintFinding {
                    line: t.line,
                    message: format!(
                        "`{}` is constructed from a nondeterministic value ({desc})",
                        t.text
                    ),
                });
            }
            i = lit_end;
            continue;
        }
        i += 1;
    }
    out
}

enum Event<'a> {
    Let(&'a str, (usize, usize)),
    For(&'a str, (usize, usize)),
}

/// Returns a source description when the expression in `range` is
/// tainted: it mentions a source identifier, iterates a hash-ordered
/// receiver, or mentions an already-tainted name.
fn expr_taint(
    f: &FnDef,
    toks: &[Tok],
    range: (usize, usize),
    tainted: &BTreeSet<String>,
    scope: &Scope<'_>,
) -> Option<String> {
    let (start, end) = range;
    let end = end.min(toks.len());
    for i in start..end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if SOURCE_IDENTS.contains(&t.text.as_str()) {
            return Some(format!("wall-clock/entropy source `{}`", t.text));
        }
        // `rand::random`
        if t.is_ident("rand")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("random"))
        {
            return Some("entropy source `rand::random`".to_string());
        }
        if tainted.contains(&t.text) {
            return Some(format!("flows through `{}`", t.text));
        }
        // Hash-order iteration: `.iter()` / `.keys()` / … on a receiver
        // resolving to a hash-ordered collection.
        if ITER_METHODS.contains(&t.text.as_str())
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && scope.classify_receiver(f, toks, i - 1) == TypeClass::HashOrdered
        {
            return Some(format!("hash-ordered iteration via `.{}()`", t.text));
        }
    }
    None
}

/// Index just past a statement's expression: the `;` closing it at
/// depth 0, or the end of the surrounding block.
fn stmt_end(toks: &[Tok], start: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < end {
        match toks[i].kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Index just past a struct-literal field initializer: the `,` or `}`
/// closing it at depth 0.
fn field_init_end(toks: &[Tok], start: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < end {
        match toks[i].kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']') => depth -= 1,
            TokKind::Punct('}') => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            TokKind::Punct(',') if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Index just past the `}` matching the `{` at `open`.
fn brace_end(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        match toks[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn findings(src: &str) -> Vec<TaintFinding> {
        let toks = lex(src).toks;
        let ast = parse(&toks);
        let scope = Scope::new(&ast);
        ast.fns
            .iter()
            .flat_map(|f| analyze_fn(f, &toks, &scope))
            .collect()
    }

    #[test]
    fn taint_flows_through_let_chains_into_at() {
        let src = "fn f(ev: &mut Ev) {\n\
                   let t0 = Instant::now();\n\
                   let dt = t0.elapsed().as_nanos() as u64;\n\
                   ev.at = dt;\n}";
        let out = findings(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("flows through `dt`"), "{out:?}");
    }

    #[test]
    fn clean_event_time_is_not_flagged() {
        let src = "fn f(ev: &mut Ev, now: u64) { ev.at = now + 3; let e = Ev { at: now }; }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn hash_iteration_taints_the_for_binding() {
        let src = "use std::collections::HashMap;\n\
                   struct S { m: HashMap<u64, u64> }\n\
                   impl S { fn f(&self, evs: &mut Vec<Ev>) {\n\
                   for k in self.m.keys() {\n  evs.push(Ev { at: *k });\n}\n} }";
        let out = findings(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("at"), "{out:?}");
    }

    #[test]
    fn sim_report_literal_is_a_sink() {
        let src = "fn f() -> SimReport {\n\
                   let jitter = rand::random::<u64>();\n\
                   SimReport { walks: jitter }\n}";
        let out = findings(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("SimReport"));
    }

    #[test]
    fn comparisons_do_not_count_as_writes() {
        let src = "fn f(ev: &Ev) -> bool { let t = Instant::now().elapsed().as_nanos() as u64; \
                   ev.at == t }";
        assert!(findings(src).is_empty());
    }
}
