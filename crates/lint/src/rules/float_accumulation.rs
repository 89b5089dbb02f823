//! `float-accumulation`: order-sensitive float reduction in sim code.

use super::{RawFinding, Rule};
use crate::lexer::{Tok, TokKind};
use crate::parser::FnDef;
use crate::scope::{Scope, TypeClass};
use crate::source::SourceFile;

/// Iterator reduction methods whose result depends on operand order when
/// the element type is a float.
const REDUCERS: &[&str] = &["sum", "product", "fold"];

/// Flags float reductions whose result depends on evaluation order.
///
/// Float addition is not associative: `(a + b) + c != a + (b + c)` in
/// general, so a `.sum::<f64>()` over elements whose order ever changes
/// (a refactor from `Vec` to a re-sorted source, a parallel split) is a
/// silent report-diff. The rule flags:
///
/// * `.sum()` / `.product()` / `.fold(…)` calls whose float-ness is
///   visible — a `::<f32/f64>` turbofish, a float literal or `f32`/`f64`
///   cast in the same statement or in `fold`'s seed argument, or an
///   enclosing `let` whose declared type resolves to a float (aliases
///   chased through the per-file [`Scope`]);
/// * `+=` / `-=` on a float-typed local inside a `for` loop body — the
///   hand-rolled spelling of the same reduction.
///
/// Integer reductions are exact and never flagged. Fixed-order float
/// reduction that is genuinely wanted (a final display-only average)
/// carries a justified `allow(float-accumulation)`.
pub struct FloatAccumulation;

impl Rule for FloatAccumulation {
    fn id(&self) -> &'static str {
        "float-accumulation"
    }

    fn description(&self) -> &'static str {
        "order-sensitive float reduction (sum/product/fold or loop +=) in a \
         deterministic sim crate: float addition is non-associative, so reordering \
         elements changes the report"
    }

    fn fix_hint(&self) -> &'static str {
        "accumulate in integers (ns, counts) and convert once at the edge, or \
         sort the operands and document the fixed reduction order"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<RawFinding>) {
        let toks = &file.toks;
        let scope = Scope::new(&file.ast);
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || !REDUCERS.contains(&t.text.as_str()) {
                continue;
            }
            if i == 0 || !toks[i - 1].is_punct('.') {
                continue;
            }
            // `.sum::<f64>()` turbofish, or a plain `(` call.
            let open = if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_punct('<'))
            {
                let close = angle_end(toks, i + 4);
                if window_has_float(toks, i + 4, close) {
                    out.push(found(t, "turbofish names a float type"));
                    continue;
                }
                close + 1
            } else {
                i + 1
            };
            if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            if t.text == "fold" {
                let seed_end = seed_arg_end(toks, open + 1);
                if window_has_float(toks, open + 1, seed_end) {
                    out.push(found(t, "fold seed is a float"));
                    continue;
                }
            }
            if stmt_back_has_float(toks, i) {
                out.push(found(t, "the reduced expression involves floats"));
                continue;
            }
            if let Some(f) = enclosing_fn(&file.ast.fns, i) {
                let float_let = f.lets.iter().any(|l| {
                    l.init.is_some_and(|(s, e)| s <= i && i < e)
                        && l.ty
                            .as_ref()
                            .is_some_and(|ty| scope.classify(ty) == TypeClass::Float)
                });
                if float_let {
                    out.push(found(t, "bound to a float-typed local"));
                }
            }
        }
        // Hand-rolled reductions: `x += …` / `x -= …` on a float local
        // inside a `for` body.
        for f in &file.ast.fns {
            for &(start, end) in &f.fors {
                let end = end.min(toks.len());
                for i in start..end {
                    let t = &toks[i];
                    if t.kind != TokKind::Ident {
                        continue;
                    }
                    let compound = toks
                        .get(i + 1)
                        .is_some_and(|n| n.is_punct('+') || n.is_punct('-'))
                        && toks.get(i + 2).is_some_and(|n| n.is_punct('='));
                    if !compound {
                        continue;
                    }
                    let is_float = scope
                        .local_type(f, &t.text, toks)
                        .is_some_and(|ty| scope.classify(&ty) == TypeClass::Float);
                    if is_float {
                        out.push(RawFinding {
                            line: t.line,
                            message: format!(
                                "`{}` accumulates floats across loop iterations",
                                t.text
                            ),
                        });
                    }
                }
            }
        }
    }
}

fn found(t: &Tok, why: &str) -> RawFinding {
    RawFinding {
        line: t.line,
        message: format!("`.{}()` reduces floats in iteration order ({why})", t.text),
    }
}

/// True when `[start, end)` contains a float marker: an `f32`/`f64`
/// identifier, a float literal (`Num . Num`), or a float-suffixed number.
fn window_has_float(toks: &[Tok], start: usize, end: usize) -> bool {
    let end = end.min(toks.len());
    for i in start..end {
        let t = &toks[i];
        match t.kind {
            TokKind::Ident if t.text == "f32" || t.text == "f64" => return true,
            TokKind::Num => {
                if t.text.ends_with("f32") || t.text.ends_with("f64") {
                    return true;
                }
                if toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
                    && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Num)
                {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// Scans backwards from the reducer to the start of its statement
/// (`;`/`{`/`}`) looking for a float marker anywhere in the chain.
fn stmt_back_has_float(toks: &[Tok], at: usize) -> bool {
    let mut start = at;
    let mut budget = 256usize;
    while start > 0 && budget > 0 {
        match toks[start - 1].kind {
            TokKind::Punct(';' | '{' | '}') => break,
            _ => {
                start -= 1;
                budget -= 1;
            }
        }
    }
    window_has_float(toks, start, at)
}

/// Index just past a `<…>` opened at `start - 1` (i.e. `start` is the
/// first token inside).
fn angle_end(toks: &[Tok], start: usize) -> usize {
    let mut depth = 1i32;
    let mut i = start;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Index of the `,` closing `fold`'s first argument (or the closing `)`),
/// with `start` just inside the call parens.
fn seed_arg_end(toks: &[Tok], start: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')') if depth == 0 => return i,
            TokKind::Punct(')' | ']' | '}') => depth -= 1,
            TokKind::Punct(',') if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

fn enclosing_fn(fns: &[FnDef], i: usize) -> Option<&FnDef> {
    fns.iter().find(|f| f.body.0 <= i && i < f.body.1)
}
