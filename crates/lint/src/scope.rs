//! Per-file symbol/scope table with local type resolution.
//!
//! Built on the AST-lite ([`crate::parser`]), this resolves a type
//! *spelling* to the canonical name it denotes within the file: import
//! renames (`use std::collections::HashMap as Map`) and `type` aliases
//! are chased (with a cycle guard), so a rule asking "is this a float?"
//! sees through `type Real = f64` and `type Meters = Real`. Resolution is
//! per-file by design — an alias exported from another crate is
//! invisible — which keeps the analysis dependency-free and O(file); the
//! gap is documented in DESIGN.md §10.

use crate::lexer::{Tok, TokKind};
use crate::parser::{is_keyword, Ast, FnDef, Type};
use std::collections::BTreeSet;

/// What a resolved type means to the determinism rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeClass {
    /// `f32` / `f64`.
    Float,
    /// Anything else (including unresolved).
    Other,
}

/// The per-file resolution context.
pub struct Scope<'a> {
    ast: &'a Ast,
}

impl<'a> Scope<'a> {
    /// Builds a scope over a parsed file.
    pub fn new(ast: &'a Ast) -> Scope<'a> {
        Scope { ast }
    }

    /// Resolves a type spelling to its canonical name, chasing import
    /// renames and `type` aliases defined in this file.
    pub fn canonical(&self, ty: &Type) -> String {
        let mut seen = BTreeSet::new();
        self.canonical_inner(ty, &mut seen)
    }

    fn canonical_inner(&self, ty: &Type, seen: &mut BTreeSet<String>) -> String {
        let mut name = ty.name().to_string();
        // A multi-segment path's *first* segment may itself be a renamed
        // import of a module; the final segment is still the name that
        // matters (`collections::HashMap` → `HashMap`).
        loop {
            if !seen.insert(name.clone()) {
                return name; // alias cycle: stop where we are
            }
            if let Some((target, _line)) = self.ast.aliases.get(&name) {
                name = self.canonical_inner(&target.clone(), seen);
                continue;
            }
            if let Some((path, _line)) = self.ast.imports.get(&name) {
                if let Some(last) = path.last() {
                    if *last != name {
                        name = last.clone();
                        continue;
                    }
                }
            }
            return name;
        }
    }

    /// Resolves and classifies a type spelling.
    pub fn classify(&self, ty: &Type) -> TypeClass {
        match self.canonical(ty).as_str() {
            "f32" | "f64" => TypeClass::Float,
            _ => TypeClass::Other,
        }
    }

    /// The type of a local name inside `f`: the last `let` binding before
    /// anything else, else a parameter. Declared types win; otherwise the
    /// initializer is inspected for a constructor call.
    pub fn local_type(&self, f: &FnDef, name: &str, toks: &[Tok]) -> Option<Type> {
        for l in f.lets.iter().rev() {
            if l.name == name {
                if let Some(ty) = &l.ty {
                    return Some(ty.clone());
                }
                if let Some(range) = l.init {
                    return infer_init_type(toks, range);
                }
                return None;
            }
        }
        f.params
            .iter()
            .find(|(p, _)| p == name)
            .map(|(_, ty)| ty.clone())
    }
}

/// Infers a type from a `let` initializer token range: recognizes
/// constructor calls (`Name::new()`, `Name::with_capacity(..)`,
/// `Name::default()`, `Name::from(..)`) and `.collect::<Type>()`
/// turbofish. Anything else is unknown.
pub fn infer_init_type(toks: &[Tok], range: (usize, usize)) -> Option<Type> {
    let (start, end) = range;
    let end = end.min(toks.len());
    const CTORS: &[&str] = &["new", "default", "with_capacity", "from", "with_hasher"];
    let mut i = start;
    while i < end {
        let t = &toks[i];
        // `.collect :: < Type > (` — turbofish names the collected type.
        if t.is_ident("collect")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('<'))
        {
            let mut p = TypeCursor::new(toks, i + 4, end);
            return Some(p.parse());
        }
        // Path constructor: collect `Seg(::Seg)*::ctor(`.
        if t.kind == TokKind::Ident
            && !is_keyword(&t.text)
            && (i == start || !toks[i - 1].is_punct('.'))
        {
            let mut segs = vec![t.text.clone()];
            let mut j = i + 1;
            while toks.get(j).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident)
            {
                segs.push(toks[j + 2].text.clone());
                j += 3;
            }
            if segs.len() >= 2
                && toks.get(j).is_some_and(|t| t.is_punct('('))
                && CTORS.contains(&segs.last().map(String::as_str).unwrap_or(""))
            {
                segs.pop(); // drop the ctor name
                return Some(Type {
                    segments: segs,
                    args: Vec::new(),
                });
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    None
}

/// A tiny standalone type parser for turbofish positions (avoids
/// constructing a full [`crate::parser::Parser`]).
struct TypeCursor<'a> {
    toks: &'a [Tok],
    pos: usize,
    end: usize,
}

impl<'a> TypeCursor<'a> {
    fn new(toks: &'a [Tok], pos: usize, end: usize) -> TypeCursor<'a> {
        TypeCursor { toks, pos, end }
    }

    fn parse(&mut self) -> Type {
        let mut segments = Vec::new();
        let mut args = Vec::new();
        while self.pos < self.end {
            let Some(t) = self.toks.get(self.pos) else {
                break;
            };
            match t.kind {
                TokKind::Ident if !is_keyword(&t.text) => {
                    segments.push(t.text.clone());
                    self.pos += 1;
                    if self.toks.get(self.pos).is_some_and(|t| t.is_punct(':'))
                        && self.toks.get(self.pos + 1).is_some_and(|t| t.is_punct(':'))
                    {
                        self.pos += 2;
                        continue;
                    }
                    if self.toks.get(self.pos).is_some_and(|t| t.is_punct('<')) {
                        self.pos += 1;
                        while self.pos < self.end
                            && !self.toks.get(self.pos).is_some_and(|t| t.is_punct('>'))
                        {
                            let before = self.pos;
                            args.push(self.parse());
                            if self.toks.get(self.pos).is_some_and(|t| t.is_punct(',')) {
                                self.pos += 1;
                            }
                            if self.pos == before {
                                self.pos += 1;
                            }
                        }
                        self.pos += 1; // '>'
                    }
                    break;
                }
                _ => {
                    self.pos += 1;
                    break;
                }
            }
        }
        if segments.is_empty() {
            segments.push("(unknown)".to_string());
        }
        Type { segments, args }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn scoped(src: &str) -> (Ast, Vec<Tok>) {
        let toks = lex(src).toks;
        let ast = parse(&toks);
        (ast, toks)
    }

    #[test]
    fn canonical_chases_imports_and_aliases() {
        let (ast, _) = scoped(
            "use std::collections::HashMap as Map;\n\
             type Cache = Map<u64, u64>;\n\
             type Deep = Cache;\n\
             type Real = f64;\n\
             type Meters = Real;",
        );
        let s = Scope::new(&ast);
        assert_eq!(s.canonical(&Type::simple("Map")), "HashMap");
        assert_eq!(s.canonical(&Type::simple("Cache")), "HashMap");
        assert_eq!(s.canonical(&Type::simple("Deep")), "HashMap");
        assert_eq!(s.canonical(&Type::simple("BTreeMap")), "BTreeMap");
        assert_eq!(s.classify(&Type::simple("Meters")), TypeClass::Float);
        assert_eq!(s.classify(&Type::simple("Deep")), TypeClass::Other);
    }

    #[test]
    fn alias_cycles_terminate() {
        let (ast, _) = scoped("type A = B;\ntype B = A;");
        let s = Scope::new(&ast);
        let _ = s.canonical(&Type::simple("A")); // must not hang
    }

    #[test]
    fn local_resolution() {
        let (ast, toks) = scoped(
            "use std::collections::HashSet as Shared;\n\
             type Real = f32;\n\
             fn f(x: f64, r: Real) { let m = std::collections::HashMap::new(); \
             let y: Shared<u8> = make(); }",
        );
        let s = Scope::new(&ast);
        let f = &ast.fns[0];
        let local = |name| s.local_type(f, name, &toks).map(|t| s.canonical(&t));
        assert_eq!(local("m").as_deref(), Some("HashMap"));
        assert_eq!(local("y").as_deref(), Some("HashSet"));
        for name in ["x", "r"] {
            assert_eq!(
                s.local_type(f, name, &toks).map(|t| s.classify(&t)),
                Some(TypeClass::Float)
            );
        }
    }

    #[test]
    fn collect_turbofish_is_inferred() {
        let (_, toks) = scoped("fn f() { let m = v.iter().collect::<HashMap<u64, u64>>(); }");
        let ast = parse(&toks);
        let l = &ast.fns[0].lets[0];
        let ty = infer_init_type(&toks, l.init.expect("init")).expect("inferred");
        assert_eq!(ty.name(), "HashMap");
    }
}
