//! AST-lite recursive-descent parser over the token stream.
//!
//! The environment still vendors no `syn`, so this is not a full Rust
//! grammar: it recognizes exactly the subset the repo's rules need to
//! reason about float types — items (`use`, `type`, `fn`, and the bodies
//! of `impl`, `mod` and `trait`), `use` paths with renames and groups,
//! fn signatures, `let` bindings with declared or constructor-inferred
//! types, and `for` loop bodies. `struct`/`enum` bodies are skipped and
//! generic parameters are treated as opaque; expression bodies stay
//! token soup with `let`/`for` statements lifted out.
//!
//! The parser must never panic and must always make progress on
//! malformed input: a file mid-edit degrades to a smaller AST, not an
//! error. Anything unrecognized is skipped one token at a time.

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;

/// A parsed type: a path plus generic arguments. References, lifetimes,
/// `dyn`/`impl` and `mut` are stripped; tuples, arrays/slices, and fn
/// pointers get synthetic path names (`(tuple)`, `(array)`, `(fn)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Type {
    /// Path segments (`std::collections::HashMap` → 3 segments).
    pub segments: Vec<String>,
    /// Generic arguments, recursively parsed; lifetimes and const
    /// generics are dropped.
    pub args: Vec<Type>,
}

impl Type {
    /// A type with a single path segment and no arguments.
    pub fn simple(name: &str) -> Type {
        Type {
            segments: vec![name.to_string()],
            args: Vec::new(),
        }
    }

    /// The final path segment — the name resolution starts from.
    pub fn name(&self) -> &str {
        self.segments.last().map(String::as_str).unwrap_or("")
    }
}

/// A `let` binding inside a fn body.
#[derive(Debug, Clone)]
pub struct LetBinding {
    /// Bound name (simple-identifier patterns only; destructurings are
    /// not recorded).
    pub name: String,
    /// Declared type, when written.
    pub ty: Option<Type>,
    /// Token index range `[start, end)` of the initializer expression.
    pub init: Option<(usize, usize)>,
}

/// A parsed fn with its signature and lifted body statements.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Fn name.
    pub name: String,
    /// `(name, type)` per parameter; opaque patterns get name `_`.
    pub params: Vec<(String, Type)>,
    /// Return type, when written.
    pub ret: Option<Type>,
    /// Token index range `[start, end)` of the body (inside the braces).
    pub body: (usize, usize),
    /// `let` bindings, in source order (later bindings shadow earlier).
    pub lets: Vec<LetBinding>,
    /// Token index ranges of `for` loop bodies (inside the braces), in
    /// source order (outer loops listed before inner).
    pub fors: Vec<(usize, usize)>,
    /// 1-based line of the `fn`.
    pub line: u32,
}

/// The per-file AST-lite: symbol tables plus parsed fns.
#[derive(Debug, Default)]
pub struct Ast {
    /// Imported local name → (full path segments, declaration line).
    /// `use std::collections::HashMap as Map` maps `Map` → the path.
    pub imports: BTreeMap<String, (Vec<String>, u32)>,
    /// `type Name = T;` aliases: name → (target type, declaration line).
    pub aliases: BTreeMap<String, (Type, u32)>,
    /// Every fn in the file, including impl/trait methods.
    pub fns: Vec<FnDef>,
}

/// Keywords that can precede `[`/identifiers without forming the
/// expression contexts the rules care about.
pub const KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

/// True when `word` is a Rust keyword (per [`KEYWORDS`]).
pub fn is_keyword(word: &str) -> bool {
    KEYWORDS.contains(&word)
}

/// Parses one file's token stream into an [`Ast`].
pub fn parse(toks: &[Tok]) -> Ast {
    let mut p = Parser {
        toks,
        pos: 0,
        ast: Ast::default(),
    };
    p.items(toks.len());
    p.ast
}

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
    ast: Ast,
}

impl<'a> Parser<'a> {
    fn tok(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i)
    }

    fn at_ident(&self, word: &str) -> bool {
        self.tok(self.pos).is_some_and(|t| t.is_ident(word))
    }

    fn at_punct(&self, c: char) -> bool {
        self.tok(self.pos).is_some_and(|t| t.is_punct(c))
    }

    fn line(&self) -> u32 {
        self.tok(self.pos).map_or(0, |t| t.line)
    }

    /// Consumes tokens to the matching close of the bracket at `self.pos`
    /// (which must be an open bracket) and returns the index just past
    /// the close. Tracks all three bracket kinds.
    fn skip_balanced(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.tok(self.pos) {
            match t.kind {
                TokKind::Punct('{' | '(' | '[') => depth += 1,
                TokKind::Punct('}' | ')' | ']') => {
                    depth -= 1;
                    if depth <= 0 {
                        self.pos += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Skips a balanced `<…>` generic list starting at `<`.
    fn skip_generics(&mut self) {
        if !self.at_punct('<') {
            return;
        }
        let mut depth = 0i32;
        while let Some(t) = self.tok(self.pos) {
            match t.kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    depth -= 1;
                    if depth <= 0 {
                        self.pos += 1;
                        return;
                    }
                }
                // A stray `;` or `{` at depth 1+ means the source was not
                // really generics; bail rather than consume the file.
                TokKind::Punct('{' | ';') => return,
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Skips one attribute `#[…]` / `#![…]` starting at `#`.
    fn skip_attr(&mut self) {
        self.pos += 1; // '#'
        if self.at_punct('!') {
            self.pos += 1;
        }
        if self.at_punct('[') {
            self.skip_balanced();
        }
    }

    /// Parses items until `end` (a token index, exclusive).
    fn items(&mut self, end: usize) {
        while self.pos < end {
            if self.at_punct('#') {
                self.skip_attr();
                continue;
            }
            let Some(t) = self.tok(self.pos) else { break };
            if t.kind != TokKind::Ident {
                self.pos += 1;
                continue;
            }
            match t.text.as_str() {
                "pub" => {
                    self.pos += 1;
                    if self.at_punct('(') {
                        self.skip_balanced(); // pub(crate) / pub(super)
                    }
                }
                "use" => self.parse_use(),
                "type" => self.parse_type_alias(),
                "struct" | "enum" => self.skip_type_def(),
                "fn" => self.parse_fn(),
                "impl" | "mod" | "trait" => self.parse_block_item(end),
                "unsafe" | "async" | "default" | "extern" | "const" | "static" => {
                    // Qualifiers before fn, or const/static items; the
                    // next loop turn sees the real keyword. `extern "C"`
                    // string literals and const/static initializers are
                    // skipped by the generic fallthrough.
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// `use path::{a, b as c, nested::*};` — registers every leaf name.
    fn parse_use(&mut self) {
        let line = self.line();
        self.pos += 1; // `use`
        self.parse_use_tree(Vec::new(), line);
        if self.at_punct(';') {
            self.pos += 1;
        }
    }

    fn parse_use_tree(&mut self, prefix: Vec<String>, line: u32) {
        let mut path = prefix;
        loop {
            if self.at_punct('{') {
                self.pos += 1;
                loop {
                    if self.at_punct('}') {
                        self.pos += 1;
                        return;
                    }
                    if self.pos >= self.toks.len() {
                        return;
                    }
                    self.parse_use_tree(path.clone(), line);
                    if self.at_punct(',') {
                        self.pos += 1;
                    } else if !self.at_punct('}') {
                        // Malformed; bail without looping forever.
                        self.pos += 1;
                    }
                }
            }
            if self.at_punct('*') {
                self.pos += 1; // glob: nothing to register
                return;
            }
            let Some(t) = self.tok(self.pos) else { return };
            if t.kind != TokKind::Ident {
                return;
            }
            let seg = t.text.clone();
            self.pos += 1;
            path.push(seg);
            if self.at_punct(':') && self.tok(self.pos + 1).is_some_and(|t| t.is_punct(':')) {
                self.pos += 2;
                continue;
            }
            // Rename: `… ::Target as Name` registers `Name` against the
            // path ending in the *target*, which is what resolution
            // chases.
            if self.at_ident("as") {
                self.pos += 1;
                let name = self
                    .tok(self.pos)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone());
                if let Some(name) = name {
                    self.ast.imports.insert(name, (path, line));
                    self.pos += 1;
                }
                return;
            }
            // End of this tree branch: register the leaf under its own
            // name. `use a::b::{self}` registers the parent name `b`.
            if path.last().is_some_and(|s| s == "self") {
                path.pop();
            }
            if let Some(leaf) = path.last().cloned() {
                self.ast.imports.insert(leaf, (path, line));
            }
            return;
        }
    }

    /// `type Name<…> = T;`
    fn parse_type_alias(&mut self) {
        let line = self.line();
        self.pos += 1; // `type`
        let Some(name) = self.tok(self.pos).filter(|t| t.kind == TokKind::Ident) else {
            return;
        };
        let name = name.text.clone();
        self.pos += 1;
        self.skip_generics();
        if !self.at_punct('=') {
            // Associated type declaration (`type Out;`) or bound list.
            return;
        }
        self.pos += 1;
        let ty = self.parse_type();
        self.ast.aliases.insert(name, (ty, line));
        if self.at_punct(';') {
            self.pos += 1;
        }
    }

    /// `struct`/`enum` items: skips the name, generics and body (`{…}`,
    /// `(…)` or nothing before `;`). The rules need no field types.
    fn skip_type_def(&mut self) {
        self.pos += 1; // `struct` / `enum`
        while self.pos < self.toks.len() && !self.at_punct('{') && !self.at_punct('(') {
            if self.at_punct(';') {
                return;
            }
            if self.at_punct('<') {
                self.skip_generics();
            } else {
                self.pos += 1;
            }
        }
        self.skip_balanced();
    }

    fn skip_where_clause(&mut self) {
        if self.at_ident("where") {
            while self.pos < self.toks.len() && !self.at_punct('{') && !self.at_punct(';') {
                self.pos += 1;
            }
        }
    }

    /// `impl`, `mod` and `trait` items: skips the header to `{` (or a
    /// bodiless `;`) and parses the body's items.
    fn parse_block_item(&mut self, end: usize) {
        self.pos += 1; // `impl` / `mod` / `trait`
        while self.pos < end && !self.at_punct('{') && !self.at_punct(';') {
            self.pos += 1;
        }
        if self.at_punct(';') {
            self.pos += 1;
            return;
        }
        if self.at_punct('{') {
            let body_end = self.matching_brace(end);
            self.pos += 1;
            self.items(body_end);
            self.pos = (body_end + 1).min(end);
        }
    }

    /// Index of the `}` matching the `{` at `self.pos`, bounded by `end`.
    fn matching_brace(&self, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = self.pos;
        while i < end {
            match self.toks[i].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        end.saturating_sub(1).max(self.pos)
    }

    fn parse_fn(&mut self) {
        let line = self.line();
        self.pos += 1; // `fn`
        let Some(name) = self.tok(self.pos).filter(|t| t.kind == TokKind::Ident) else {
            return;
        };
        let name = name.text.clone();
        self.pos += 1;
        self.skip_generics();
        let mut params = Vec::new();
        if self.at_punct('(') {
            let params_end = {
                let saved = self.pos;
                self.skip_balanced();
                let e = self.pos;
                self.pos = saved;
                e
            };
            self.pos += 1; // '('
            self.parse_params(&mut params, params_end.saturating_sub(1));
            self.pos = params_end;
        }
        let ret = if self.at_punct('-') && self.tok(self.pos + 1).is_some_and(|t| t.is_punct('>')) {
            self.pos += 2;
            Some(self.parse_type())
        } else {
            None
        };
        self.skip_where_clause();
        if self.at_punct(';') {
            self.pos += 1; // trait method declaration, no body
            return;
        }
        if !self.at_punct('{') {
            return;
        }
        let body_end = self.matching_brace(self.toks.len());
        let body = (self.pos + 1, body_end);
        self.pos = (body_end + 1).min(self.toks.len());
        let (lets, fors) = scan_body(self.toks, body);
        self.ast.fns.push(FnDef {
            name,
            params,
            ret,
            body,
            lets,
            fors,
            line,
        });
    }

    /// Parses fn parameters between the parens (`end` is the index of the
    /// closing paren).
    fn parse_params(&mut self, out: &mut Vec<(String, Type)>, end: usize) {
        while self.pos < end {
            if self.at_punct('#') {
                self.skip_attr();
                continue;
            }
            // Receiver: `self`, `&self`, `&mut self`, `mut self`, with
            // optional lifetime — skip to the comma.
            let start = self.pos;
            let mut is_receiver = false;
            let mut j = self.pos;
            while j < end && j < start + 4 {
                let t = &self.toks[j];
                if t.is_ident("self") {
                    is_receiver =
                        self.toks.get(j + 1).is_none_or(|n| !n.is_punct(':')) || j + 1 >= end;
                    break;
                }
                if t.is_punct('&') || t.is_ident("mut") || t.kind == TokKind::Lifetime {
                    j += 1;
                    continue;
                }
                break;
            }
            if is_receiver {
                self.skip_to_param_end(end);
                continue;
            }
            // Pattern: take a simple identifier name, else `_`.
            let mut pname = "_".to_string();
            if self.at_ident("mut") {
                self.pos += 1;
            }
            if let Some(t) = self.tok(self.pos).filter(|t| t.kind == TokKind::Ident) {
                if !is_keyword(&t.text) {
                    pname = t.text.clone();
                    self.pos += 1;
                }
            }
            if self.at_punct(':') {
                self.pos += 1;
                let ty = self.parse_type();
                out.push((pname, ty));
            }
            self.skip_to_param_end(end);
        }
    }

    /// Advances past the next top-level `,` (or to `end`).
    fn skip_to_param_end(&mut self, end: usize) {
        let mut depth = 0i32;
        while self.pos < end {
            match self.toks[self.pos].kind {
                TokKind::Punct('(' | '[' | '{' | '<') => depth += 1,
                TokKind::Punct(')' | ']' | '}' | '>') => depth -= 1,
                TokKind::Punct(',') if depth <= 0 => {
                    self.pos += 1;
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Parses a type at the current position. Never fails; unknown
    /// constructs produce an opaque type and consume at least one token.
    fn parse_type(&mut self) -> Type {
        // Strip prefixes that don't change the resolved name.
        loop {
            if self.at_punct('&') || self.at_punct('*') {
                self.pos += 1;
                continue;
            }
            if self
                .tok(self.pos)
                .is_some_and(|t| t.kind == TokKind::Lifetime)
            {
                self.pos += 1;
                continue;
            }
            if self.at_ident("mut")
                || self.at_ident("dyn")
                || self.at_ident("impl")
                || self.at_ident("const")
            {
                self.pos += 1;
                continue;
            }
            break;
        }
        if self.at_punct('(') {
            // Tuple or parenthesized type.
            self.pos += 1;
            let mut args = Vec::new();
            let mut saw_comma = false;
            while self.pos < self.toks.len() && !self.at_punct(')') {
                args.push(self.parse_type());
                if self.at_punct(',') {
                    saw_comma = true;
                    self.pos += 1;
                } else if !self.at_punct(')') {
                    self.pos += 1; // defensive progress
                }
            }
            if self.at_punct(')') {
                self.pos += 1;
            }
            if !saw_comma && args.len() == 1 {
                return args
                    .into_iter()
                    .next()
                    .unwrap_or_else(|| Type::simple("(unknown)"));
            }
            return Type {
                segments: vec!["(tuple)".to_string()],
                args,
            };
        }
        if self.at_punct('[') {
            // Slice `[T]` or array `[T; N]`.
            self.pos += 1;
            let inner = self.parse_type();
            while self.pos < self.toks.len() && !self.at_punct(']') {
                self.pos += 1; // `; N` length expression
            }
            if self.at_punct(']') {
                self.pos += 1;
            }
            return Type {
                segments: vec!["(array)".to_string()],
                args: vec![inner],
            };
        }
        if self.at_punct('<') {
            // Qualified path `<T as Trait>::Out`: opaque.
            self.skip_generics();
            while self.at_punct(':') {
                self.pos += 1;
            }
            // Consume the trailing segment path.
            while self.tok(self.pos).is_some_and(|t| t.kind == TokKind::Ident) {
                self.pos += 1;
                if self.at_punct(':') && self.tok(self.pos + 1).is_some_and(|t| t.is_punct(':')) {
                    self.pos += 2;
                } else {
                    break;
                }
            }
            return Type::simple("(qualified)");
        }
        if self.at_ident("fn")
            || self.at_ident("Fn")
            || self.at_ident("FnMut")
            || self.at_ident("FnOnce")
        {
            self.pos += 1;
            if self.at_punct('(') {
                self.skip_balanced();
            }
            if self.at_punct('-') && self.tok(self.pos + 1).is_some_and(|t| t.is_punct('>')) {
                self.pos += 2;
                let _ = self.parse_type();
            }
            return Type::simple("(fn)");
        }
        // Path type: segments separated by `::`, optional generics.
        let mut segments = Vec::new();
        let mut args = Vec::new();
        while let Some(t) = self.tok(self.pos).filter(|t| t.kind == TokKind::Ident) {
            if is_keyword(&t.text)
                && !matches!(t.text.as_str(), "self" | "Self" | "crate" | "super")
            {
                break;
            }
            segments.push(t.text.clone());
            self.pos += 1;
            if self.at_punct('<') {
                args = self.parse_generic_args();
                // `Map<K, V>::new` style paths keep going after generics.
            }
            if self.at_punct(':') && self.tok(self.pos + 1).is_some_and(|t| t.is_punct(':')) {
                self.pos += 2;
                continue;
            }
            break;
        }
        if segments.is_empty() {
            // Defensive progress on anything unrecognized.
            self.pos += 1;
            return Type::simple("(unknown)");
        }
        Type { segments, args }
    }

    /// Parses `<T, U, 'a, N, Item = V>` starting at `<`; returns the
    /// recursively parsed type arguments (lifetimes/consts dropped).
    fn parse_generic_args(&mut self) -> Vec<Type> {
        let close = {
            let saved = self.pos;
            self.skip_generics();
            let e = self.pos;
            self.pos = saved;
            e
        };
        self.pos += 1; // '<'
        let mut args = Vec::new();
        while self.pos + 1 < close {
            if self
                .tok(self.pos)
                .is_some_and(|t| t.kind == TokKind::Lifetime)
            {
                self.pos += 1;
            } else if self.tok(self.pos).is_some_and(|t| t.kind == TokKind::Num)
                || self.at_punct('{')
            {
                // Const generic argument: skip it.
                if self.at_punct('{') {
                    self.skip_balanced();
                } else {
                    self.pos += 1;
                }
            } else if self.tok(self.pos).is_some_and(|t| t.kind == TokKind::Ident)
                && self.tok(self.pos + 1).is_some_and(|t| t.is_punct('='))
                && !self.tok(self.pos + 2).is_some_and(|t| t.is_punct('='))
            {
                // Associated binding `Item = T`.
                self.pos += 2;
                args.push(self.parse_type());
            } else {
                let before = self.pos;
                args.push(self.parse_type());
                if self.pos == before {
                    self.pos += 1; // guarantee progress
                }
            }
            if self.at_punct(',')
                || self.at_punct('+')
                || (self.pos + 1 < close && !self.at_punct('>'))
            {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.pos = close;
        args
    }
}

/// Scans a fn body token range for `let` bindings and `for` loop bodies.
/// The scan is flat: nested blocks and closures contribute their `let`s
/// to the same (per-fn) table, which over-approximates scope but keeps
/// shadowing order correct for forward dataflow.
fn scan_body(toks: &[Tok], body: (usize, usize)) -> (Vec<LetBinding>, Vec<(usize, usize)>) {
    let (start, end) = body;
    let mut lets = Vec::new();
    let mut fors = Vec::new();
    let mut i = start;
    while i < end.min(toks.len()) {
        let t = &toks[i];
        if t.is_ident("let") {
            // `if let` / `while let` have pattern semantics, not binding
            // statements; skip them.
            let after_kw = i > 0 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while"));
            if after_kw {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name_tok) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
                i += 1;
                continue;
            };
            if is_keyword(&name_tok.text) {
                i += 1;
                continue;
            }
            let name = name_tok.text.clone();
            j += 1;
            let mut ty = None;
            if toks.get(j).is_some_and(|t| t.is_punct(':')) {
                let mut p = Parser {
                    toks,
                    pos: j + 1,
                    ast: Ast::default(),
                };
                ty = Some(p.parse_type());
                j = p.pos;
            }
            let mut init = None;
            if toks.get(j).is_some_and(|t| t.is_punct('='))
                && !toks.get(j + 1).is_some_and(|t| t.is_punct('='))
            {
                let init_start = j + 1;
                let init_end = stmt_end(toks, init_start, end);
                init = Some((init_start, init_end));
                j = init_end;
            }
            lets.push(LetBinding { name, ty, init });
            i = j;
            continue;
        }
        if t.is_ident("for") && !toks.get(i + 1).is_some_and(|t| t.is_punct('<')) {
            // Find `in` at depth 0 (tuple patterns contain parens).
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut in_at = None;
            while j < end {
                match toks[j].kind {
                    TokKind::Punct('(' | '[') => depth += 1,
                    TokKind::Punct(')' | ']') => depth -= 1,
                    TokKind::Punct('{' | ';') => break,
                    TokKind::Ident if depth == 0 && toks[j].is_ident("in") => {
                        in_at = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let Some(in_at) = in_at else {
                i += 1;
                continue;
            };
            // Iterated expression runs to the loop's opening brace at
            // depth 0 (struct literals can't appear bare in `for` heads).
            let mut k = in_at + 1;
            let mut depth = 0i32;
            while k < end {
                match toks[k].kind {
                    TokKind::Punct('(' | '[') => depth += 1,
                    TokKind::Punct(')' | ']') => depth -= 1,
                    TokKind::Punct('{') if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            if k >= end {
                i = in_at + 1;
                continue;
            }
            // Loop body: matching brace from k.
            let mut depth = 0i32;
            let mut b = k;
            while b < end {
                match toks[b].kind {
                    TokKind::Punct('{') => depth += 1,
                    TokKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                b += 1;
            }
            fors.push((k + 1, b.min(end)));
            i = k + 1; // descend into the body (nested loops still seen)
            continue;
        }
        i += 1;
    }
    (lets, fors)
}

/// Index just past the end of a statement starting at `start`: the
/// position of the `;` that closes it at bracket depth 0, or `end`.
fn stmt_end(toks: &[Tok], start: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < end.min(toks.len()) {
        match toks[i].kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') => {
                if depth == 0 {
                    return i; // closing an outer block: statement ended
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ast(src: &str) -> Ast {
        parse(&lex(src).toks)
    }

    #[test]
    fn use_paths_with_groups_and_renames() {
        let a = ast("use std::collections::{HashMap as Map, hash_map::Entry};\nuse crate::x::Y;");
        assert_eq!(
            a.imports["Map"].0,
            vec!["std", "collections", "HashMap"],
            "{:?}",
            a.imports
        );
        assert_eq!(
            a.imports["Entry"].0.last().map(String::as_str),
            Some("Entry")
        );
        assert_eq!(a.imports["Y"].0, vec!["crate", "x", "Y"]);
    }

    #[test]
    fn type_aliases_parse_and_type_defs_are_skipped() {
        let a = ast("type Cache = std::collections::HashMap<u64, u64>;\n\
             struct S<T: Into<u8>> { pub m: Cache, f: fn(u8) -> u8 }\n\
             struct T(u64, Cache);\n\
             struct U;\n\
             enum E { A = 1 << 2, B(u64, Cache), C { inner: RefCell<u8> } }\n\
             fn after(x: f64) {}");
        assert_eq!(a.aliases["Cache"].0.name(), "HashMap");
        assert_eq!(a.aliases["Cache"].0.args.len(), 2);
        let names: Vec<&str> = a.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["after"], "type bodies must not leak items");
    }

    #[test]
    fn fn_signature_params_and_ret() {
        let a = ast("fn f(a: u64, mut b: &Vec<f64>, (x, y): (u8, u8)) -> f64 { a as f64 }");
        let f = &a.fns[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.params[0], ("a".to_string(), Type::simple("u64")));
        assert_eq!(f.params[1].0, "b");
        assert_eq!(f.params[1].1.name(), "Vec");
        assert_eq!(f.ret.as_ref().map(Type::name), Some("f64"));
    }

    #[test]
    fn impl_and_trait_bodies_yield_their_methods() {
        let a = ast("impl<T> Wrapper<T> { fn get(&self) -> u64 { 1 } }\n\
             impl Display for Thing where Thing: Copy { fn fmt(&self) {} }\n\
             trait Tr: Clone { fn req(&self); fn dflt(&self) {} }");
        let names: Vec<&str> = a.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["get", "fmt", "dflt"]);
    }

    #[test]
    fn lets_with_types_and_inits() {
        let a = ast(
            "fn f() {\n  let x: f64 = 0.0;\n  let mut m = HashMap::new();\n  \
             let (a, b) = pair();\n  if let Some(v) = opt {}\n}",
        );
        let lets = &a.fns[0].lets;
        assert_eq!(lets.len(), 2, "{lets:?}");
        assert_eq!(lets[0].name, "x");
        assert_eq!(lets[0].ty.as_ref().map(Type::name), Some("f64"));
        assert_eq!(lets[1].name, "m");
        assert!(lets[1].init.is_some());
    }

    #[test]
    fn for_loops_record_their_bodies() {
        let src = "fn f(v: Vec<u64>) { for (i, x) in v.iter().enumerate() { let y = x; } }";
        let toks = lex(src).toks;
        let fors = &parse(&toks).fns[0].fors;
        assert_eq!(fors.len(), 1);
        let (start, end) = fors[0];
        assert!(toks[start].is_ident("let"), "{:?}", toks[start]);
        assert_eq!(end - start, 5, "`let y = x;` and nothing else");
        assert!(toks[end].is_punct('}'));
    }

    #[test]
    fn nested_mods_share_the_file_table() {
        let a = ast("mod inner { use std::collections::HashMap as M; fn g() {} }");
        assert!(a.imports.contains_key("M"));
        assert_eq!(a.fns[0].name, "g");
    }

    #[test]
    fn malformed_input_degrades_without_panicking() {
        for src in [
            "struct",
            "struct S<T",
            "fn f(",
            "impl {",
            "use ::::;",
            "type = ;",
            "enum E { A(",
            "fn f() { let",
            "for x in {",
        ] {
            let _ = ast(src); // must not panic or hang
        }
    }
}
