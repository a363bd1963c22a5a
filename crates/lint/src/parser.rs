//! A tolerant Rust-subset parser built on the token stream.
//!
//! Produces an item model — functions with signatures, the impl type they
//! belong to, flattened `use` trees, and bodies as statement/expression
//! trees — good enough for name and call extraction by the semantic rules
//! (panic reachability, unit dataflow, lock discipline). It is *not* a
//! full Rust parser:
//!
//! * it is **total**: any input terminates without panicking; constructs
//!   it does not understand become `Expr::Opaque` nodes and the parser
//!   resynchronises at the next statement boundary;
//! * patterns are skimmed, not parsed — a `let` keeps only the last bound
//!   identifier, match arms keep guard and body expressions;
//! * types are kept as flat token text (see [`base_type_name`]);
//! * macros keep their name and a best-effort parse of comma-separated
//!   argument expressions.
//!
//! Every heuristic shortcut errs toward producing *fewer* facts, never
//! toward inventing calls that are not in the source.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// Everything the parser extracted from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All functions, including nested and impl methods, in source order.
    pub fns: Vec<FnItem>,
    /// Flattened `use` paths (`use a::{b, c}` yields `a::b` and `a::c`).
    pub uses: Vec<Vec<String>>,
    /// All `struct`/`enum`/`union` definitions, in source order.
    pub types: Vec<TypeItem>,
    /// All `type` aliases (including associated types), in source order.
    pub aliases: Vec<AliasItem>,
    /// All `const NAME: T = …;` items (free and associated), in source
    /// order, with any `#[cfg(flag)]` / `#[cfg(not(flag))]` guards.
    pub consts: Vec<ConstItem>,
}

/// One `#[cfg(name)]` / `#[cfg(not(name))]` guard on an item. Only the
/// bare single-flag forms are recognised; richer predicates (`all`,
/// `any`, key-value pairs) are ignored, erring toward *fewer* facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgFlag {
    /// The flag identifier, e.g. `sync_mutant` or `test`.
    pub name: String,
    /// True for the `#[cfg(not(name))]` form.
    pub negated: bool,
}

impl CfgFlag {
    /// Whether this guard is satisfied given the set of active flags.
    #[must_use]
    pub fn satisfied(&self, active: &[String]) -> bool {
        let present = active.iter().any(|f| f == &self.name);
        present != self.negated
    }
}

/// One parsed `const NAME: T = …;` item.
#[derive(Debug)]
pub struct ConstItem {
    /// Item name.
    pub name: String,
    /// Declared type as space-joined token text.
    pub ty: String,
    /// Initialiser as space-joined token text (best effort).
    pub value: String,
    /// 1-indexed line of the `const` keyword.
    pub line: u32,
    /// Lies in test code (`#[cfg(test)]` module or test-only path).
    pub is_test: bool,
    /// Recognised `#[cfg(…)]` guards on the item, outermost first.
    pub cfgs: Vec<CfgFlag>,
}

/// One parsed `type Name = …;` alias.
#[derive(Debug)]
pub struct AliasItem {
    /// Alias name.
    pub name: String,
    /// Aliased type as space-joined token text.
    pub ty: String,
    /// 1-indexed line of the `type` keyword.
    pub line: u32,
    /// Lies in test code (`#[cfg(test)]` module or test-only path).
    pub is_test: bool,
}

/// One field (or enum-variant payload) of a type definition.
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// Field name; tuple fields use their index text, enum tuple-variant
    /// payloads use the variant name.
    pub name: String,
    /// Type as space-joined token text, e.g. `BTreeMap < u8 , TagState >`.
    pub ty: String,
    /// 1-indexed line of the field.
    pub line: u32,
}

/// One parsed `struct`/`enum`/`union` definition.
#[derive(Debug)]
pub struct TypeItem {
    /// Type name.
    pub name: String,
    /// `pub` without a restriction.
    pub is_pub: bool,
    /// 1-indexed line of the defining keyword.
    pub line: u32,
    /// Fields with their flat type text (enum variants contribute their
    /// payload types).
    pub fields: Vec<FieldItem>,
    /// Lies in test code (`#[cfg(test)]` module or test-only path).
    pub is_test: bool,
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// The bound identifier, when the pattern is simple enough to name one.
    pub name: Option<String>,
    /// Type as space-joined token text, e.g. `& mut ReaderConfig`.
    pub ty: String,
}

/// One parsed `fn` item.
#[derive(Debug, Default)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Self type of the enclosing `impl` (or trait name inside a `trait`).
    pub impl_type: Option<String>,
    /// `pub` without a restriction (`pub(crate)` counts as private).
    pub is_pub: bool,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Parameters in order; a method's receiver appears as `self: Self`.
    pub params: Vec<Param>,
    /// Return type as space-joined token text, absent for `()`.
    pub ret_type: Option<String>,
    /// Body statements; `None` for bodiless trait/extern signatures.
    pub(crate) body: Option<Block>,
    /// Lies in test code (`#[cfg(test)]` module or test-only path).
    pub is_test: bool,
}

/// A `{ … }` block as a statement list.
#[derive(Debug, Default)]
pub(crate) struct Block {
    /// Statements in source order.
    pub(crate) stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug)]
pub(crate) enum Stmt {
    /// `let <pat> [: ty] = init;` — `name` is the last identifier bound by
    /// the pattern (`let Some(x)` names `x`), when one exists.
    Let {
        name: Option<String>,
        ty: Option<String>,
        init: Option<Expr>,
        line: u32,
    },
    /// An expression statement; `has_semi` distinguishes a trailing
    /// (value-producing) expression from a discarded one.
    Expr { expr: Expr, has_semi: bool },
    /// `return [expr];`
    Return { value: Option<Expr>, line: u32 },
}

/// One expression tree node.
#[derive(Debug)]
pub(crate) enum Expr {
    /// A (possibly multi-segment) path used as a value, e.g. `x`, `f64::MAX`.
    Path { segs: Vec<String>, line: u32 },
    /// Any literal (number, string, char, bool).
    Lit { line: u32 },
    /// Free or associated call: `f(a)`, `Type::new(a)`.
    Call {
        path: Vec<String>,
        args: Vec<Expr>,
        line: u32,
    },
    /// Method call `recv.name(args)`.
    MethodCall {
        recv: Box<Expr>,
        method: String,
        args: Vec<Expr>,
        line: u32,
    },
    /// Field access `base.name` (tuple indices keep their digit text).
    Field {
        base: Box<Expr>,
        name: String,
        line: u32,
    },
    /// Indexing `base[index]`.
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
        line: u32,
    },
    /// Prefix operator (`-`, `!`, `*`, `&`, `&mut`).
    Unary { expr: Box<Expr>, line: u32 },
    /// Infix operator that is not an assignment.
    Binary {
        op: &'static str,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        line: u32,
    },
    /// `target = value` and compound assignments.
    Assign {
        op: &'static str,
        target: Box<Expr>,
        value: Box<Expr>,
        line: u32,
    },
    /// `expr as Type` (the target type is dropped).
    Cast { expr: Box<Expr>, line: u32 },
    /// `expr?`
    Try { expr: Box<Expr>, line: u32 },
    /// Macro invocation with best-effort argument expressions.
    Macro {
        name: String,
        args: Vec<Expr>,
        line: u32,
    },
    /// Closure; parameters are dropped, the body is kept.
    Closure { body: Box<Expr>, line: u32 },
    /// A block used as an expression (incl. `unsafe { … }`).
    Block { block: Block, line: u32 },
    /// `if`/`if let`; the pattern of `if let` is dropped.
    If {
        cond: Box<Expr>,
        then_block: Block,
        else_branch: Option<Box<Expr>>,
        line: u32,
    },
    /// `match`; arms keep guard and body expressions only.
    Match {
        scrutinee: Box<Expr>,
        arms: Vec<Expr>,
        line: u32,
    },
    /// `while`/`while let`/`for`/`loop`; `cond` is the condition or the
    /// iterated expression.
    Loop {
        cond: Option<Box<Expr>>,
        body: Block,
        line: u32,
    },
    /// Struct literal `Path { field: expr, .. }`.
    StructLit {
        path: Vec<String>,
        fields: Vec<(String, Expr)>,
        line: u32,
    },
    /// Tuple, array or other bracketed grouping of expressions.
    Group { items: Vec<Expr>, line: u32 },
    /// Anything the parser could not understand; consumes ≥ 1 token.
    Opaque { line: u32 },
}

impl Expr {
    /// The 1-indexed source line this node starts on.
    pub(crate) fn line(&self) -> u32 {
        match self {
            Expr::Path { line, .. }
            | Expr::Lit { line }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Cast { line, .. }
            | Expr::Try { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Closure { line, .. }
            | Expr::Block { line, .. }
            | Expr::If { line, .. }
            | Expr::Match { line, .. }
            | Expr::Loop { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::Group { line, .. }
            | Expr::Opaque { line } => *line,
        }
    }

    /// Depth-first visit of this node and every sub-expression, including
    /// those inside nested blocks, closures and match arms.
    pub(crate) fn visit(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Opaque { .. } => {}
            Expr::Call { args, .. } | Expr::Macro { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.visit(f);
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Field { base, .. } => base.visit(f),
            Expr::Index { base, index, .. } => {
                base.visit(f);
                index.visit(f);
            }
            Expr::Unary { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::Try { expr, .. }
            | Expr::Closure { body: expr, .. } => expr.visit(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Assign { target, value, .. } => {
                target.visit(f);
                value.visit(f);
            }
            Expr::Block { block, .. } => block.visit(f),
            Expr::If {
                cond,
                then_block,
                else_branch,
                ..
            } => {
                cond.visit(f);
                then_block.visit(f);
                if let Some(e) = else_branch {
                    e.visit(f);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                scrutinee.visit(f);
                for a in arms {
                    a.visit(f);
                }
            }
            Expr::Loop { cond, body, .. } => {
                if let Some(c) = cond {
                    c.visit(f);
                }
                body.visit(f);
            }
            Expr::StructLit { fields, .. } => {
                for (_, e) in fields {
                    e.visit(f);
                }
            }
            Expr::Group { items, .. } => {
                for e in items {
                    e.visit(f);
                }
            }
        }
    }
}

impl Block {
    /// Depth-first visit of every expression in the block (and nested
    /// blocks), including `let` initialisers and `return` values.
    pub(crate) fn visit(&self, f: &mut dyn FnMut(&Expr)) {
        for stmt in &self.stmts {
            match stmt {
                Stmt::Let {
                    init: Some(init), ..
                } => init.visit(f),
                Stmt::Let { .. } => {}
                Stmt::Expr { expr, .. } => expr.visit(f),
                Stmt::Return { value: Some(v), .. } => v.visit(f),
                Stmt::Return { .. } => {}
            }
        }
    }
}

/// The base (outermost) type name of a space-joined type string:
/// references, `mut`, `dyn`, `impl` and lifetimes are stripped, and a
/// path's last segment before any generic arguments wins —
/// `& mut epc :: Epc < 'a >` yields `Epc`.
pub fn base_type_name(ty: &str) -> Option<String> {
    let mut last: Option<&str> = None;
    for word in ty.split_whitespace() {
        match word {
            "&" | "&&" | "mut" | "dyn" | "impl" | "::" => continue,
            w if w.starts_with('\'') => continue,
            "<" => break,
            w if w.chars().all(|c| c.is_alphanumeric() || c == '_') && !w.is_empty() => {
                last = Some(w);
            }
            _ => break,
        }
    }
    last.map(str::to_string)
}

/// Parses a lexed file into its item model. Never fails: unparseable
/// regions degrade to `Expr::Opaque` nodes.
pub fn parse_file(file: &SourceFile) -> ParsedFile {
    let code: Vec<&Token> = file
        .tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment(_)))
        .collect();
    let mut parser = Parser {
        toks: code,
        pos: 0,
        out: ParsedFile::default(),
    };
    parser.items(None, usize::MAX);
    let mut out = parser.out;
    for f in &mut out.fns {
        f.is_test = file.test_only || file.is_test_line(f.line);
    }
    for t in &mut out.types {
        t.is_test = file.test_only || file.is_test_line(t.line);
    }
    for a in &mut out.aliases {
        a.is_test = file.test_only || file.is_test_line(a.line);
    }
    for c in &mut out.consts {
        c.is_test = file.test_only || file.is_test_line(c.line);
    }
    out
}

/// Keywords that start a non-`fn` item the statement parser skips over.
const ITEM_KEYWORDS: &[&str] = &[
    "use",
    "struct",
    "enum",
    "union",
    "type",
    "static",
    "macro_rules",
    "extern",
];

struct Parser<'a> {
    toks: Vec<&'a Token>,
    pos: usize,
    out: ParsedFile,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&TokenKind> {
        self.toks.get(self.pos).map(|t| &t.kind)
    }

    fn peek_at(&self, ahead: usize) -> Option<&TokenKind> {
        self.toks.get(self.pos + ahead).map(|t| &t.kind)
    }

    fn line(&self) -> u32 {
        self.toks.get(self.pos).map_or(0, |t| t.line)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn at_punct(&self, p: &str) -> bool {
        self.peek().is_some_and(|k| k.is_punct(p))
    }

    fn at_ident(&self, name: &str) -> bool {
        self.peek().is_some_and(|k| k.is_ident(name))
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if self.at_ident(name) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident_text(&self) -> Option<String> {
        self.peek().and_then(|k| k.ident()).map(str::to_string)
    }

    /// Skips one `#[…]` / `#![…]` attribute if the cursor is on `#`.
    fn skip_attribute(&mut self) {
        if !self.at_punct("#") {
            return;
        }
        self.bump();
        self.eat_punct("!");
        if !self.at_punct("[") {
            return;
        }
        let mut depth = 0usize;
        while let Some(k) = self.peek() {
            if k.is_punct("[") {
                depth += 1;
            } else if k.is_punct("]") {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    fn skip_attributes(&mut self) {
        while self.at_punct("#") {
            let before = self.pos;
            self.skip_attribute();
            if self.pos == before {
                self.bump();
            }
        }
    }

    /// Skips one attribute like [`skip_attribute`](Self::skip_attribute),
    /// but first recognises the exact shapes `#[cfg(name)]` and
    /// `#[cfg(not(name))]` and returns the flag for those.
    fn collect_attribute(&mut self) -> Option<CfgFlag> {
        if !self.at_punct("#") {
            return None;
        }
        let mut at = 1usize;
        if self.peek_at(at).is_some_and(|k| k.is_punct("!")) {
            at += 1;
        }
        let mut flag = None;
        if self.peek_at(at).is_some_and(|k| k.is_punct("["))
            && self.peek_at(at + 1).is_some_and(|k| k.is_ident("cfg"))
            && self.peek_at(at + 2).is_some_and(|k| k.is_punct("("))
        {
            if self.peek_at(at + 3).is_some_and(|k| k.is_ident("not"))
                && self.peek_at(at + 4).is_some_and(|k| k.is_punct("("))
            {
                if let Some(name) = self.peek_at(at + 5).and_then(|k| k.ident()) {
                    if self.peek_at(at + 6).is_some_and(|k| k.is_punct(")"))
                        && self.peek_at(at + 7).is_some_and(|k| k.is_punct(")"))
                    {
                        flag = Some(CfgFlag {
                            name: name.to_string(),
                            negated: true,
                        });
                    }
                }
            } else if let Some(name) = self.peek_at(at + 3).and_then(|k| k.ident()) {
                if self.peek_at(at + 4).is_some_and(|k| k.is_punct(")")) {
                    flag = Some(CfgFlag {
                        name: name.to_string(),
                        negated: false,
                    });
                }
            }
        }
        self.skip_attribute();
        flag
    }

    /// Skips all attributes at the cursor, collecting recognised single
    /// `cfg` flags.
    fn collect_attributes(&mut self) -> Vec<CfgFlag> {
        let mut flags = Vec::new();
        while self.at_punct("#") {
            let before = self.pos;
            if let Some(flag) = self.collect_attribute() {
                flags.push(flag);
            }
            if self.pos == before {
                self.bump();
            }
        }
        flags
    }

    /// Skips a balanced `<…>` generic-argument list starting at `<`.
    fn skip_angles(&mut self) {
        if !self.at_punct("<") {
            return;
        }
        let mut depth = 0i32;
        while let Some(k) = self.peek() {
            if k.is_punct("<") {
                depth += 1;
            } else if k.is_punct("<<") {
                depth += 2;
            } else if k.is_punct(">") {
                depth -= 1;
            } else if k.is_punct(">>") {
                depth -= 2;
            } else if k.is_punct(";") || k.is_punct("{") {
                return; // runaway guard: generics never contain these here
            }
            self.bump();
            if depth <= 0 {
                return;
            }
        }
    }

    /// Skips to just past the `}` matching the `{` at the cursor.
    fn skip_braces(&mut self) {
        if !self.at_punct("{") {
            return;
        }
        let mut depth = 0usize;
        while let Some(k) = self.peek() {
            if k.is_punct("{") {
                depth += 1;
            } else if k.is_punct("}") {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Parses items until `}` (or EOF), at most `limit` tokens past start.
    fn items(&mut self, impl_type: Option<&str>, limit: usize) {
        let end = self.pos.saturating_add(limit);
        while self.pos < self.toks.len() && self.pos < end {
            if self.at_punct("}") {
                return;
            }
            let before = self.pos;
            self.item(impl_type);
            if self.pos == before {
                self.bump();
            }
        }
    }

    /// Parses (or skips) one item.
    fn item(&mut self, impl_type: Option<&str>) {
        let cfgs = self.collect_attributes();
        let mut is_pub = false;
        if self.eat_ident("pub") {
            is_pub = true;
            if self.at_punct("(") {
                is_pub = false; // pub(crate) / pub(super) are not public API
                self.skip_parens();
            }
        }
        // Qualifiers that may precede `fn`.
        loop {
            if self.eat_ident("const") {
                // `const fn` qualifier vs. `const NAME: T = …;` item.
                if !self.at_ident("fn") && !self.at_ident("unsafe") && !self.at_ident("extern") {
                    self.parse_const(cfgs);
                    return;
                }
            } else if self.eat_ident("unsafe") || self.eat_ident("async") {
                // keep scanning toward `fn`
            } else if self.at_ident("extern") && self.peek_at(1) == Some(&TokenKind::Str) {
                self.bump();
                self.bump();
            } else {
                break;
            }
        }
        if self.at_ident("fn") {
            self.parse_fn(is_pub, impl_type);
        } else if self.at_ident("impl") {
            self.parse_impl();
        } else if self.at_ident("trait") {
            self.bump();
            let name = self.ident_text();
            if name.is_some() {
                self.bump();
            }
            self.skip_to_body_open();
            if self.at_punct("{") {
                self.bump();
                self.items(name.as_deref(), usize::MAX);
                self.eat_punct("}");
            }
        } else if self.at_ident("mod") {
            self.bump();
            if matches!(self.peek(), Some(TokenKind::Ident(_))) {
                self.bump();
            }
            if self.at_punct("{") {
                self.bump();
                self.items(None, usize::MAX);
                self.eat_punct("}");
            } else {
                self.eat_punct(";");
            }
        } else if self.at_ident("use") {
            self.parse_use();
        } else if self.at_ident("struct") || self.at_ident("enum") || self.at_ident("union") {
            self.parse_type_def(is_pub);
        } else if self.at_ident("static") {
            self.skip_to_semi();
        } else if self.at_ident("type") {
            let line = self.line();
            self.bump();
            if let Some(name) = self.ident_text() {
                self.bump();
                if self.at_punct("<") {
                    self.skip_angles();
                }
                // Trait-declaration associated types (`type Output;`)
                // have no right-hand side and are not aliases.
                if self.eat_punct("=") {
                    let ty = self.type_text_until(&[";"]);
                    self.out.aliases.push(AliasItem {
                        name,
                        ty,
                        line,
                        is_test: false,
                    });
                }
            }
            self.skip_to_semi();
        } else if self
            .peek()
            .is_some_and(|k| ITEM_KEYWORDS.iter().any(|kw| k.is_ident(kw)))
        {
            // `extern "C" { … }`, `macro_rules! name { … }`, `type`/`static`/`use`.
            while let Some(k) = self.peek() {
                if k.is_punct("{") {
                    self.skip_braces();
                    return;
                }
                if k.is_punct(";") {
                    self.bump();
                    return;
                }
                self.bump();
            }
        } else {
            self.bump();
        }
    }

    fn skip_parens(&mut self) {
        if !self.at_punct("(") {
            return;
        }
        let mut depth = 0usize;
        while let Some(k) = self.peek() {
            if k.is_punct("(") {
                depth += 1;
            } else if k.is_punct(")") {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    fn skip_to_semi(&mut self) {
        let mut depth = 0usize;
        while let Some(k) = self.peek() {
            if k.is_punct("{") || k.is_punct("(") || k.is_punct("[") {
                depth += 1;
            } else if k.is_punct("}") || k.is_punct(")") || k.is_punct("]") {
                if depth == 0 {
                    return; // enclosing close: missing semicolon, stop here
                }
                depth -= 1;
            } else if k.is_punct(";") && depth == 0 {
                self.bump();
                return;
            }
            self.bump();
        }
    }

    /// Advances to the `{` opening an item body (skipping generics and
    /// `where` clauses), or to `;` for bodiless items.
    fn skip_to_body_open(&mut self) {
        while let Some(k) = self.peek() {
            if k.is_punct("{") || k.is_punct(";") {
                return;
            }
            if k.is_punct("<") {
                self.skip_angles();
                continue;
            }
            self.bump();
        }
    }

    /// Parses `const NAME: T = …;` with the cursor just past `const`.
    fn parse_const(&mut self, cfgs: Vec<CfgFlag>) {
        let line = self.line();
        let Some(name) = self.ident_text() else {
            self.skip_to_semi();
            return;
        };
        self.bump();
        if !self.eat_punct(":") {
            self.skip_to_semi();
            return;
        }
        let ty = self.type_text_until(&["=", ";"]);
        let mut value = String::new();
        // A block value (`const _: () = { …; … };`) holds statements; the
        // brace-aware skip below steps over it whole.
        if self.eat_punct("=") && !self.at_punct("{") {
            value = self.type_text_until(&[";"]);
        }
        self.out.consts.push(ConstItem {
            name,
            ty,
            value,
            line,
            is_test: false,
            cfgs,
        });
        self.skip_to_semi();
    }

    fn parse_impl(&mut self) {
        self.bump(); // `impl`
        if self.at_punct("<") {
            self.skip_angles();
        }
        // First path: the trait (when followed by `for`) or the self type.
        let first = self.impl_path();
        let self_ty = if self.eat_ident("for") {
            self.impl_path()
        } else {
            first
        };
        self.skip_to_body_open();
        if self.at_punct("{") {
            self.bump();
            self.items(self_ty.as_deref(), usize::MAX);
            self.eat_punct("}");
        }
    }

    /// Reads a type path in an impl header, returning the base name.
    fn impl_path(&mut self) -> Option<String> {
        let mut base = None;
        loop {
            match self.peek() {
                Some(TokenKind::Ident(s)) if s != "for" && s != "where" => {
                    base = Some(s.clone());
                    self.bump();
                    if !self.eat_punct("::") {
                        break;
                    }
                }
                Some(k) if k.is_punct("<") => {
                    self.skip_angles();
                    break;
                }
                Some(k) if k.is_punct("&") || k.is_punct("(") => {
                    // `impl Trait for &T` / tuple impls: skip one token and
                    // keep looking for the base identifier.
                    self.bump();
                }
                _ => break,
            }
        }
        // Trailing generics after the base path (`Reader<T>`).
        if self.at_punct("<") {
            self.skip_angles();
        }
        base
    }

    fn parse_use(&mut self) {
        self.bump(); // `use`
        let mut prefix: Vec<String> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        let mut flushed = false;
        while let Some(k) = self.peek() {
            if k.is_punct(";") {
                self.bump();
                break;
            }
            if let Some(name) = k.ident() {
                if name == "as" {
                    // alias: skip the rename, keep the original path
                    self.bump();
                    if matches!(self.peek(), Some(TokenKind::Ident(_))) {
                        self.bump();
                    }
                    continue;
                }
                prefix.push(name.to_string());
                flushed = false;
                self.bump();
                continue;
            }
            if k.is_punct("::") {
                self.bump();
                continue;
            }
            if k.is_punct("{") {
                stack.push(prefix.len());
                self.bump();
                continue;
            }
            let is_close = k.is_punct("}");
            if k.is_punct(",") || is_close {
                if !flushed && !prefix.is_empty() {
                    self.out.uses.push(prefix.clone());
                }
                let restore = stack.last().copied().unwrap_or(0);
                prefix.truncate(restore);
                if is_close {
                    stack.pop();
                }
                self.bump();
                flushed = true;
                continue;
            }
            if k.is_punct("*") {
                // glob: record the prefix itself
                self.bump();
                continue;
            }
            self.bump();
        }
        if !flushed && !prefix.is_empty() {
            self.out.uses.push(prefix);
        }
    }

    /// Parses a `struct` / `enum` / `union` definition into a
    /// [`TypeItem`]. Field types are kept as flat token text so the
    /// call graph and the atomics pass can type receivers field by field;
    /// generics and `where` clauses are skipped.
    fn parse_type_def(&mut self, is_pub: bool) {
        let line = self.line();
        let is_enum = self.at_ident("enum");
        self.bump(); // `struct` / `enum` / `union`
        let Some(name) = self.ident_text() else {
            return;
        };
        self.bump();
        if self.at_punct("<") {
            self.skip_angles();
        }
        // Skip any `where` clause tokens up to the body or `;`. A `(`
        // before `where` opens a tuple struct; inside a `where` clause it
        // belongs to an `Fn(…)` bound and is skipped balanced.
        let mut in_where = false;
        while let Some(k) = self.peek() {
            if k.is_punct("{") || k.is_punct(";") {
                break;
            }
            if k.is_punct("(") {
                if in_where {
                    self.skip_parens();
                    continue;
                }
                break;
            }
            if k.is_punct("<") {
                self.skip_angles();
                continue;
            }
            if k.is_ident("where") {
                in_where = true;
            }
            self.bump();
        }
        let mut fields = Vec::new();
        if self.at_punct("(") {
            // Tuple struct: fields named by index.
            self.bump();
            self.parse_tuple_fields(&mut fields, None);
            self.skip_to_semi();
        } else if self.at_punct("{") {
            self.bump();
            if is_enum {
                self.parse_enum_variants(&mut fields);
            } else {
                self.parse_named_fields(&mut fields, None);
            }
            self.eat_punct("}");
        } else {
            self.eat_punct(";"); // unit struct
        }
        self.out.types.push(TypeItem {
            name,
            is_pub,
            line,
            fields,
            is_test: false,
        });
    }

    /// Parses `name: Type` fields until `}`; the cursor is just past `{`.
    /// Enum struct-variants pass the variant name as `prefix`.
    fn parse_named_fields(&mut self, fields: &mut Vec<FieldItem>, prefix: Option<&str>) {
        while let Some(k) = self.peek() {
            if k.is_punct("}") {
                return; // caller eats the brace
            }
            self.skip_attributes();
            if self.eat_ident("pub") && self.at_punct("(") {
                self.skip_parens();
            }
            let line = self.line();
            let Some(field) = self.ident_text() else {
                self.bump(); // resync on anything unexpected
                continue;
            };
            self.bump();
            if !self.eat_punct(":") {
                continue;
            }
            let ty = self.type_text_until(&["}"]);
            if !ty.is_empty() {
                let name = match prefix {
                    Some(p) => format!("{p}.{field}"),
                    None => field,
                };
                fields.push(FieldItem { name, ty, line });
            }
            self.eat_punct(",");
        }
    }

    /// Parses tuple-field types until `)`; the cursor is just past `(`.
    /// Fields are named by index, or `variant.index` inside an enum.
    fn parse_tuple_fields(&mut self, fields: &mut Vec<FieldItem>, variant: Option<&str>) {
        let mut index = 0usize;
        loop {
            if self.eat_punct(")") || self.peek().is_none() {
                return;
            }
            let line = self.line();
            self.skip_attributes();
            if self.eat_ident("pub") && self.at_punct("(") {
                self.skip_parens();
            }
            let ty = self.type_text_until(&[]);
            if !ty.is_empty() {
                let name = match variant {
                    Some(v) => format!("{v}.{index}"),
                    None => index.to_string(),
                };
                fields.push(FieldItem { name, ty, line });
                index += 1;
            }
            if !self.eat_punct(",") && !self.at_punct(")") {
                self.bump(); // resync
            }
        }
    }

    /// Parses enum variants until `}`, flattening every variant payload
    /// into the shared field list; the cursor is just past `{`.
    fn parse_enum_variants(&mut self, fields: &mut Vec<FieldItem>) {
        while let Some(k) = self.peek() {
            if k.is_punct("}") {
                return; // caller eats the brace
            }
            self.skip_attributes();
            let Some(variant) = self.ident_text() else {
                self.bump();
                continue;
            };
            self.bump();
            if self.at_punct("(") {
                self.bump();
                self.parse_tuple_fields(fields, Some(&variant));
            } else if self.at_punct("{") {
                self.bump();
                self.parse_named_fields(fields, Some(&variant));
                self.eat_punct("}");
            } else if self.eat_punct("=") {
                // Explicit discriminant: skip the expression.
                let mut depth = 0usize;
                while let Some(k) = self.peek() {
                    if k.is_punct("(") || k.is_punct("[") || k.is_punct("{") {
                        depth += 1;
                    } else if k.is_punct(")") || k.is_punct("]") || k.is_punct("}") {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    } else if k.is_punct(",") && depth == 0 {
                        break;
                    }
                    self.bump();
                }
            }
            self.eat_punct(",");
        }
    }

    fn parse_fn(&mut self, is_pub: bool, impl_type: Option<&str>) {
        let line = self.line();
        self.bump(); // `fn`
        let Some(name) = self.ident_text() else {
            return;
        };
        self.bump();
        if self.at_punct("<") {
            self.skip_angles();
        }
        let mut params = Vec::new();
        if self.at_punct("(") {
            self.bump();
            params = self.parse_params();
        }
        let mut ret_type = None;
        if self.eat_punct("->") {
            ret_type = Some(self.type_text_until(&["{", ";", "where"]));
        }
        if self.at_ident("where") {
            self.skip_to_body_open();
        }
        let body = if self.at_punct("{") {
            Some(self.parse_block())
        } else {
            self.eat_punct(";");
            None
        };
        self.out.fns.push(FnItem {
            name,
            impl_type: impl_type.map(str::to_string),
            is_pub,
            line,
            params,
            ret_type,
            body,
            is_test: false,
        });
    }

    /// Parses a parameter list; the cursor is just past `(`.
    fn parse_params(&mut self) -> Vec<Param> {
        let mut params = Vec::new();
        let mut depth = 0usize;
        let mut pat: Vec<String> = Vec::new();
        let mut ty: Vec<String> = Vec::new();
        let mut in_ty = false;
        while let Some(k) = self.peek() {
            if depth == 0 {
                if k.is_punct(")") {
                    self.bump();
                    break;
                }
                if k.is_punct(",") {
                    push_param(&mut params, &mut pat, &mut ty);
                    in_ty = false;
                    self.bump();
                    continue;
                }
                if k.is_punct(":") && !in_ty {
                    in_ty = true;
                    self.bump();
                    continue;
                }
                if k.is_punct("#") {
                    self.skip_attribute();
                    continue;
                }
            }
            if k.is_punct("(") || k.is_punct("[") || k.is_punct("{") {
                depth += 1;
            } else if k.is_punct(")") || k.is_punct("]") || k.is_punct("}") {
                depth = depth.saturating_sub(1);
            }
            let text = token_text(k);
            if in_ty {
                ty.push(text);
            } else {
                pat.push(text);
            }
            self.bump();
        }
        push_param(&mut params, &mut pat, &mut ty);
        params
    }

    /// Collects flat type text until one of `stops` at bracket depth 0.
    fn type_text_until(&mut self, stops: &[&str]) -> String {
        let mut parts = Vec::new();
        let mut angle = 0i32;
        let mut depth = 0usize;
        while let Some(k) = self.peek() {
            if depth == 0 && angle <= 0 {
                let hit = stops.iter().any(|s| k.is_punct(s) || k.is_ident(s));
                if hit {
                    break;
                }
            }
            if k.is_punct("<") {
                angle += 1;
            } else if k.is_punct("<<") {
                angle += 2;
            } else if k.is_punct(">") {
                angle -= 1;
            } else if k.is_punct(">>") {
                angle -= 2;
            } else if k.is_punct("(") || k.is_punct("[") || k.is_punct("{") {
                // Braces nest too: a struct-literal `const` value holds
                // top-level commas and ends in a `}` of its own.
                depth += 1;
            } else if k.is_punct(")") || k.is_punct("]") || k.is_punct("}") {
                if depth == 0 {
                    break; // enclosing close
                }
                depth -= 1;
            } else if k.is_punct(",") && depth == 0 && angle <= 0 {
                break;
            }
            parts.push(token_text(k));
            self.bump();
        }
        parts.join(" ")
    }

    fn parse_block(&mut self) -> Block {
        let mut block = Block::default();
        if !self.eat_punct("{") {
            return block;
        }
        while let Some(k) = self.peek() {
            if k.is_punct("}") {
                self.bump();
                return block;
            }
            let before = self.pos;
            if let Some(stmt) = self.parse_stmt() {
                block.stmts.push(stmt);
            }
            if self.pos == before {
                self.bump();
            }
        }
        block
    }

    /// Parses one statement; returns `None` for skipped nested items.
    fn parse_stmt(&mut self) -> Option<Stmt> {
        self.skip_attributes();
        if self.at_punct(";") {
            self.bump();
            return None;
        }
        if self.at_ident("let") {
            return Some(self.parse_let());
        }
        if self.at_ident("return") {
            let line = self.line();
            self.bump();
            let value = if self.at_punct(";") || self.at_punct("}") {
                None
            } else {
                Some(self.parse_expr(true))
            };
            self.eat_punct(";");
            return Some(Stmt::Return { value, line });
        }
        // Nested items inside bodies are parsed (fn) or skipped (rest).
        if self.at_ident("fn")
            || (self.at_ident("pub"))
            || self.at_ident("impl")
            || self.at_ident("trait")
            || self.at_ident("mod")
            || self
                .peek()
                .is_some_and(|k| ITEM_KEYWORDS.iter().any(|kw| k.is_ident(kw)))
        {
            // `const { … }` blocks and `unsafe` exprs are NOT items; `const`
            // here is always `const NAME: T = …;` in statement position.
            self.item(None);
            return None;
        }
        let expr = self.parse_expr(true);
        let has_semi = self.eat_punct(";");
        Some(Stmt::Expr { expr, has_semi })
    }

    fn parse_let(&mut self) -> Stmt {
        let line = self.line();
        self.bump(); // `let`
                     // Skim the pattern up to a top-level `:`, `=` or `;`.
        let mut name = None;
        let mut depth = 0usize;
        while let Some(k) = self.peek() {
            if depth == 0 && (k.is_punct(":") || k.is_punct("=") || k.is_punct(";")) {
                break;
            }
            if k.is_punct("(") || k.is_punct("[") || k.is_punct("{") {
                depth += 1;
            } else if k.is_punct(")") || k.is_punct("]") || k.is_punct("}") {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if let Some(id) = k.ident() {
                if id != "mut" && id != "ref" && id != "_" {
                    name = Some(id.to_string());
                }
            }
            self.bump();
        }
        let ty = if self.eat_punct(":") {
            Some(self.type_text_until(&["=", ";"]))
        } else {
            None
        };
        let init = if self.eat_punct("=") {
            let e = self.parse_expr(true);
            // let-else divergence block
            if self.eat_ident("else") && self.at_punct("{") {
                self.skip_braces();
            }
            Some(e)
        } else {
            None
        };
        self.eat_punct(";");
        Stmt::Let {
            name,
            ty,
            init,
            line,
        }
    }

    // ---- expression parsing (precedence climbing) ----

    fn parse_expr(&mut self, allow_struct: bool) -> Expr {
        self.parse_assign(allow_struct)
    }

    fn parse_assign(&mut self, allow_struct: bool) -> Expr {
        let lhs = self.parse_range(allow_struct);
        for op in ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="] {
            if self.at_punct(op) {
                let line = self.line();
                self.bump();
                let value = self.parse_assign(allow_struct);
                return Expr::Assign {
                    op,
                    target: Box::new(lhs),
                    value: Box::new(value),
                    line,
                };
            }
        }
        lhs
    }

    fn parse_range(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        let lo = if self.at_punct("..") {
            Expr::Opaque { line }
        } else {
            self.parse_binary(0, allow_struct)
        };
        if self.at_punct("..") {
            let line = self.line();
            self.bump();
            self.eat_punct("="); // `..=` lexes as `..` `=`
            let hi = if self.range_end_ahead() {
                Expr::Opaque { line }
            } else {
                self.parse_binary(0, allow_struct)
            };
            return Expr::Binary {
                op: "..",
                lhs: Box::new(lo),
                rhs: Box::new(hi),
                line,
            };
        }
        lo
    }

    /// After `..`: is the range end absent (`a..` before `)`/`]`/etc.)?
    fn range_end_ahead(&self) -> bool {
        match self.peek() {
            None => true,
            Some(k) => {
                k.is_punct(")")
                    || k.is_punct("]")
                    || k.is_punct("}")
                    || k.is_punct(",")
                    || k.is_punct(";")
                    || k.is_punct("{")
                    || k.is_punct("=>")
            }
        }
    }

    /// Binary operator tiers, loosest first.
    const BINARY_TIERS: &'static [&'static [&'static str]] = &[
        &["||"],
        &["&&"],
        &["==", "!=", "<", ">", "<=", ">="],
        &["|"],
        &["^"],
        &["&"],
        &["<<", ">>"],
        &["+", "-"],
        &["*", "/", "%"],
    ];

    fn parse_binary(&mut self, tier: usize, allow_struct: bool) -> Expr {
        let Some(ops) = Self::BINARY_TIERS.get(tier) else {
            return self.parse_unary(allow_struct);
        };
        let mut lhs = self.parse_binary(tier + 1, allow_struct);
        loop {
            let Some(op) = ops.iter().find(|op| self.at_punct(op)) else {
                return lhs;
            };
            // `<` here is always a comparison: generic args in expressions
            // require the turbofish, which the path parser consumed.
            let line = self.line();
            self.bump();
            let rhs = self.parse_binary(tier + 1, allow_struct);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
    }

    fn parse_unary(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        for op in ["-", "!", "*", "&", "&&"] {
            if self.at_punct(op) {
                self.bump();
                self.eat_ident("mut");
                let inner = self.parse_unary(allow_struct);
                return Expr::Unary {
                    expr: Box::new(inner),
                    line,
                };
            }
        }
        self.parse_postfix(allow_struct)
    }

    fn parse_postfix(&mut self, allow_struct: bool) -> Expr {
        let mut expr = self.parse_primary(allow_struct);
        loop {
            let line = self.line();
            if self.at_punct(".") {
                self.bump();
                match self.peek() {
                    Some(TokenKind::Ident(name)) => {
                        let name = name.clone();
                        self.bump();
                        if name == "await" {
                            continue;
                        }
                        if self.at_punct("::") {
                            self.bump();
                            self.skip_angles(); // turbofish
                        }
                        if self.at_punct("(") {
                            self.bump();
                            let args = self.parse_args(")");
                            expr = Expr::MethodCall {
                                recv: Box::new(expr),
                                method: name,
                                args,
                                line,
                            };
                        } else {
                            expr = Expr::Field {
                                base: Box::new(expr),
                                name,
                                line,
                            };
                        }
                    }
                    Some(TokenKind::Int(text) | TokenKind::Float(text)) => {
                        let name = text.clone();
                        self.bump();
                        expr = Expr::Field {
                            base: Box::new(expr),
                            name,
                            line,
                        };
                    }
                    _ => {
                        expr = Expr::Opaque { line };
                        break;
                    }
                }
            } else if self.at_punct("(") {
                self.bump();
                let args = self.parse_args(")");
                let path = match &expr {
                    Expr::Path { segs, .. } => segs.clone(),
                    _ => Vec::new(),
                };
                expr = Expr::Call { path, args, line };
            } else if self.at_punct("[") {
                self.bump();
                let index = self.parse_expr(true);
                self.close_group("]");
                expr = Expr::Index {
                    base: Box::new(expr),
                    index: Box::new(index),
                    line,
                };
            } else if self.at_punct("?") {
                self.bump();
                expr = Expr::Try {
                    expr: Box::new(expr),
                    line,
                };
            } else if self.at_ident("as") {
                self.bump();
                self.type_text_until(&[
                    ")", "]", "}", ",", ";", "{", "=>", "?", ".", "+", "-", "*", "/", "%", "==",
                    "!=", "<", ">", "<=", ">=", "&&", "||", "..", "=",
                ]);
                expr = Expr::Cast {
                    expr: Box::new(expr),
                    line,
                };
            } else {
                break;
            }
        }
        expr
    }

    /// Parses comma-separated expressions up to (and past) `close`.
    fn parse_args(&mut self, close: &str) -> Vec<Expr> {
        let mut args = Vec::new();
        loop {
            if self.eat_punct(close) {
                return args;
            }
            if self.peek().is_none() {
                return args;
            }
            let before = self.pos;
            args.push(self.parse_expr(true));
            if self.pos == before {
                self.bump(); // unparseable token: drop it, keep going
                args.pop();
            }
            if !self.eat_punct(",") && !self.at_punct(close) {
                // Recovery: skip to the next top-level `,` or the close.
                self.sync_to_comma_or(close);
            }
        }
    }

    /// Skips past the closing delimiter of the current group.
    fn close_group(&mut self, close: &str) {
        self.sync_to_comma_or(close);
        while self.eat_punct(",") {
            self.sync_to_comma_or(close);
        }
        self.eat_punct(close);
    }

    fn sync_to_comma_or(&mut self, close: &str) {
        let mut depth = 0usize;
        while let Some(k) = self.peek() {
            if depth == 0 && (k.is_punct(",") || k.is_punct(close)) {
                return;
            }
            if k.is_punct("(") || k.is_punct("[") || k.is_punct("{") {
                depth += 1;
            } else if k.is_punct(")") || k.is_punct("]") || k.is_punct("}") {
                if depth == 0 {
                    return; // enclosing close we do not own
                }
                depth -= 1;
            }
            self.bump();
        }
    }

    fn parse_primary(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        match self.peek() {
            Some(TokenKind::Int(_) | TokenKind::Float(_) | TokenKind::Str | TokenKind::Char) => {
                self.bump();
                Expr::Lit { line }
            }
            Some(TokenKind::Lifetime(_)) => {
                // loop label: `'outer: loop { … }`
                self.bump();
                self.eat_punct(":");
                self.parse_primary(allow_struct)
            }
            Some(k) if k.is_ident("true") || k.is_ident("false") => {
                self.bump();
                Expr::Lit { line }
            }
            Some(k) if k.is_ident("if") => self.parse_if(),
            Some(k) if k.is_ident("match") => self.parse_match(),
            Some(k) if k.is_ident("while") || k.is_ident("for") || k.is_ident("loop") => {
                self.parse_loop()
            }
            Some(k) if k.is_ident("unsafe") => {
                self.bump();
                if self.at_punct("{") {
                    let block = self.parse_block();
                    Expr::Block { block, line }
                } else {
                    Expr::Opaque { line }
                }
            }
            Some(k) if k.is_ident("move") || k.is_punct("|") || k.is_punct("||") => {
                self.parse_closure()
            }
            Some(k) if k.is_ident("break") || k.is_ident("continue") => {
                self.bump();
                if let Some(TokenKind::Lifetime(_)) = self.peek() {
                    self.bump();
                }
                if !self.range_end_ahead() {
                    let inner = self.parse_expr(allow_struct);
                    return Expr::Group {
                        items: vec![inner],
                        line,
                    };
                }
                Expr::Opaque { line }
            }
            Some(k) if k.is_ident("return") => {
                self.bump();
                if !self.range_end_ahead() {
                    let inner = self.parse_expr(allow_struct);
                    return Expr::Group {
                        items: vec![inner],
                        line,
                    };
                }
                Expr::Opaque { line }
            }
            Some(k) if k.is_punct("(") => {
                self.bump();
                let mut items = self.parse_args(")");
                if items.len() == 1 {
                    return items.remove(0); // parens are transparent
                }
                Expr::Group { items, line }
            }
            Some(k) if k.is_punct("[") => {
                self.bump();
                let mut items = self.parse_args("]");
                // `[expr; len]` repeats parse as one expr + recovery; fine.
                if items.len() == 1 {
                    let only = items.remove(0);
                    return Expr::Group {
                        items: vec![only],
                        line,
                    };
                }
                Expr::Group { items, line }
            }
            Some(k) if k.is_punct("{") => {
                let block = self.parse_block();
                Expr::Block { block, line }
            }
            Some(TokenKind::Ident(_)) => self.parse_path_expr(allow_struct),
            _ => {
                self.bump();
                Expr::Opaque { line }
            }
        }
    }

    fn parse_path_expr(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        let mut segs = Vec::new();
        while let Some(TokenKind::Ident(s)) = self.peek() {
            segs.push(s.clone());
            self.bump();
            if self.at_punct("::") {
                self.bump();
                if self.at_punct("<") {
                    self.skip_angles(); // turbofish `::<T>`
                    if !self.eat_punct("::") {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        if segs.is_empty() {
            self.bump();
            return Expr::Opaque { line };
        }
        if self.at_punct("!") {
            // macro invocation
            self.bump();
            let name = segs.join("::");
            let args = if self.eat_punct("(") {
                self.parse_args(")")
            } else if self.eat_punct("[") {
                self.parse_args("]")
            } else if self.at_punct("{") {
                self.bump();
                self.parse_args("}")
            } else {
                Vec::new()
            };
            return Expr::Macro { name, args, line };
        }
        if self.at_punct("(") {
            self.bump();
            let args = self.parse_args(")");
            return Expr::Call {
                path: segs,
                args,
                line,
            };
        }
        if allow_struct && self.at_punct("{") && self.struct_lit_ahead() {
            self.bump();
            let mut fields = Vec::new();
            loop {
                self.skip_attributes();
                if self.eat_punct("}") || self.peek().is_none() {
                    break;
                }
                if self.at_punct("..") {
                    // functional update: `..base`
                    self.bump();
                    let base = self.parse_expr(true);
                    fields.push(("..".to_string(), base));
                    self.close_group("}");
                    break;
                }
                let Some(field) = self.ident_text() else {
                    self.sync_to_comma_or("}");
                    self.eat_punct(",");
                    continue;
                };
                self.bump();
                let value = if self.eat_punct(":") {
                    self.parse_expr(true)
                } else {
                    // shorthand `Foo { x }`
                    Expr::Path {
                        segs: vec![field.clone()],
                        line: self.line(),
                    }
                };
                fields.push((field, value));
                if !self.eat_punct(",") && !self.at_punct("}") {
                    self.sync_to_comma_or("}");
                    self.eat_punct(",");
                }
            }
            return Expr::StructLit {
                path: segs,
                fields,
                line,
            };
        }
        Expr::Path { segs, line }
    }

    /// Distinguishes `Path { field: … }` struct literals from a path
    /// followed by a block (`match x { … }` arms never reach here because
    /// conditions parse with `allow_struct = false`).
    fn struct_lit_ahead(&self) -> bool {
        match (self.peek_at(1), self.peek_at(2)) {
            (Some(k), _) if k.is_punct("}") || k.is_punct("..") => true,
            (Some(TokenKind::Ident(_)), Some(k2)) => {
                k2.is_punct(":") || k2.is_punct(",") || k2.is_punct("}")
            }
            (Some(k), _) if k.is_punct("#") => true, // attribute on a field
            _ => false,
        }
    }

    fn parse_if(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // `if`
        let cond = if self.eat_ident("let") {
            self.skip_pattern_until(&["="]);
            self.eat_punct("=");
            self.parse_expr(false)
        } else {
            self.parse_expr(false)
        };
        let then_block = self.parse_block();
        let else_branch = if self.eat_ident("else") {
            if self.at_ident("if") {
                Some(Box::new(self.parse_if()))
            } else {
                let line = self.line();
                let block = self.parse_block();
                Some(Box::new(Expr::Block { block, line }))
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            then_block,
            else_branch,
            line,
        }
    }

    fn parse_match(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // `match`
        let scrutinee = self.parse_expr(false);
        let mut arms = Vec::new();
        if self.eat_punct("{") {
            while let Some(k) = self.peek() {
                if k.is_punct("}") {
                    self.bump();
                    break;
                }
                let before = self.pos;
                self.skip_attributes();
                self.eat_punct("|");
                self.skip_pattern_until(&["=>", "if"]);
                if self.eat_ident("if") {
                    arms.push(self.parse_expr(false)); // guard expression
                }
                if self.eat_punct("=>") {
                    arms.push(self.parse_expr(true));
                    self.eat_punct(",");
                }
                if self.pos == before {
                    self.bump();
                }
            }
        }
        Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
            line,
        }
    }

    fn parse_loop(&mut self) -> Expr {
        let line = self.line();
        if self.eat_ident("loop") {
            let body = self.parse_block();
            return Expr::Loop {
                cond: None,
                body,
                line,
            };
        }
        if self.eat_ident("while") {
            let cond = if self.eat_ident("let") {
                self.skip_pattern_until(&["="]);
                self.eat_punct("=");
                self.parse_expr(false)
            } else {
                self.parse_expr(false)
            };
            let body = self.parse_block();
            return Expr::Loop {
                cond: Some(Box::new(cond)),
                body,
                line,
            };
        }
        // `for <pat> in <iter> { … }`
        self.eat_ident("for");
        self.skip_pattern_until(&["in"]);
        self.eat_ident("in");
        let iter = self.parse_expr(false);
        let body = self.parse_block();
        Expr::Loop {
            cond: Some(Box::new(iter)),
            body,
            line,
        }
    }

    fn parse_closure(&mut self) -> Expr {
        let line = self.line();
        self.eat_ident("move");
        if self.eat_punct("||") {
            // zero-parameter closure
        } else if self.eat_punct("|") {
            let mut depth = 0usize;
            while let Some(k) = self.peek() {
                if depth == 0 && k.is_punct("|") {
                    self.bump();
                    break;
                }
                if k.is_punct("(") || k.is_punct("[") || k.is_punct("<") {
                    depth += 1;
                } else if k.is_punct(")") || k.is_punct("]") || k.is_punct(">") {
                    depth = depth.saturating_sub(1);
                }
                self.bump();
            }
        }
        if self.eat_punct("->") {
            self.type_text_until(&["{"]);
        }
        let body = self.parse_expr(true);
        Expr::Closure {
            body: Box::new(body),
            line,
        }
    }

    /// Skips pattern tokens until one of `stops` (idents or puncts) at
    /// bracket depth 0, or a statement boundary.
    fn skip_pattern_until(&mut self, stops: &[&str]) {
        let mut depth = 0usize;
        while let Some(k) = self.peek() {
            if depth == 0 {
                let hit = stops.iter().any(|s| k.is_punct(s) || k.is_ident(s));
                if hit || k.is_punct(";") {
                    return;
                }
                if k.is_punct("}") {
                    return;
                }
            }
            if k.is_punct("(") || k.is_punct("[") || k.is_punct("{") {
                depth += 1;
            } else if k.is_punct(")") || k.is_punct("]") || k.is_punct("}") {
                depth = depth.saturating_sub(1);
            }
            self.bump();
        }
    }
}

/// Finalises one accumulated parameter into the list.
fn push_param(params: &mut Vec<Param>, pat: &mut Vec<String>, ty: &mut Vec<String>) {
    if pat.is_empty() && ty.is_empty() {
        return;
    }
    let is_self = pat.iter().any(|p| p == "self");
    let name = if is_self {
        Some("self".to_string())
    } else {
        pat.iter()
            .rev()
            .find(|p| {
                p.chars().all(|c| c.is_alphanumeric() || c == '_')
                    && p != &"mut"
                    && p != &"ref"
                    && p != &"_"
                    && !p.chars().next().is_some_and(|c| c.is_ascii_digit())
            })
            .cloned()
    };
    let ty_text = if is_self && ty.is_empty() {
        "Self".to_string()
    } else {
        ty.join(" ")
    };
    params.push(Param { name, ty: ty_text });
    pat.clear();
    ty.clear();
}

/// Plain-text form of a token, for type strings.
fn token_text(kind: &TokenKind) -> String {
    match kind {
        TokenKind::Ident(s) => s.clone(),
        TokenKind::Lifetime(l) => format!("'{l}"),
        TokenKind::Int(s) | TokenKind::Float(s) => s.clone(),
        TokenKind::Str => "\"…\"".to_string(),
        TokenKind::Char => "'…'".to_string(),
        TokenKind::Punct(p) => (*p).to_string(),
        TokenKind::Comment(_) => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&SourceFile::parse("crates/dsp/src/x.rs", src))
    }

    fn find<'a>(pf: &'a ParsedFile, name: &str) -> Option<&'a FnItem> {
        pf.fns.iter().find(|f| f.name == name)
    }

    /// All call / method-call names reachable in a function body.
    fn call_names(item: &FnItem) -> Vec<String> {
        let mut names = Vec::new();
        if let Some(body) = &item.body {
            body.visit(&mut |e| match e {
                Expr::Call { path, .. } => {
                    if let Some(last) = path.last() {
                        names.push(last.clone());
                    }
                }
                Expr::MethodCall { method, .. } => names.push(method.clone()),
                _ => {}
            });
        }
        names
    }

    #[test]
    fn signature_and_visibility() {
        let pf = parse(
            "pub fn wavelength_m(freq_hz: f64) -> f64 { 3.0e8 / freq_hz }\n\
             pub(crate) fn helper(x: &mut [f64]) {}\n",
        );
        let w = find(&pf, "wavelength_m").map(|f| (f.is_pub, f.params.len()));
        assert_eq!(w, Some((true, 1)));
        let name = find(&pf, "wavelength_m").and_then(|f| f.params[0].name.clone());
        assert_eq!(name.as_deref(), Some("freq_hz"));
        let h = find(&pf, "helper").map(|f| f.is_pub);
        assert_eq!(h, Some(false), "pub(crate) is not public");
    }

    #[test]
    fn impl_methods_carry_self_type() {
        let pf = parse(
            "struct Reader { n: usize }\n\
             impl Reader {\n  pub fn new(n: usize) -> Self { Reader { n } }\n}\n\
             impl std::fmt::Display for Reader {\n  fn fmt(&self) -> usize { self.n }\n}\n",
        );
        assert_eq!(
            find(&pf, "new")
                .and_then(|f| f.impl_type.clone())
                .as_deref(),
            Some("Reader")
        );
        assert_eq!(
            find(&pf, "fmt")
                .and_then(|f| f.impl_type.clone())
                .as_deref(),
            Some("Reader"),
            "trait impls attribute methods to the self type"
        );
    }

    #[test]
    fn calls_and_method_chains_are_extracted() {
        let pf = parse(
            "fn go(xs: &[f64]) -> f64 {\n\
               let m = mean(xs);\n\
               let v = xs.iter().map(|x| x - m).sum::<f64>();\n\
               helpers::finish(v.abs(), m)\n\
             }\n",
        );
        let names = call_names(find(&pf, "go").unwrap_or(&pf.fns[0]));
        for expected in ["mean", "iter", "map", "sum", "finish", "abs"] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn indexing_and_macros_are_visible() {
        let pf = parse(
            "fn f(xs: &[f64], i: usize) -> f64 {\n\
               if i > xs.len() { panic!(\"out of range {}\", i); }\n\
               xs[i]\n\
             }\n",
        );
        let item = find(&pf, "f").map(|f| {
            let mut saw_index = false;
            let mut saw_panic = false;
            if let Some(b) = &f.body {
                b.visit(&mut |e| match e {
                    Expr::Index { .. } => saw_index = true,
                    Expr::Macro { name, .. } if name == "panic" => saw_panic = true,
                    _ => {}
                });
            }
            (saw_index, saw_panic)
        });
        assert_eq!(item, Some((true, true)));
    }

    #[test]
    fn let_binding_names_and_struct_literals() {
        let pf = parse(
            "struct P { rate_bpm: f64 }\n\
             fn f(hz: f64) -> P {\n\
               let rate_bpm = hz * 60.0;\n\
               P { rate_bpm }\n\
             }\n",
        );
        let f = find(&pf, "f");
        let has_let = f.is_some_and(|f| {
            f.body.as_ref().is_some_and(|b| {
                b.stmts
                    .iter()
                    .any(|s| matches!(s, Stmt::Let { name: Some(n), .. } if n == "rate_bpm"))
            })
        });
        assert!(has_let, "let name extracted");
        let has_lit = f.is_some_and(|f| {
            let mut found = false;
            if let Some(b) = &f.body {
                b.visit(&mut |e| {
                    if let Expr::StructLit { path, fields, .. } = e {
                        found = path == &["P"] && fields.len() == 1;
                    }
                });
            }
            found
        });
        assert!(has_lit, "struct literal with shorthand field");
    }

    #[test]
    fn control_flow_bodies_are_walked() {
        let pf = parse(
            "fn f(xs: &[f64]) -> f64 {\n\
               let mut acc = 0.0;\n\
               for x in xs.iter() {\n\
                 match classify(*x) {\n\
                   0 => acc += weigh(*x),\n\
                   n if n > 2 => acc += heavy(n),\n\
                   _ => {}\n\
                 }\n\
               }\n\
               while acc > 10.0 { acc = shrink(acc); }\n\
               acc\n\
             }\n",
        );
        let names = call_names(find(&pf, "f").unwrap_or(&pf.fns[0]));
        for expected in ["iter", "classify", "weigh", "heavy", "shrink"] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn nested_fns_and_test_marking() {
        let src = "\
pub fn outer() -> f64 { inner() }
fn inner() -> f64 { 0.0 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { super::outer(); }
}
";
        let pf = parse(src);
        assert_eq!(find(&pf, "outer").map(|f| f.is_test), Some(false));
        assert_eq!(find(&pf, "t").map(|f| f.is_test), Some(true));
    }

    #[test]
    fn use_trees_flatten() {
        let pf = parse("use a::b::{c, d::e};\nuse f as g;\n");
        assert!(pf
            .uses
            .contains(&vec!["a".to_string(), "b".to_string(), "c".to_string()]));
        assert!(pf.uses.contains(&vec![
            "a".to_string(),
            "b".to_string(),
            "d".to_string(),
            "e".to_string()
        ]));
        assert!(pf.uses.contains(&vec!["f".to_string()]));
    }

    #[test]
    fn hostile_input_terminates() {
        for src in [
            "fn f( {{{",
            "fn f() { let = ; }",
            "impl for {}",
            "fn f() { a.b.(x) }",
            "fn f() { match { => , } }",
            "fn f() -> { ",
            "fn f() { x[ }",
            "pub pub pub fn",
            "fn f() { |a, { } }",
        ] {
            let _ = parse(src); // must not hang or panic
        }
    }

    #[test]
    fn base_type_names() {
        assert_eq!(
            base_type_name("& mut ReaderConfig").as_deref(),
            Some("ReaderConfig")
        );
        assert_eq!(base_type_name("Vec < f64 >").as_deref(), Some("Vec"));
        assert_eq!(
            base_type_name("& 'a epc :: Epc < 'a >").as_deref(),
            Some("Epc")
        );
        assert_eq!(base_type_name("Self").as_deref(), Some("Self"));
    }

    #[test]
    fn if_let_and_closures() {
        let pf = parse(
            "fn f(o: Option<f64>) -> f64 {\n\
               if let Some(v) = o { v } else { fallback() }\n\
             }\n\
             fn g(xs: Vec<f64>) -> usize { xs.iter().filter(|x| keep(**x)).count() }\n",
        );
        assert!(call_names(find(&pf, "f").unwrap_or(&pf.fns[0])).contains(&"fallback".to_string()));
        assert!(call_names(find(&pf, "g").unwrap_or(&pf.fns[0])).contains(&"keep".to_string()));
    }

    #[test]
    fn struct_fields_are_captured() {
        let pf = parse(
            "pub struct S {\n  pub a: BTreeMap<(u8, u32), TagState>,\n  b: Rc<RefCell<f64>>,\n}\n\
             struct T(u8, Vec<f64>);\nstruct Unit;\n",
        );
        assert_eq!(pf.types.len(), 3);
        let s = &pf.types[0];
        assert!(s.is_pub);
        assert_eq!(s.name, "S");
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "a");
        assert!(s.fields[0].ty.contains("TagState"), "{}", s.fields[0].ty);
        assert!(s.fields[1].ty.contains("RefCell"), "{}", s.fields[1].ty);
        let t = &pf.types[1];
        assert_eq!(t.fields.len(), 2);
        assert_eq!(t.fields[1].name, "1");
        assert!(t.fields[1].ty.contains("Vec"), "{}", t.fields[1].ty);
        assert!(pf.types[2].fields.is_empty());
    }

    #[test]
    fn enum_variant_payloads_become_fields() {
        let pf = parse(
            "enum E {\n  A,\n  B(Rc<f64>, u8),\n  C { x: Cell<u32> },\n  D = 4,\n}\n\
             fn after() {}\n",
        );
        assert_eq!(pf.types.len(), 1);
        let e = &pf.types[0];
        assert_eq!(e.name, "E");
        let names: Vec<&str> = e.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["B.0", "B.1", "C.x"]);
        assert!(e.fields[0].ty.contains("Rc"), "{}", e.fields[0].ty);
        assert!(e.fields[2].ty.contains("Cell"), "{}", e.fields[2].ty);
        // The parser resynchronised: the following fn is still seen.
        assert!(find(&pf, "after").is_some());
    }

    #[test]
    fn static_items_are_skipped() {
        let pf = parse(
            "static COUNT: u64 = 0;\npub static mut SCRATCH: [f64; 8] = [0.0; 8];\nfn f() {}\n",
        );
        // Neither is taken for a const, and the fn after them still parses.
        assert!(pf.consts.is_empty());
        assert!(find(&pf, "f").is_some());
    }

    #[test]
    fn generic_struct_with_where_clause_parses() {
        let pf = parse("struct G<T: Clone> where T: Default {\n  inner: Vec<T>,\n}\nfn g() {}\n");
        assert_eq!(pf.types.len(), 1);
        assert_eq!(pf.types[0].fields.len(), 1);
        assert_eq!(pf.types[0].fields[0].name, "inner");
        assert!(find(&pf, "g").is_some());
    }

    #[test]
    fn type_aliases_are_captured() {
        let pf = parse(
            "type Slab = Vec<((u8, u32), TagState)>;\n\
             pub type Pair<T> = (T, T);\n\
             trait Tr { type Output; }\n\
             fn f() {}\n",
        );
        assert_eq!(pf.aliases.len(), 2, "{:?}", pf.aliases);
        assert_eq!(pf.aliases[0].name, "Slab");
        assert!(
            pf.aliases[0].ty.contains("Vec") && pf.aliases[0].ty.contains("TagState"),
            "{}",
            pf.aliases[0].ty
        );
        assert_eq!(pf.aliases[1].name, "Pair");
        // The bodiless associated type is not an alias, and items after
        // the alias still parse.
        assert!(find(&pf, "f").is_some());
    }

    #[test]
    fn block_valued_const_does_not_swallow_later_items() {
        let pf = parse(
            "const _: () = {\n  const fn send<T: Send>() {}\n  send::<u8>();\n  send::<u16>();\n};\n\
             pub fn after() {}\n",
        );
        assert!(find(&pf, "after").is_some(), "{:?}", pf.fns);
    }

    #[test]
    fn const_items_are_captured_with_cfgs() {
        let pf = parse(
            "pub mod protocol {\n\
               use std::sync::atomic::Ordering;\n\
               #[cfg(not(sync_mutant))]\n\
               pub const PUBLISH: Ordering = Ordering::Release;\n\
               #[cfg(sync_mutant)]\n\
               pub const PUBLISH: Ordering = Ordering::Relaxed;\n\
               pub const SLOT: Ordering = Ordering::Relaxed;\n\
             }\n\
             const LIMIT: usize = 64 * 1024;\n\
             fn after() {}\n",
        );
        assert_eq!(pf.consts.len(), 4, "{:?}", pf.consts);
        assert_eq!(pf.consts[0].name, "PUBLISH");
        assert!(pf.consts[0].ty.contains("Ordering"), "{}", pf.consts[0].ty);
        assert!(
            pf.consts[0].value.contains("Release"),
            "{}",
            pf.consts[0].value
        );
        assert_eq!(
            pf.consts[0].cfgs,
            vec![CfgFlag {
                name: "sync_mutant".to_string(),
                negated: true,
            }]
        );
        assert_eq!(
            pf.consts[1].cfgs,
            vec![CfgFlag {
                name: "sync_mutant".to_string(),
                negated: false,
            }]
        );
        assert!(pf.consts[2].cfgs.is_empty());
        assert!(
            pf.consts[3].value.contains("1024"),
            "{}",
            pf.consts[3].value
        );
        assert!(find(&pf, "after").is_some());
    }

    #[test]
    fn cfg_flag_satisfaction() {
        let on = CfgFlag {
            name: "sync_mutant".to_string(),
            negated: false,
        };
        let off = CfgFlag {
            name: "sync_mutant".to_string(),
            negated: true,
        };
        let active = vec!["sync_mutant".to_string()];
        assert!(on.satisfied(&active) && !on.satisfied(&[]));
        assert!(!off.satisfied(&active) && off.satisfied(&[]));
    }

    #[test]
    fn struct_literal_consts_do_not_end_their_impl() {
        let pf = parse(
            "pub struct C { re: f64, im: f64 }\n\
             impl C {\n\
               pub const ZERO: C = C { re: 0.0, im: 0.0 };\n\
               pub fn norm(self) -> f64 { self.re * self.re + self.im * self.im }\n\
             }\n\
             impl Neg for C {\n\
               type Output = C;\n\
               fn neg(self) -> C { C { re: -self.re, im: -self.im } }\n\
             }\n",
        );
        assert_eq!(pf.consts.len(), 1, "{:?}", pf.consts);
        assert_eq!(pf.consts[0].name, "ZERO");
        assert!(
            pf.consts[0].value.contains("im : 0.0 }"),
            "{}",
            pf.consts[0].value
        );
        for name in ["norm", "neg"] {
            assert_eq!(
                find(&pf, name).and_then(|f| f.impl_type.clone()).as_deref(),
                Some("C"),
                "{name}: {:?}",
                pf.fns
            );
        }
    }

    #[test]
    fn associated_consts_do_not_derail_impl_parsing() {
        let pf = parse(
            "struct S;\n\
             impl S {\n\
               const CAP: usize = 8;\n\
               fn cap(&self) -> usize { Self::CAP }\n\
             }\n",
        );
        assert_eq!(pf.consts.len(), 1);
        assert_eq!(pf.consts[0].name, "CAP");
        assert_eq!(
            find(&pf, "cap")
                .and_then(|f| f.impl_type.clone())
                .as_deref(),
            Some("S")
        );
    }
}
