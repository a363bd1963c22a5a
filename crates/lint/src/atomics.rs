//! Atomics-discipline analysis: every atomic call site must follow the
//! ordering protocol declared for its atomic in `[atomics]` in
//! `lint.toml`.
//!
//! The `[atomics]` section names each cross-thread atomic — as
//! `Type.member` (a struct field, or an accessor method returning the
//! atomic) or a bare binding name — and declares its protocol:
//!
//! * `publish(Release) / observe(Acquire)` — a publication point. Every
//!   `store` must be `Release` (it publishes the writes before it) and
//!   every `load` must be `Acquire` (it observes them on another
//!   thread). A `Relaxed` store here is a publication that carries no
//!   release edge — the classic lost-publication bug the fleet ring's
//!   `sync_mutant` seeds deliberately.
//! * `relaxed` — a standalone statistic or payload cell ordered by some
//!   other edge; every access must be `Relaxed`.
//!
//! `SeqCst` anywhere a declared pair suffices is flagged as a cost
//! smell, and an ordering outside the declaration entirely is a
//! mixed-ordering error. Atomic operations that resolve to no
//! declaration, and `pub` method signatures that expose an undeclared
//! atomic, are flagged too — the declaration table is the complete
//! inventory of the workspace's lock-free protocol.
//!
//! Call sites are resolved through receiver types, field by field:
//! `self.ring.head.value.store(…)` is walked to the
//! chain `RingProducer.ring → SpscRing.head → PadAtomic.value` and
//! matched deepest-link-first against the declarations, so the shared
//! `.value` cell of a padding wrapper attributes to `SpscRing.head`
//! rather than colliding with `SpscRing.tail`. Orderings spelled via
//! `const` items (the ring's `protocol::PUBLISH`) are resolved through
//! the workspace's `Ordering`-typed constants, honouring `#[cfg(…)]`
//! gates against the analysis's active cfg set — which is how
//! `tagbreathe-lint atomics --cfg sync_mutant` proves the seeded
//! weakening is caught without rebuilding anything.
//!
//! Like every pass here the resolution is heuristic (no real type
//! inference); it is deliberately conservative — a method call only
//! counts as an atomic operation when its receiver resolves to an
//! `Atomic*` type or one of its arguments resolves to an `Ordering`
//! value, so `Vec::swap(i, j)` never trips it.

use crate::callgraph::Workspace;
use crate::config::Protocol;
use crate::parser::{Block, ConstItem, Expr, Stmt, TypeItem};
use crate::sarif::json_string;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;

/// The `std::sync::atomic::Ordering` variants.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Methods that perform an atomic operation when their receiver is an
/// atomic cell.
const ATOMIC_METHODS: [&str; 14] = [
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// Pass-through methods that do not change which atomic a chain names.
const PASSTHROUGH_METHODS: [&str; 5] = ["clone", "as_ref", "as_deref", "unwrap", "expect"];

/// What kind of discipline violation a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// `Relaxed` store (or RMW) on a publish/observe atomic.
    RelaxedPublish,
    /// `Relaxed` load on a publish/observe atomic.
    RelaxedObserve,
    /// `SeqCst` where the declared protocol suffices.
    SeqCstOverkill,
    /// Any other ordering outside the declaration.
    MixedOrdering,
    /// Atomic operation that resolves to no declaration.
    UndeclaredAtomic,
    /// `pub` method signature exposing an undeclared atomic.
    UndeclaredPubAtomic,
    /// Ordering argument that cannot be resolved to one variant.
    UnresolvedOrdering,
    /// Declaration that matched no call site (likely a typo or rot).
    DeadDeclaration,
}

impl FindingKind {
    /// Stable machine tag for the JSON report.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            FindingKind::RelaxedPublish => "relaxed-publish",
            FindingKind::RelaxedObserve => "relaxed-observe",
            FindingKind::SeqCstOverkill => "seqcst-overkill",
            FindingKind::MixedOrdering => "mixed-ordering",
            FindingKind::UndeclaredAtomic => "undeclared-atomic",
            FindingKind::UndeclaredPubAtomic => "undeclared-pub-atomic",
            FindingKind::UnresolvedOrdering => "unresolved-ordering",
            FindingKind::DeadDeclaration => "dead-declaration",
        }
    }
}

/// One atomics-discipline finding.
#[derive(Debug)]
pub struct Finding {
    /// Violation category.
    pub kind: FindingKind,
    /// Declared key (or receiver description for undeclared atomics).
    pub atomic: String,
    /// Workspace-relative path of the site.
    pub path: String,
    /// 1-indexed line of the site.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Witness call path from the nearest public entry point to the
    /// containing function, inclusive. Empty for config-level findings.
    pub witness: Vec<String>,
}

/// The result of one atomics scan.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (path, line, atomic).
    pub findings: Vec<Finding>,
    /// Number of `[atomics]` declarations in force.
    pub decl_count: usize,
    /// Atomic operations resolved and checked against a declaration.
    pub checked_ops: usize,
    /// The cfg flags the const resolution ran under.
    pub active_cfgs: Vec<String>,
}

/// Scans the workspace against its `[atomics]` declarations. An empty
/// declaration table disables the pass (it is opt-in).
#[must_use]
pub fn analyze(ws: &Workspace, active_cfgs: &[String]) -> Report {
    if ws.atomics.decls.is_empty() {
        return Report::default();
    }
    let consts = ordering_consts(ws, active_cfgs);
    let mut types: BTreeMap<&str, &TypeItem> = BTreeMap::new();
    for file in &ws.files {
        for t in &file.parsed.types {
            if !t.is_test && !file.test_only {
                types.entry(&t.name).or_insert(t);
            }
        }
    }
    let aliases = ws.alias_map();
    // (impl type, method) → return type, for accessor chains like
    // `self.ring.slot(i).store(…)`.
    let mut ret_index: BTreeMap<(&str, &str), &str> = BTreeMap::new();
    for file in &ws.files {
        if file.test_only {
            continue;
        }
        for f in &file.parsed.fns {
            if f.is_test {
                continue;
            }
            if let (Some(t), Some(ret)) = (&f.impl_type, &f.ret_type) {
                ret_index.entry((t, &f.name)).or_insert(ret);
            }
        }
    }
    let parent = public_reach(ws);
    let mut findings = Vec::new();
    let mut used = vec![false; ws.atomics.decls.len()];
    let mut checked_ops = 0usize;

    for i in 0..ws.graph.nodes.len() {
        let Some(node) = ws.graph.nodes.get(i) else {
            continue;
        };
        if node.is_test || ws.atomics.exempt.contains(&node.crate_name) {
            continue;
        }
        let item = ws.item(i);
        let Some(body) = &item.body else {
            continue;
        };
        let env = TypeEnv {
            ws,
            impl_type: node.impl_type.as_deref(),
            types: &types,
            aliases: &aliases,
            ret_index: &ret_index,
        };
        let vars = env.collect_vars(item, body);
        let path = ws.path_of(i).to_string();
        let witness = witness_path(ws, &parent, i);
        body.visit(&mut |e| {
            let Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } = e
            else {
                return;
            };
            if !ATOMIC_METHODS.contains(&method.as_str()) {
                return;
            }
            let mut links = Vec::new();
            let recv_ty = env.chain(recv, &vars, &mut links);
            let (resolved, ambiguous) = resolve_orderings(args, &consts);
            let atomic_typed = recv_ty.as_deref().is_some_and(|t| t.starts_with("Atomic"));
            if !atomic_typed && resolved.is_empty() && ambiguous.is_empty() {
                return; // not an atomic operation (e.g. Vec::swap).
            }
            checked_ops += 1;
            let Some((decl_at, key, proto)) = match_decl(ws, &links) else {
                let desc = describe_chain(&links);
                findings.push(Finding {
                    kind: FindingKind::UndeclaredAtomic,
                    atomic: desc.clone(),
                    path: path.clone(),
                    line: *line,
                    message: format!(
                        "atomic `{desc}` ({}) has no [atomics] declaration in lint.toml",
                        recv_ty.as_deref().unwrap_or("unresolved type"),
                    ),
                    witness: witness.clone(),
                });
                return;
            };
            if let Some(flag) = used.get_mut(decl_at) {
                *flag = true;
            }
            if resolved.is_empty() {
                let what = ambiguous
                    .first()
                    .map_or_else(|| "<none>".to_string(), String::clone);
                findings.push(Finding {
                    kind: FindingKind::UnresolvedOrdering,
                    atomic: key.to_string(),
                    path: path.clone(),
                    line: *line,
                    message: format!(
                        "`{method}` of `{key}` has no resolvable Ordering argument \
                         (`{what}`) — the declared protocol cannot be verified"
                    ),
                    witness: witness.clone(),
                });
                return;
            }
            for ord in &resolved {
                let Some(kind) = classify(proto, op_class(method), ord) else {
                    continue;
                };
                findings.push(Finding {
                    kind,
                    atomic: key.to_string(),
                    path: path.clone(),
                    line: *line,
                    message: site_message(kind, method, key, ord, proto),
                    witness: witness.clone(),
                });
            }
        });
    }

    check_pub_signatures(ws, &mut used, &mut findings);

    for (at, (key, _)) in ws.atomics.decls.iter().enumerate() {
        if used.get(at).copied().unwrap_or(true) {
            continue;
        }
        findings.push(Finding {
            kind: FindingKind::DeadDeclaration,
            atomic: key.clone(),
            path: "lint.toml".to_string(),
            line: 1,
            message: format!(
                "[atomics] declaration `{key}` matches no atomic call site — \
                 renamed code or a typo has silently disabled its checking"
            ),
            witness: Vec::new(),
        });
    }

    findings.sort_by(|a, b| (&a.path, a.line, &a.atomic).cmp(&(&b.path, b.line, &b.atomic)));
    Report {
        findings,
        decl_count: ws.atomics.decls.len(),
        checked_ops,
        active_cfgs: active_cfgs.to_vec(),
    }
}

/// `pub` methods must not expose an atomic that has no declared
/// protocol: the declaration table is the complete inventory of the
/// workspace's lock-free surface.
fn check_pub_signatures(ws: &Workspace, used: &mut [bool], findings: &mut Vec<Finding>) {
    for (fi, file) in ws.files.iter().enumerate() {
        if file.test_only || ws.atomics.exempt.contains(&file.crate_name) {
            continue;
        }
        for f in &file.parsed.fns {
            if f.is_test || !f.is_pub {
                continue;
            }
            let Some(t) = f.impl_type.as_deref() else {
                continue;
            };
            let exposed = f
                .params
                .iter()
                .map(|p| p.ty.as_str())
                .chain(f.ret_type.as_deref())
                .flat_map(str::split_whitespace)
                .find(|w| w.starts_with("Atomic"));
            let Some(ty) = exposed else {
                continue;
            };
            match ws
                .atomics
                .decls
                .iter()
                .position(|(k, _)| k == &format!("{t}.{}", f.name) || k == &f.name)
            {
                Some(at) => {
                    if let Some(flag) = used.get_mut(at) {
                        *flag = true;
                    }
                }
                None => findings.push(Finding {
                    kind: FindingKind::UndeclaredPubAtomic,
                    atomic: format!("{t}.{}", f.name),
                    path: ws
                        .files
                        .get(fi)
                        .map_or_else(String::new, |x| x.rel_path.clone()),
                    line: f.line,
                    message: format!(
                        "pub fn `{t}::{}` exposes `{ty}` but `{t}.{}` has no \
                         [atomics] declaration — a pub method may not leak \
                         a protocol-free atomic",
                        f.name, f.name
                    ),
                    witness: Vec::new(),
                }),
            }
        }
    }
}

/// Multi-source BFS from every non-test `pub` function, for witness
/// paths ("how does outside code reach this site"). A site in a
/// function that is itself public gets a one-entry witness.
fn public_reach(ws: &Workspace) -> Vec<usize> {
    let n = ws.graph.nodes.len();
    let mut parent = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    for i in 0..n {
        let is_root = ws
            .graph
            .nodes
            .get(i)
            .is_some_and(|node| !node.is_test && ws.item(i).is_pub);
        if is_root {
            if let Some(slot) = parent.get_mut(i) {
                *slot = i;
            }
            queue.push_back(i);
        }
    }
    while let Some(u) = queue.pop_front() {
        let Some(edges) = ws.graph.edges.get(u) else {
            continue;
        };
        for &v in edges {
            if parent.get(v).copied() != Some(usize::MAX)
                || ws.graph.nodes.get(v).is_none_or(|node| node.is_test)
            {
                continue;
            }
            if let Some(slot) = parent.get_mut(v) {
                *slot = u;
                queue.push_back(v);
            }
        }
    }
    parent
}

/// Labels from the nearest public function down to `node`, inclusive.
fn witness_path(ws: &Workspace, parent: &[usize], node: usize) -> Vec<String> {
    let mut chain = vec![node];
    let mut cur = node;
    let mut hops = 0;
    while parent.get(cur).copied().unwrap_or(cur) != cur && hops < 64 {
        cur = parent.get(cur).copied().unwrap_or(cur);
        if cur == usize::MAX {
            // Unreached from any public fn: the site's own fn is the witness.
            return vec![ws.label(node)];
        }
        chain.push(cur);
        hops += 1;
    }
    chain.reverse();
    chain.into_iter().map(|i| ws.label(i)).collect()
}

/// Workspace `Ordering`-typed constants visible under `active`:
/// name → variant, with conflicting same-name constants dropped to
/// `None` (ambiguous) rather than guessed.
fn ordering_consts(ws: &Workspace, active: &[String]) -> HashMap<String, Option<String>> {
    let mut map: HashMap<String, Option<String>> = HashMap::new();
    for file in &ws.files {
        if file.test_only {
            continue;
        }
        for c in &file.parsed.consts {
            if c.is_test || !is_ordering_const(c) {
                continue;
            }
            if !c.cfgs.iter().all(|f| f.satisfied(active)) {
                continue;
            }
            let variant = c
                .value
                .split_whitespace()
                .rev()
                .find(|w| ORDERINGS.contains(w))
                .map(str::to_string);
            match map.entry(c.name.clone()) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(variant);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if *e.get() != variant {
                        e.insert(None); // two active definitions disagree
                    }
                }
            }
        }
    }
    map
}

fn is_ordering_const(c: &ConstItem) -> bool {
    c.ty.split_whitespace().any(|w| w == "Ordering")
}

/// Resolves the `Ordering` arguments of one call. Returns the resolved
/// variant names and the names of Ordering-typed constants that could
/// not be resolved (inactive or ambiguous).
fn resolve_orderings(
    args: &[Expr],
    consts: &HashMap<String, Option<String>>,
) -> (Vec<String>, Vec<String>) {
    let mut resolved = Vec::new();
    let mut ambiguous = Vec::new();
    for arg in args {
        let Expr::Path { segs, .. } = arg else {
            continue;
        };
        let Some(last) = segs.last() else {
            continue;
        };
        if ORDERINGS.contains(&last.as_str()) {
            resolved.push(last.clone());
        } else if let Some(variant) = consts.get(last) {
            match variant {
                Some(v) => resolved.push(v.clone()),
                None => ambiguous.push(last.clone()),
            }
        }
    }
    (resolved, ambiguous)
}

/// One step of a resolved receiver chain: `owner.member`.
#[derive(Debug)]
struct Link {
    /// Resolved type of the expression the member was taken from.
    owner: Option<String>,
    /// Field, method or binding name.
    member: String,
}

/// Matches chain links against the declarations, deepest link first.
/// Links that match nothing fall through — so the shared `value` cell
/// of a padding wrapper attributes to the declared `head`/`tail` field
/// one link up.
fn match_decl<'a>(ws: &'a Workspace, links: &[Link]) -> Option<(usize, &'a str, Protocol)> {
    for link in links.iter().rev() {
        let qualified = link
            .owner
            .as_deref()
            .map(|o| format!("{o}.{}", link.member));
        let hit = ws
            .atomics
            .decls
            .iter()
            .position(|(k, _)| qualified.as_deref() == Some(k.as_str()) || *k == link.member);
        if let Some(at) = hit {
            let (key, proto) = ws.atomics.decls.get(at)?;
            return Some((at, key.as_str(), *proto));
        }
    }
    None
}

/// `ring.head.value`-style description for diagnostics.
fn describe_chain(links: &[Link]) -> String {
    if links.is_empty() {
        return "<opaque receiver>".to_string();
    }
    let names: Vec<&str> = links.iter().map(|l| l.member.as_str()).collect();
    match links.first().and_then(|l| l.owner.as_deref()) {
        Some(owner) => format!("{owner}.{}", names.join(".")),
        None => names.join("."),
    }
}

/// Whether the method reads, writes, or does both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Load,
    Store,
    Rmw,
}

fn op_class(method: &str) -> OpClass {
    match method {
        "load" => OpClass::Load,
        "store" => OpClass::Store,
        _ => OpClass::Rmw,
    }
}

/// Checks one resolved ordering against the declared protocol.
fn classify(proto: Protocol, op: OpClass, ord: &str) -> Option<FindingKind> {
    if ord == "SeqCst" {
        return Some(FindingKind::SeqCstOverkill);
    }
    match (proto, op) {
        (Protocol::Relaxed, _) => (ord != "Relaxed").then_some(FindingKind::MixedOrdering),
        (Protocol::ReleaseAcquire, OpClass::Load) => match ord {
            "Acquire" => None,
            "Relaxed" => Some(FindingKind::RelaxedObserve),
            _ => Some(FindingKind::MixedOrdering),
        },
        (Protocol::ReleaseAcquire, OpClass::Store) => match ord {
            "Release" => None,
            "Relaxed" => Some(FindingKind::RelaxedPublish),
            _ => Some(FindingKind::MixedOrdering),
        },
        (Protocol::ReleaseAcquire, OpClass::Rmw) => match ord {
            "Acquire" | "Release" | "AcqRel" => None,
            _ => Some(FindingKind::RelaxedPublish),
        },
    }
}

fn site_message(kind: FindingKind, method: &str, key: &str, ord: &str, proto: Protocol) -> String {
    match kind {
        FindingKind::RelaxedPublish => format!(
            "`{method}` of `{key}` uses Relaxed but its declared protocol is \
             {} — the publication carries no release edge, so the consumer \
             can observe the counter before the data it guards",
            proto.describe()
        ),
        FindingKind::RelaxedObserve => format!(
            "`load` of `{key}` uses Relaxed but its declared protocol is \
             {} — the observe side drops its acquire edge, so slot reads \
             can be hoisted before the counter check",
            proto.describe()
        ),
        FindingKind::SeqCstOverkill => format!(
            "`{method}` of `{key}` uses SeqCst where the declared {} \
             suffices — a full fence on a hot path is a cost smell",
            proto.describe()
        ),
        _ => format!(
            "`{method}` of `{key}` uses {ord}, outside its declared protocol {}",
            proto.describe()
        ),
    }
}

/// The type context of one scanned function.
struct TypeEnv<'a> {
    ws: &'a Workspace,
    impl_type: Option<&'a str>,
    types: &'a BTreeMap<&'a str, &'a TypeItem>,
    aliases: &'a HashMap<&'a str, &'a str>,
    ret_index: &'a BTreeMap<(&'a str, &'a str), &'a str>,
}

impl TypeEnv<'_> {
    /// Reduces flat type text to the single most interesting type name:
    /// a workspace type if one appears (`Arc < SpscRing >` → `SpscRing`),
    /// else the first `Atomic*` token (`Vec < AtomicU64 >` → `AtomicU64`),
    /// else the first capitalized token.
    fn reduce(&self, ty: &str) -> Option<String> {
        let expanded = self.ws.expand_aliases(ty, self.aliases);
        let mut fallback = None;
        for w in expanded.split_whitespace() {
            if w == "Self" {
                if let Some(t) = self.impl_type {
                    return Some(t.to_string());
                }
                continue;
            }
            if self.types.contains_key(w) {
                return Some(w.to_string());
            }
            if w.starts_with("Atomic") {
                return Some(w.to_string());
            }
            if fallback.is_none()
                && w.chars().next().is_some_and(char::is_uppercase)
                && w.chars().all(|c| c.is_alphanumeric() || c == '_')
            {
                fallback = Some(w.to_string());
            }
        }
        fallback
    }

    /// Local bindings (params and `let`s, including nested blocks and
    /// closures) mapped to their reduced type name.
    fn collect_vars(&self, item: &crate::parser::FnItem, body: &Block) -> HashMap<String, String> {
        let mut vars = HashMap::new();
        for p in &item.params {
            if let (Some(name), Some(ty)) = (&p.name, self.reduce(&p.ty)) {
                vars.insert(name.clone(), ty);
            }
        }
        self.block_vars(body, &mut vars);
        vars
    }

    fn block_vars(&self, block: &Block, vars: &mut HashMap<String, String>) {
        for stmt in &block.stmts {
            self.let_var(stmt, vars);
            let exprs: Vec<&Expr> = match stmt {
                Stmt::Let { init: Some(e), .. }
                | Stmt::Expr { expr: e, .. }
                | Stmt::Return { value: Some(e), .. } => vec![e],
                Stmt::Let { .. } | Stmt::Return { .. } => Vec::new(),
            };
            for e in exprs {
                // Every nested block (if/loop/match arms/closures) shows
                // up as a `Block` node under `visit`.
                e.visit(&mut |sub| {
                    if let Expr::Block { block, .. } = sub {
                        for s in &block.stmts {
                            self.let_var(s, vars);
                        }
                    }
                });
            }
        }
    }

    fn let_var(&self, stmt: &Stmt, vars: &mut HashMap<String, String>) {
        let Stmt::Let {
            name: Some(name),
            ty,
            init,
            ..
        } = stmt
        else {
            return;
        };
        let inferred = ty
            .as_deref()
            .and_then(|t| self.reduce(t))
            .or_else(|| init.as_ref().and_then(|e| self.infer(e, vars)));
        if let Some(t) = inferred {
            vars.insert(name.clone(), t);
        }
    }

    /// Infers the reduced type constructed by an initializer, unwrapping
    /// the smart-pointer constructors (`Arc::new(inner)` has `inner`'s
    /// type for receiver-resolution purposes).
    fn infer(&self, e: &Expr, vars: &HashMap<String, String>) -> Option<String> {
        match e {
            Expr::Path { segs, .. } if segs.len() == 1 => {
                segs.first().and_then(|s| vars.get(s)).cloned()
            }
            Expr::Call { path, args, .. } => {
                let last = path.last()?;
                if path.len() >= 2 {
                    let qual = path.get(path.len() - 2)?;
                    if matches!(qual.as_str(), "Arc" | "Box" | "Rc") {
                        if last == "new" {
                            return args.first().and_then(|a| self.infer(a, vars));
                        }
                        if last == "clone" {
                            return args.first().and_then(|a| self.infer(a, vars));
                        }
                    }
                    if qual == "Self" {
                        return self.impl_type.map(str::to_string);
                    }
                    qual.chars().next().filter(|c| c.is_ascii_uppercase())?;
                    return Some(qual.clone());
                }
                last.chars().next().filter(|c| c.is_ascii_uppercase())?;
                Some(last.clone())
            }
            Expr::MethodCall { recv, method, .. }
                if PASSTHROUGH_METHODS.contains(&method.as_str()) =>
            {
                self.infer(recv, vars)
            }
            Expr::Unary { expr, .. } | Expr::Try { expr, .. } | Expr::Cast { expr, .. } => {
                self.infer(expr, vars)
            }
            Expr::StructLit { path, .. } => path.last().cloned(),
            Expr::Group { items, .. } if items.len() == 1 => {
                items.first().and_then(|x| self.infer(x, vars))
            }
            _ => None,
        }
    }

    /// Resolves a receiver expression into its member chain and reduced
    /// type. `self.ring.head.value` yields links
    /// `[RingProducer.ring, SpscRing.head, PadAtomic.value]` and type
    /// `AtomicU64`.
    fn chain(
        &self,
        e: &Expr,
        vars: &HashMap<String, String>,
        links: &mut Vec<Link>,
    ) -> Option<String> {
        match e {
            Expr::Path { segs, .. }
                if segs.len() == 1 && segs.first().map(String::as_str) == Some("self") =>
            {
                self.impl_type.map(str::to_string)
            }
            Expr::Path { segs, .. } if segs.len() == 1 => {
                let name = segs.first()?;
                let ty = vars.get(name).cloned();
                links.push(Link {
                    owner: None,
                    member: name.clone(),
                });
                ty
            }
            Expr::Path { segs, .. } => {
                // Static or associated item: last segment is the member.
                let member = segs.last()?.clone();
                links.push(Link {
                    owner: segs.get(segs.len().wrapping_sub(2)).cloned(),
                    member,
                });
                None
            }
            Expr::Field { base, name, .. } => {
                let owner = self.chain(base, vars, links);
                let field_ty = owner
                    .as_deref()
                    .and_then(|o| self.types.get(o))
                    .and_then(|t| t.fields.iter().find(|f| &f.name == name))
                    .map(|f| f.ty.clone());
                links.push(Link {
                    owner,
                    member: name.clone(),
                });
                field_ty.and_then(|t| self.reduce(&t))
            }
            Expr::MethodCall { recv, method, .. } => {
                if PASSTHROUGH_METHODS.contains(&method.as_str()) {
                    return self.chain(recv, vars, links);
                }
                let owner = self.chain(recv, vars, links);
                let ret = owner
                    .as_deref()
                    .and_then(|o| self.ret_index.get(&(o, method.as_str())))
                    .map(|r| (*r).to_string());
                links.push(Link {
                    owner,
                    member: method.clone(),
                });
                ret.and_then(|t| self.reduce(&t))
            }
            Expr::Index { base, .. }
            | Expr::Unary { expr: base, .. }
            | Expr::Try { expr: base, .. }
            | Expr::Cast { expr: base, .. } => self.chain(base, vars, links),
            Expr::Group { items, .. } if items.len() == 1 => {
                items.first().and_then(|x| self.chain(x, vars, links))
            }
            _ => None,
        }
    }
}

/// Renders the report as the `tagbreathe-atomics-v1` JSON document.
#[must_use]
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tagbreathe-atomics-v1\",\n");
    let _ = writeln!(out, "  \"decl_count\": {},", report.decl_count);
    let _ = writeln!(out, "  \"checked_ops\": {},", report.checked_ops);
    let _ = writeln!(
        out,
        "  \"active_cfgs\": {},",
        string_array(&report.active_cfgs)
    );
    let _ = writeln!(out, "  \"finding_count\": {},", report.findings.len());
    out.push_str("  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i + 1 < report.findings.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"kind\": {}, \"atomic\": {}, \"path\": {}, \"line\": {}, \
             \"message\": {}, \"witness\": {}}}{sep}",
            json_string(f.kind.tag()),
            json_string(&f.atomic),
            json_string(&f.path),
            f.line,
            json_string(&f.message),
            string_array(&f.witness),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a JSON array of strings.
fn string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_string(s)).collect();
    format!("[{}]", quoted.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::source::SourceFile;

    fn workspace(files: &[(&str, &str)], config_text: &str) -> Workspace {
        let sources: Vec<SourceFile> = files.iter().map(|(p, t)| SourceFile::parse(p, t)).collect();
        let config = Config::parse(config_text).unwrap_or_default();
        Workspace::build(&sources, &config)
    }

    const RING: &str = "\
        pub mod protocol {\n\
          use std::sync::atomic::Ordering;\n\
          #[cfg(not(sync_mutant))]\n\
          pub const PUBLISH: Ordering = Ordering::Release;\n\
          #[cfg(sync_mutant)]\n\
          pub const PUBLISH: Ordering = Ordering::Relaxed;\n\
          #[cfg(not(sync_mutant))]\n\
          pub const OBSERVE: Ordering = Ordering::Acquire;\n\
          #[cfg(sync_mutant)]\n\
          pub const OBSERVE: Ordering = Ordering::Relaxed;\n\
        }\n\
        struct Pad { value: AtomicU64 }\n\
        pub struct Ring { head: Pad, tail: Pad }\n\
        pub struct Producer { ring: Arc<Ring>, next: u64 }\n\
        impl Producer {\n\
          pub fn push(&mut self) {\n\
            let t = self.ring.tail.value.load(protocol::OBSERVE);\n\
            self.ring.head.value.store(t, protocol::PUBLISH);\n\
          }\n\
        }\n";

    const DECLS: &str = "[atomics]\n\
        Ring.head = \"publish(Release) / observe(Acquire)\"\n\
        Ring.tail = \"publish(Release) / observe(Acquire)\"\n";

    #[test]
    fn clean_protocol_has_no_findings() {
        let ws = workspace(&[("crates/tagbreathe/src/ring.rs", RING)], DECLS);
        let report = analyze(&ws, &[]);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.checked_ops, 2);
    }

    #[test]
    fn sync_mutant_cfg_flips_consts_and_is_caught() {
        let ws = workspace(&[("crates/tagbreathe/src/ring.rs", RING)], DECLS);
        let report = analyze(&ws, &["sync_mutant".to_string()]);
        let kinds: Vec<FindingKind> = report.findings.iter().map(|f| f.kind).collect();
        assert!(
            kinds.contains(&FindingKind::RelaxedPublish),
            "{:?}",
            report.findings
        );
        assert!(
            kinds.contains(&FindingKind::RelaxedObserve),
            "{:?}",
            report.findings
        );
        // Padding wrapper resolves through to the declared field.
        assert!(report.findings.iter().any(|f| f.atomic == "Ring.head"));
        assert!(report.findings.iter().any(|f| f.atomic == "Ring.tail"));
        // Witness names the public entry point.
        assert!(report
            .findings
            .iter()
            .all(|f| f.witness == vec!["Producer::push".to_string()]));
    }

    #[test]
    fn undeclared_atomic_is_flagged() {
        let src = "pub fn f(flag: &AtomicBool) { flag.store(true, Ordering::Release); }\n";
        let ws = workspace(
            &[("crates/tagbreathe/src/a.rs", src)],
            "[atomics]\nother = \"relaxed\"\n",
        );
        let report = analyze(&ws, &[]);
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::UndeclaredAtomic));
        // `other` matched nothing either.
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DeadDeclaration));
    }

    #[test]
    fn seqcst_on_relaxed_decl_is_a_cost_smell_and_mixed_is_error() {
        let src = "pub struct S { hits: AtomicU64 }\n\
             impl S {\n\
               pub fn bump(&self) {\n\
                 self.hits.fetch_add(1, Ordering::SeqCst);\n\
                 self.hits.load(Ordering::Acquire);\n\
                 self.hits.load(Ordering::Relaxed);\n\
               }\n\
             }\n";
        let ws = workspace(
            &[("crates/tagbreathe/src/a.rs", src)],
            "[atomics]\nS.hits = \"relaxed\"\n",
        );
        let report = analyze(&ws, &[]);
        let kinds: Vec<FindingKind> = report.findings.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            vec![FindingKind::SeqCstOverkill, FindingKind::MixedOrdering],
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn locals_resolve_through_arc_new_and_clone() {
        let src = "pub fn spawn() {\n\
               let stop = Arc::new(AtomicBool::new(false));\n\
               let accept_stop = stop.clone();\n\
               if accept_stop.load(Ordering::Relaxed) { return; }\n\
               stop.store(true, Ordering::Release);\n\
             }\n";
        let ws = workspace(
            &[("crates/server/src/a.rs", src)],
            "[atomics]\n\
             stop = \"publish(Release) / observe(Acquire)\"\n\
             accept_stop = \"publish(Release) / observe(Acquire)\"\n",
        );
        let report = analyze(&ws, &[]);
        let kinds: Vec<FindingKind> = report.findings.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            vec![FindingKind::RelaxedObserve],
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn non_atomic_swap_is_not_an_operation() {
        let src = "pub fn f(v: &mut Vec<u64>) { v.swap(0, 1); }\n";
        let ws = workspace(
            &[("crates/tagbreathe/src/a.rs", src)],
            "[atomics]\nstop = \"relaxed\"\n",
        );
        let report = analyze(&ws, &[]);
        assert_eq!(report.checked_ops, 0);
        // Only the dead `stop` declaration fires.
        assert!(report
            .findings
            .iter()
            .all(|f| f.kind == FindingKind::DeadDeclaration));
    }

    #[test]
    fn exempt_crate_is_skipped() {
        let src = "pub fn f(flag: &AtomicBool) { flag.store(true, Ordering::Relaxed); }\n";
        let ws = workspace(
            &[("crates/syncmodel/src/a.rs", src)],
            "[atomics]\nflag = \"publish(Release) / observe(Acquire)\"\n\
             exempt-crates = \"syncmodel\"\n",
        );
        let report = analyze(&ws, &[]);
        assert!(
            report
                .findings
                .iter()
                .all(|f| f.kind == FindingKind::DeadDeclaration),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn shard_root_pub_signature_must_declare_atomics() {
        let src = "pub struct Ring { word: AtomicU64 }\n\
             impl Ring {\n\
               pub fn word(&self) -> &AtomicU64 { &self.word }\n\
             }\n";
        let ws = workspace(
            &[("crates/tagbreathe/src/a.rs", src)],
            "[atomics]\nRing.word = \"relaxed\"\n",
        );
        // Declared accessor: fine (and the declaration counts as used).
        let report = analyze(&ws, &[]);
        assert!(report.findings.is_empty(), "{:?}", report.findings);

        let ws = workspace(
            &[("crates/tagbreathe/src/a.rs", src)],
            "[atomics]\nother = \"relaxed\"\n",
        );
        let report = analyze(&ws, &[]);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::UndeclaredPubAtomic),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn json_report_is_valid() {
        let ws = workspace(&[("crates/tagbreathe/src/ring.rs", RING)], DECLS);
        let report = analyze(&ws, &["sync_mutant".to_string()]);
        let text = render_json(&report);
        assert!(
            tagbreathe_obs::json::validate(&text).is_ok(),
            "invalid JSON:\n{text}"
        );
        assert!(text.contains("tagbreathe-atomics-v1"));
        assert!(text.contains("relaxed-publish"));
    }

    #[test]
    fn empty_declarations_disable_the_pass() {
        let src = "pub fn f(flag: &AtomicBool) { flag.store(true, Ordering::SeqCst); }\n";
        let ws = workspace(&[("crates/tagbreathe/src/a.rs", src)], "");
        let report = analyze(&ws, &[]);
        assert!(report.findings.is_empty());
        assert_eq!(report.decl_count, 0);
    }
}
