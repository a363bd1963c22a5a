//! Hot-path cost inventory.
//!
//! Walks the transitive call closure of the ingest roots configured in
//! `[hotpath]` (`lint.toml`) and records every heap-allocation and keyed
//! container-lookup site in reachable non-test code, each with a witness
//! call path from its root. The inventory backs two consumers:
//!
//! * the `hot-path-cost` semantic rule, which ratchets the sites through
//!   the ordinary baseline machinery, and
//! * `tagbreathe-lint hotpath`, which emits the inventory as JSON so CI
//!   can assert the site count only ever goes down — the concrete
//!   worklist for the slab/SoA refactor.
//!
//! Closures passed to amortised-slow-path adapters (`or_insert_with`,
//! `unwrap_or_else`, …) are skipped: they run on first insertion or on
//! the error arm, not per report. Detection is syntactic, like every
//! other rule — `.clone()` on a `Copy` value is still inventoried,
//! because the reviewer (not the lint) decides what is actually hot.

use crate::callgraph::Workspace;
use crate::parser::{Block, Expr, Stmt, TypeItem};
use crate::sarif::json_string;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

/// What a cost site does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// Heap allocation (constructor, growing method, owning conversion).
    Alloc,
    /// Keyed container lookup (`get`, `entry`, `insert`, …).
    MapLookup,
}

impl CostKind {
    /// Human-readable kind for diagnostics.
    #[must_use]
    pub fn human(self) -> &'static str {
        match self {
            CostKind::Alloc => "allocation",
            CostKind::MapLookup => "map lookup",
        }
    }

    /// Stable machine tag for the JSON report.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            CostKind::Alloc => "alloc",
            CostKind::MapLookup => "map-lookup",
        }
    }
}

/// One allocation or lookup site reachable from a hot root.
#[derive(Debug)]
pub struct CostSite {
    /// Allocation or map lookup.
    pub kind: CostKind,
    /// What the site does, e.g. `Vec::new` or `.entry()`.
    pub what: String,
    /// Call-graph node of the containing function.
    pub node: usize,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// 1-indexed line of the site.
    pub line: u32,
    /// Witness call path: labels from the root to the containing
    /// function (inclusive).
    pub witness: Vec<String>,
}

/// The full inventory of one scan.
#[derive(Debug)]
pub struct Inventory {
    /// All sites, sorted by (path, line, what).
    pub sites: Vec<CostSite>,
    /// Labels of the root functions that matched workspace code.
    pub root_labels: Vec<String>,
    /// Configured roots that matched nothing (likely typos).
    pub unmatched_roots: Vec<String>,
    /// Number of functions in the transitive closure.
    pub reachable_fns: usize,
}

/// Builds the inventory for a workspace. Empty `[hotpath] roots`
/// produces an empty inventory (the pass is opt-in).
#[must_use]
pub fn inventory(ws: &Workspace) -> Inventory {
    let n = ws.graph.nodes.len();
    let allow: BTreeSet<usize> = ws
        .hotpath
        .allow
        .iter()
        .flat_map(|a| ws.nodes_labelled(a))
        .collect();
    // Multi-source BFS over forward edges; `parent` gives the shortest
    // witness path back to a root (roots are their own parent).
    let mut parent = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    let mut root_labels = Vec::new();
    let mut unmatched_roots = Vec::new();
    for root in &ws.hotpath.roots {
        let matched = ws.nodes_labelled(root);
        if matched.is_empty() {
            unmatched_roots.push(root.clone());
        }
        for i in matched {
            if parent.get(i).copied() == Some(usize::MAX) {
                if let Some(slot) = parent.get_mut(i) {
                    *slot = i;
                }
                root_labels.push(ws.label(i));
                queue.push_back(i);
            }
        }
    }
    while let Some(u) = queue.pop_front() {
        let Some(edges) = ws.graph.edges.get(u) else {
            continue;
        };
        for &v in edges {
            if parent.get(v).copied() != Some(usize::MAX)
                || ws.graph.nodes.get(v).is_none_or(|node| node.is_test)
                || allow.contains(&v)
            {
                continue;
            }
            if let Some(slot) = parent.get_mut(v) {
                *slot = u;
            }
            queue.push_back(v);
        }
    }

    // Workspace type definitions and aliases, for telling
    // `self.demux.push(…)` (a method call on a workspace type) apart
    // from `self.buf.push(…)` (container growth), and keyed map lookups
    // apart from positional `Vec::get`.
    let mut types: BTreeMap<&str, &TypeItem> = BTreeMap::new();
    for file in &ws.files {
        for t in &file.parsed.types {
            if !t.is_test && !file.test_only {
                types.entry(&t.name).or_insert(t);
            }
        }
    }
    let aliases = ws.alias_map();

    let mut sites = Vec::new();
    let mut reachable_fns = 0usize;
    for i in 0..n {
        if parent.get(i).copied().unwrap_or(usize::MAX) == usize::MAX {
            continue;
        }
        reachable_fns += 1;
        let Some(body) = &ws.item(i).body else {
            continue;
        };
        let env = TypeEnv {
            ws,
            impl_type: ws.graph.nodes.get(i).and_then(|x| x.impl_type.as_deref()),
            types: &types,
            aliases: &aliases,
        };
        let witness = witness_path(ws, &parent, i);
        scan_block(body, &mut |e| {
            if let Some((kind, what)) = classify(e, &env) {
                sites.push(CostSite {
                    kind,
                    what,
                    node: i,
                    path: ws.path_of(i).to_string(),
                    line: e.line(),
                    witness: witness.clone(),
                });
            }
        });
    }
    sites.sort_by(|a, b| (&a.path, a.line, &a.what).cmp(&(&b.path, b.line, &b.what)));
    root_labels.sort_unstable();
    root_labels.dedup();
    Inventory {
        sites,
        root_labels,
        unmatched_roots,
        reachable_fns,
    }
}

/// Labels from the nearest root down to `node`, inclusive.
fn witness_path(ws: &Workspace, parent: &[usize], node: usize) -> Vec<String> {
    let mut chain = vec![node];
    let mut cur = node;
    // Roots are their own parent; a missing entry terminates the walk.
    while let Some(&p) = parent.get(cur) {
        if p == cur || p == usize::MAX || chain.len() > 64 {
            break;
        }
        cur = p;
        chain.push(cur);
    }
    chain.reverse();
    chain.into_iter().map(|i| ws.label(i)).collect()
}

/// Container types whose constructors allocate.
const HEAP_TYPES: &[&str] = &[
    "Vec", "VecDeque", "String", "Box", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Rc", "Arc",
];

/// Associated constructors that allocate (or may, on first growth).
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from", "default"];

/// Methods that produce a fresh owned heap value.
const OWNING_METHODS: &[&str] = &["collect", "to_vec", "to_owned", "to_string", "clone"];

/// Methods that may grow (reallocate) an existing container; only
/// flagged on field-rooted receivers, where the container outlives the
/// call and growth cost recurs per report.
const GROWING_METHODS: &[&str] = &["push", "push_back", "extend", "append"];

/// Keyed-lookup methods of the map/set containers.
const LOOKUP_METHODS: &[&str] = &[
    "get",
    "get_mut",
    "entry",
    "contains_key",
    "insert",
    "remove",
];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Adapters whose closure argument is an amortised slow path, not
/// per-report work.
fn is_cold_adapter(method: &str) -> bool {
    matches!(
        method,
        "or_insert_with" | "get_or_insert_with" | "unwrap_or_else" | "ok_or_else" | "map_err"
    )
}

/// Keyed containers whose `get`/`entry`/`insert` chase tree/hash
/// structure per call; `get` on a `Vec`/`VecDeque` field is positional
/// indexing, not a keyed lookup.
const KEYED_TYPES: &[&str] = &["BTreeMap", "BTreeSet", "HashMap", "HashSet"];

/// The type context of one scanned function, for receiver-type checks.
struct TypeEnv<'a> {
    ws: &'a Workspace,
    /// Self type of the enclosing `impl`, if any.
    impl_type: Option<&'a str>,
    /// Workspace `struct`/`enum` definitions by name.
    types: &'a BTreeMap<&'a str, &'a TypeItem>,
    /// Workspace `type` aliases, name → right-hand side.
    aliases: &'a std::collections::HashMap<&'a str, &'a str>,
}

impl TypeEnv<'_> {
    /// Alias-expanded declared type of a `self.<field>` receiver.
    fn field_ty(&self, recv: &Expr) -> Option<String> {
        let Expr::Field { base, name, .. } = recv else {
            return None;
        };
        let is_self =
            matches!(&**base, Expr::Path { segs, .. } if segs.len() == 1 && segs[0] == "self");
        if !is_self {
            return None;
        }
        let t = self.impl_type.and_then(|t| self.types.get(t))?;
        let field = t.fields.iter().find(|f| &f.name == name)?;
        Some(self.ws.expand_aliases(&field.ty, self.aliases))
    }

    /// The receiver is a field whose declared type is a workspace type
    /// and not a container — a `push` on it is a call-graph edge, not
    /// container growth.
    fn is_workspace_typed_field(&self, recv: &Expr) -> bool {
        let Some(ty) = self.field_ty(recv) else {
            return false;
        };
        let holds_container = ty.split_whitespace().any(|w| HEAP_TYPES.contains(&w));
        let names_workspace_type = ty.split_whitespace().any(|w| self.types.contains_key(w));
        names_workspace_type && !holds_container
    }

    /// The receiver is a field declared as a positional container
    /// (`Vec`, `VecDeque`) with no keyed container in its type — its
    /// `get`/`insert`/`remove` are index operations, not map lookups.
    fn is_positional_field(&self, recv: &Expr) -> bool {
        let Some(ty) = self.field_ty(recv) else {
            return false;
        };
        let positional = ty.split_whitespace().any(|w| w == "Vec" || w == "VecDeque");
        let keyed = ty.split_whitespace().any(|w| KEYED_TYPES.contains(&w));
        positional && !keyed
    }
}

/// Classifies one expression as a cost site.
fn classify(e: &Expr, env: &TypeEnv<'_>) -> Option<(CostKind, String)> {
    match e {
        Expr::Call { path, .. } if path.len() >= 2 => {
            if let [.., ty, ctor] = path.as_slice() {
                if HEAP_TYPES.contains(&ty.as_str()) && ALLOC_CTORS.contains(&ctor.as_str()) {
                    return Some((CostKind::Alloc, format!("{ty}::{ctor}")));
                }
            }
            None
        }
        Expr::MethodCall { recv, method, .. } => {
            if OWNING_METHODS.contains(&method.as_str()) {
                return Some((CostKind::Alloc, format!(".{method}()")));
            }
            if GROWING_METHODS.contains(&method.as_str())
                && is_field_rooted(recv)
                && !env.is_workspace_typed_field(recv)
            {
                return Some((CostKind::Alloc, format!(".{method}()")));
            }
            if LOOKUP_METHODS.contains(&method.as_str()) && !env.is_positional_field(recv) {
                return Some((CostKind::MapLookup, format!(".{method}()")));
            }
            None
        }
        Expr::Macro { name, .. } => {
            let last = name.rsplit("::").next().unwrap_or(name);
            if ALLOC_MACROS.contains(&last) {
                return Some((CostKind::Alloc, format!("{last}!")));
            }
            None
        }
        _ => None,
    }
}

/// Whether a receiver chain is rooted in a field access (`self.tags`,
/// `state.ring[0]`) — a container that outlives the call.
fn is_field_rooted(e: &Expr) -> bool {
    match e {
        Expr::Field { .. } | Expr::Index { .. } => true,
        Expr::Unary { expr, .. } | Expr::Try { expr, .. } | Expr::Cast { expr, .. } => {
            is_field_rooted(expr)
        }
        Expr::MethodCall { recv, .. } => is_field_rooted(recv),
        _ => false,
    }
}

/// Depth-first walk that skips closures passed to cold adapters.
fn scan_expr(e: &Expr, f: &mut dyn FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Opaque { .. } => {}
        Expr::Call { args, .. } | Expr::Macro { args, .. } | Expr::Group { items: args, .. } => {
            for a in args {
                scan_expr(a, f);
            }
        }
        Expr::MethodCall {
            recv, method, args, ..
        } => {
            scan_expr(recv, f);
            let cold = is_cold_adapter(method);
            for a in args {
                if cold && matches!(a, Expr::Closure { .. }) {
                    continue;
                }
                scan_expr(a, f);
            }
        }
        Expr::Field { base, .. } => scan_expr(base, f),
        Expr::Index { base, index, .. } => {
            scan_expr(base, f);
            scan_expr(index, f);
        }
        Expr::Unary { expr, .. }
        | Expr::Cast { expr, .. }
        | Expr::Try { expr, .. }
        | Expr::Closure { body: expr, .. } => scan_expr(expr, f),
        Expr::Binary { lhs, rhs, .. } => {
            scan_expr(lhs, f);
            scan_expr(rhs, f);
        }
        Expr::Assign { target, value, .. } => {
            scan_expr(target, f);
            scan_expr(value, f);
        }
        Expr::Block { block, .. } => scan_block(block, f),
        Expr::If {
            cond,
            then_block,
            else_branch,
            ..
        } => {
            scan_expr(cond, f);
            scan_block(then_block, f);
            if let Some(e) = else_branch {
                scan_expr(e, f);
            }
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            scan_expr(scrutinee, f);
            for a in arms {
                scan_expr(a, f);
            }
        }
        Expr::Loop { cond, body, .. } => {
            if let Some(c) = cond {
                scan_expr(c, f);
            }
            scan_block(body, f);
        }
        Expr::StructLit { fields, .. } => {
            for (_, v) in fields {
                scan_expr(v, f);
            }
        }
    }
}

/// Walks every expression of a block through [`scan_expr`].
fn scan_block(block: &Block, f: &mut dyn FnMut(&Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let {
                init: Some(init), ..
            } => scan_expr(init, f),
            Stmt::Let { .. } => {}
            Stmt::Expr { expr, .. } => scan_expr(expr, f),
            Stmt::Return { value: Some(v), .. } => scan_expr(v, f),
            Stmt::Return { .. } => {}
        }
    }
}

/// Renders the inventory as the `tagbreathe-hotpath-v1` JSON report.
#[must_use]
pub fn render_json(ws: &Workspace, inv: &Inventory) -> String {
    let allocs = inv
        .sites
        .iter()
        .filter(|s| s.kind == CostKind::Alloc)
        .count();
    let lookups = inv.sites.len() - allocs;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tagbreathe-hotpath-v1\",\n");
    let _ = writeln!(out, "  \"roots\": {},", string_array(&inv.root_labels));
    let _ = writeln!(
        out,
        "  \"unmatched_roots\": {},",
        string_array(&inv.unmatched_roots)
    );
    let _ = writeln!(out, "  \"reachable_fns\": {},", inv.reachable_fns);
    let _ = writeln!(out, "  \"site_count\": {},", inv.sites.len());
    let _ = writeln!(out, "  \"alloc_count\": {allocs},");
    let _ = writeln!(out, "  \"map_lookup_count\": {lookups},");
    out.push_str("  \"sites\": [\n");
    for (i, s) in inv.sites.iter().enumerate() {
        let sep = if i + 1 < inv.sites.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"kind\": {}, \"what\": {}, \"fn\": {}, \"path\": {}, \"line\": {}, \
             \"witness\": {}}}{sep}",
            json_string(s.kind.tag()),
            json_string(&s.what),
            json_string(&ws.label(s.node)),
            json_string(&s.path),
            s.line,
            string_array(&s.witness),
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
    use crate::config::{Config, HotPathConfig};
    use crate::source::SourceFile;

    fn ws_with(files: &[(&str, &str)], roots: &[&str], allow: &[&str]) -> Workspace {
        let sources: Vec<SourceFile> = files.iter().map(|(p, t)| SourceFile::parse(p, t)).collect();
        let config = Config {
            lib_crates: vec!["dsp".to_string(), "tagbreathe".to_string()],
            hotpath: HotPathConfig {
                roots: roots.iter().map(|s| s.to_string()).collect(),
                allow: allow.iter().map(|s| s.to_string()).collect(),
            },
            ..Config::default()
        };
        Workspace::build(&sources, &config)
    }

    #[test]
    fn transitive_alloc_has_witness_path() {
        let w = ws_with(
            &[(
                "crates/tagbreathe/src/a.rs",
                "pub fn ingest(x: f64) { step(x); }\n\
                 fn step(x: f64) { finish(x); }\n\
                 fn finish(_x: f64) { let mut v = Vec::new(); v.push(1.0); }\n",
            )],
            &["ingest"],
            &[],
        );
        let inv = inventory(&w);
        assert_eq!(inv.reachable_fns, 3);
        let alloc: Vec<&CostSite> = inv.sites.iter().filter(|s| s.what == "Vec::new").collect();
        assert_eq!(alloc.len(), 1, "{:?}", inv.sites);
        assert_eq!(alloc[0].witness, vec!["ingest", "step", "finish"]);
    }

    #[test]
    fn map_lookups_and_macros_are_classified() {
        let w = ws_with(
            &[(
                "crates/tagbreathe/src/a.rs",
                "pub fn ingest(m: &mut std::collections::BTreeMap<u8, f64>) {\n\
                   m.entry(1).or_insert(0.0);\n\
                   let _ = m.get(&1);\n\
                   let _s = format!(\"x\");\n\
                 }\n",
            )],
            &["ingest"],
            &[],
        );
        let inv = inventory(&w);
        let kinds: Vec<(&str, &str)> = inv
            .sites
            .iter()
            .map(|s| (s.kind.tag(), s.what.as_str()))
            .collect();
        assert!(kinds.contains(&("map-lookup", ".entry()")), "{kinds:?}");
        assert!(kinds.contains(&("map-lookup", ".get()")), "{kinds:?}");
        assert!(kinds.contains(&("alloc", "format!")), "{kinds:?}");
    }

    #[test]
    fn cold_closures_and_allow_listed_fns_are_skipped() {
        let w = ws_with(
            &[(
                "crates/tagbreathe/src/a.rs",
                "pub fn ingest(m: &mut std::collections::BTreeMap<u8, Vec<f64>>) {\n\
                   m.entry(1).or_insert_with(|| Vec::with_capacity(8));\n\
                   snapshot();\n\
                 }\n\
                 fn snapshot() { let _v: Vec<f64> = Vec::new(); }\n",
            )],
            &["ingest"],
            &["snapshot"],
        );
        let inv = inventory(&w);
        assert!(
            !inv.sites.iter().any(|s| s.what == "Vec::with_capacity"),
            "cold closure body flagged: {:?}",
            inv.sites
        );
        assert!(
            !inv.sites.iter().any(|s| s.what == "Vec::new"),
            "allow-listed fn scanned: {:?}",
            inv.sites
        );
        // The entry lookup itself is still hot.
        assert!(inv.sites.iter().any(|s| s.what == ".entry()"));
    }

    #[test]
    fn push_on_workspace_typed_field_is_a_call_not_growth() {
        let w = ws_with(
            &[(
                "crates/tagbreathe/src/a.rs",
                "pub struct Demux;\n\
                 impl Demux { pub fn push(&mut self, _x: f64) {} }\n\
                 pub struct Monitor { demux: Demux, buf: Vec<f64> }\n\
                 impl Monitor {\n\
                   pub fn ingest(&mut self, x: f64) { self.demux.push(x); self.buf.push(x); }\n\
                 }\n",
            )],
            &["Monitor::ingest"],
            &[],
        );
        let inv = inventory(&w);
        let grows: Vec<&CostSite> = inv.sites.iter().filter(|s| s.what == ".push()").collect();
        assert_eq!(grows.len(), 1, "{:?}", inv.sites);
        assert_eq!(grows[0].line, 5, "{:?}", grows[0]);
    }

    #[test]
    fn positional_get_behind_alias_is_not_a_map_lookup() {
        let w = ws_with(
            &[(
                "crates/tagbreathe/src/a.rs",
                "type Slab = Vec<(u32, f64)>;\n\
                 pub struct S { slots: Slab, index: std::collections::BTreeMap<u32, f64> }\n\
                 impl S {\n\
                   pub fn ingest(&mut self, k: u32) {\n\
                     let _a = self.slots.get(0);\n\
                     let _b = self.index.get(&k);\n\
                   }\n\
                 }\n",
            )],
            &["S::ingest"],
            &[],
        );
        let inv = inventory(&w);
        let lookups: Vec<u32> = inv
            .sites
            .iter()
            .filter(|s| s.what == ".get()")
            .map(|s| s.line)
            .collect();
        assert_eq!(lookups, vec![6], "{:?}", inv.sites);
    }

    #[test]
    fn unmatched_roots_are_reported() {
        let w = ws_with(
            &[("crates/tagbreathe/src/a.rs", "pub fn ingest() {}\n")],
            &["ingest", "Nope::missing"],
            &[],
        );
        let inv = inventory(&w);
        assert_eq!(inv.unmatched_roots, vec!["Nope::missing"]);
    }

    #[test]
    fn json_report_is_valid() {
        let w = ws_with(
            &[(
                "crates/tagbreathe/src/a.rs",
                "pub fn ingest() { let _ = \"x\".to_string(); }\n",
            )],
            &["ingest"],
            &[],
        );
        let inv = inventory(&w);
        let text = render_json(&w, &inv);
        assert!(
            tagbreathe_obs::json::validate(&text).is_ok(),
            "invalid JSON:\n{text}"
        );
        assert!(text.contains("\"schema\": \"tagbreathe-hotpath-v1\""));
        assert!(text.contains("\"site_count\": 1"));
    }
}
