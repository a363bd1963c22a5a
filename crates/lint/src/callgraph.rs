//! Workspace model and heuristic call graph over parsed files.
//!
//! Name resolution is deliberately conservative — an edge is added only
//! when the target is reasonably certain, because the panic-reachability
//! and lock-discipline rules propagate facts *transitively* and a single
//! bogus edge (e.g. treating every `vec.push(…)` as a call into every
//! workspace method named `push`) would drown the report in noise:
//!
//! * bare calls `f(…)` resolve to free functions named `f`, preferring
//!   the same file, then the same crate, then the whole workspace;
//! * qualified calls `Type::f(…)` resolve to methods of workspace impls
//!   of `Type` (`Self::f` uses the enclosing impl);
//! * method calls `recv.f(…)` resolve only when the receiver's type is
//!   locally inferable — `self`, a parameter, or a `let` with a type
//!   annotation / `Type::new(…)` / struct-literal initialiser — or when
//!   exactly one workspace function bears that name (unique-name
//!   fallback). The fallback never crosses into a crate that mirrors the
//!   std atomic API (`[atomics] exempt-crates`, e.g. the model checker's
//!   shim): there the one workspace `load` is the mirror, while a caller
//!   outside that crate means the std method. Nor does it resolve a call
//!   on a field its struct declares as a std container (`Vec`,
//!   `HashMap`, …, directly or through a `type` alias):
//!   `self.last.insert(…)` on a `HashMap` field is the map's `insert`,
//!   not the one workspace `insert`.
//!
//! Unresolvable calls produce no edge; rules treat them as leaves.

use crate::config::{AtomicsConfig, Config, NanGuardConfig, UnitsConfig};
use crate::parser::{base_type_name, parse_file, Expr, FnItem, ParsedFile, Stmt};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::OnceLock;

/// One parsed workspace file.
#[derive(Debug)]
pub struct AnalyzedFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Crate the file belongs to (directory under `crates/`).
    pub crate_name: String,
    /// Whole file is test/bench/example code.
    pub test_only: bool,
    /// The parsed item model.
    pub parsed: ParsedFile,
}

/// Everything the semantic rules need for one scan.
#[derive(Debug)]
pub struct Workspace {
    /// All parsed files, in walk (sorted-path) order.
    pub files: Vec<AnalyzedFile>,
    /// Crates held to library standards.
    pub lib_crates: Vec<String>,
    /// Physical-units configuration from `lint.toml`.
    pub units: UnitsConfig,
    /// Declared lock-acquisition order from `lint.toml` (coarsest first).
    pub lock_order: Vec<String>,
    /// NaN-guard configuration from `lint.toml`.
    pub nanguard: NanGuardConfig,
    /// Declared atomic ordering protocols from `lint.toml`.
    pub atomics: AtomicsConfig,
    /// The call graph over every function in `files`.
    pub graph: CallGraph,
}

/// One function node in the call graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's `parsed.fns`.
    pub item: usize,
    /// Function name.
    pub name: String,
    /// Impl self type, when the function is a method.
    pub impl_type: Option<String>,
    /// Crate of the defining file.
    pub crate_name: String,
    /// `true` when the function lives in test code.
    pub is_test: bool,
}

/// Call graph: nodes plus forward adjacency (caller → callees).
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All workspace functions.
    pub nodes: Vec<FnNode>,
    /// `edges[i]` — sorted, deduplicated callee node indices of node `i`.
    pub edges: Vec<Vec<usize>>,
}

impl Workspace {
    /// Builds the workspace model and call graph from lexed files.
    pub fn build(sources: &[SourceFile], config: &Config) -> Workspace {
        let files: Vec<AnalyzedFile> = sources
            .iter()
            .map(|sf| AnalyzedFile {
                rel_path: sf.rel_path.clone(),
                crate_name: sf.crate_name.clone(),
                test_only: sf.test_only,
                parsed: parse_file(sf),
            })
            .collect();
        let graph = CallGraph::build(&files, &config.atomics.exempt);
        Workspace {
            files,
            lib_crates: config.lib_crates.clone(),
            units: config.units.clone(),
            lock_order: config.lock_order.clone(),
            nanguard: config.nanguard.clone(),
            atomics: config.atomics.clone(),
            graph,
        }
    }

    /// The parsed item behind a graph node. Total: an out-of-range node
    /// (impossible for indices handed out by this workspace's own graph)
    /// yields a shared empty item rather than a panic.
    pub fn item(&self, node: usize) -> &FnItem {
        static EMPTY: OnceLock<FnItem> = OnceLock::new();
        self.graph
            .nodes
            .get(node)
            .and_then(|n| self.files.get(n.file).map(|f| (f, n.item)))
            .and_then(|(f, item)| f.parsed.fns.get(item))
            .unwrap_or_else(|| EMPTY.get_or_init(FnItem::default))
    }

    /// Workspace-relative path of the file defining a node (empty for an
    /// out-of-range node).
    pub fn path_of(&self, node: usize) -> &str {
        self.graph
            .nodes
            .get(node)
            .and_then(|n| self.files.get(n.file))
            .map_or("", |f| f.rel_path.as_str())
    }

    /// Whether a node's crate is held to library standards.
    pub fn in_lib_crate(&self, node: usize) -> bool {
        self.graph
            .nodes
            .get(node)
            .is_some_and(|n| self.lib_crates.contains(&n.crate_name))
    }

    /// A human-readable label for diagnostics: `Type::name` or `name`
    /// (`?` for an out-of-range node).
    pub fn label(&self, node: usize) -> String {
        let Some(n) = self.graph.nodes.get(node) else {
            return "?".to_string();
        };
        match &n.impl_type {
            Some(t) => format!("{t}::{}", n.name),
            None => n.name.clone(),
        }
    }

    /// All non-test `type` aliases of the workspace, name → aliased type
    /// text. Duplicate names keep the first definition.
    pub fn alias_map(&self) -> HashMap<&str, &str> {
        alias_map(&self.files)
    }

    /// Flat type text with `type` aliases substituted (transitively, to a
    /// small depth so cycles terminate) — so rules inspecting field types
    /// see `Vec < … TagState … >` where the source says `TagSlab`.
    pub fn expand_aliases(&self, ty: &str, aliases: &HashMap<&str, &str>) -> String {
        expand_aliases(ty, aliases)
    }
}

/// All non-test `type` aliases of `files`, name → aliased type text.
/// Duplicate names keep the first definition.
fn alias_map(files: &[AnalyzedFile]) -> HashMap<&str, &str> {
    let mut map = HashMap::new();
    for file in files {
        for a in &file.parsed.aliases {
            if !a.is_test && !file.test_only {
                map.entry(a.name.as_str()).or_insert(a.ty.as_str());
            }
        }
    }
    map
}

/// Flat type text with `type` aliases substituted, transitively to a
/// small depth so cycles terminate.
fn expand_aliases(ty: &str, aliases: &HashMap<&str, &str>) -> String {
    let mut current = ty.to_string();
    for _ in 0..4 {
        let mut changed = false;
        let expanded: Vec<&str> = current
            .split_whitespace()
            .map(|w| match aliases.get(w) {
                Some(rhs) => {
                    changed = true;
                    *rhs
                }
                None => w,
            })
            .collect();
        current = expanded.join(" ");
        if !changed {
            break;
        }
    }
    current
}

/// Std containers. A method called on a field declared as one of these
/// is the container's own, whatever workspace function shares its name.
const STD_CONTAINERS: &[&str] = &[
    "Vec", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "String", "Option",
];

/// `(type, field)` for every non-test struct field declared as a std
/// container, directly or through `type` aliases.
fn std_container_fields(files: &[AnalyzedFile]) -> BTreeSet<(String, String)> {
    let aliases = alias_map(files);
    let mut out = BTreeSet::new();
    for file in files.iter().filter(|f| !f.test_only) {
        for t in file.parsed.types.iter().filter(|t| !t.is_test) {
            for field in &t.fields {
                let ty = expand_aliases(&field.ty, &aliases);
                if base_type_name(&ty).is_some_and(|b| STD_CONTAINERS.contains(&b.as_str())) {
                    out.insert((t.name.clone(), field.name.clone()));
                }
            }
        }
    }
    out
}

impl CallGraph {
    /// Builds nodes and edges for all functions in `files`. `mirrors` names
    /// the crates that mirror std APIs, which the unique-name fallback only
    /// resolves into from inside themselves.
    pub fn build(files: &[AnalyzedFile], mirrors: &[String]) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, f) in file.parsed.fns.iter().enumerate() {
                nodes.push(FnNode {
                    file: fi,
                    item: ii,
                    name: f.name.clone(),
                    impl_type: f.impl_type.clone(),
                    crate_name: file.crate_name.clone(),
                    is_test: f.is_test,
                });
            }
        }
        let index = NameIndex::build(&nodes, mirrors, std_container_fields(files));
        let mut edges = Vec::with_capacity(nodes.len());
        for node in &nodes {
            let mut callees = Vec::new();
            let item = files
                .get(node.file)
                .and_then(|f| f.parsed.fns.get(node.item));
            if let Some(body) = item.and_then(|i| i.body.as_ref()) {
                let vars =
                    item.map_or_else(HashMap::new, |i| local_types(i, node.impl_type.as_deref()));
                body.visit(&mut |e| {
                    resolve_expr(e, node, &nodes, &vars, &index, &mut callees);
                });
            }
            callees.sort_unstable();
            callees.dedup();
            edges.push(callees);
        }
        CallGraph { nodes, edges }
    }

    /// Reverse adjacency (callee → callers), for backward propagation.
    pub fn reverse_edges(&self) -> Vec<Vec<usize>> {
        let mut rev = vec![Vec::new(); self.nodes.len()];
        for (caller, callees) in self.edges.iter().enumerate() {
            for &callee in callees {
                if let Some(callers) = rev.get_mut(callee) {
                    callers.push(caller);
                }
            }
        }
        rev
    }
}

/// Secondary indexes for name resolution.
struct NameIndex {
    /// Free functions by name.
    free: BTreeMap<String, Vec<usize>>,
    /// Methods by `(self type, name)`.
    method: BTreeMap<(String, String), Vec<usize>>,
    /// Every function by bare name (free + methods).
    any: BTreeMap<String, Vec<usize>>,
    /// Crates mirroring std APIs, closed to outside unique-name fallback.
    mirrors: Vec<String>,
    /// `(type, field)` of struct fields declared as std containers, on
    /// which the unique-name fallback never resolves a call.
    std_fields: BTreeSet<(String, String)>,
}

impl NameIndex {
    fn build(
        nodes: &[FnNode],
        mirrors: &[String],
        std_fields: BTreeSet<(String, String)>,
    ) -> NameIndex {
        let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut method: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut any: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            any.entry(n.name.clone()).or_default().push(i);
            match &n.impl_type {
                Some(t) => method
                    .entry((t.clone(), n.name.clone()))
                    .or_default()
                    .push(i),
                None => free.entry(n.name.clone()).or_default().push(i),
            }
        }
        NameIndex {
            free,
            method,
            any,
            mirrors: mirrors.to_vec(),
            std_fields,
        }
    }
}

/// Infers local variable types from parameters and `let` statements.
fn local_types(item: &FnItem, impl_type: Option<&str>) -> HashMap<String, String> {
    let mut vars = HashMap::new();
    let resolve_self = |t: String| {
        if t == "Self" {
            impl_type.map(str::to_string)
        } else {
            Some(t)
        }
    };
    for p in &item.params {
        if let (Some(name), Some(ty)) = (&p.name, base_type_name(&p.ty)) {
            if let Some(t) = resolve_self(ty) {
                vars.insert(name.clone(), t);
            }
        }
    }
    if let Some(body) = &item.body {
        collect_let_types(body, &mut vars, impl_type);
    }
    vars
}

/// Walks every statement (including nested blocks) collecting `let` types.
fn collect_let_types(
    block: &crate::parser::Block,
    vars: &mut HashMap<String, String>,
    impl_type: Option<&str>,
) {
    for stmt in &block.stmts {
        if let Stmt::Let {
            name: Some(name),
            ty,
            init,
            ..
        } = stmt
        {
            let inferred = ty
                .as_deref()
                .and_then(base_type_name)
                .or_else(|| init.as_ref().and_then(constructed_type));
            if let Some(t) = inferred {
                let t = if t == "Self" {
                    impl_type.map(str::to_string)
                } else {
                    Some(t)
                };
                if let Some(t) = t {
                    vars.insert(name.clone(), t);
                }
            }
        }
    }
    // Nested blocks: scoping is ignored (shadowing across blocks is rare
    // enough that a flat map is an acceptable approximation).
    block.visit(&mut |e| {
        if let Expr::Block { block: b, .. } = e {
            for stmt in &b.stmts {
                if let Stmt::Let {
                    name: Some(name),
                    ty: Some(ty),
                    ..
                } = stmt
                {
                    if let Some(t) = base_type_name(ty) {
                        vars.entry(name.clone()).or_insert(t);
                    }
                }
            }
        }
    });
}

/// The type constructed by an initialiser, when syntactically evident:
/// `Type::new(…)`, `Type(…)` or `Type { … }`.
fn constructed_type(init: &Expr) -> Option<String> {
    match init {
        Expr::Call { path, .. } if path.len() >= 2 => {
            let t = path.get(path.len() - 2)?;
            t.chars().next().filter(char::is_ascii_uppercase)?;
            Some(t.clone())
        }
        Expr::Call { path, .. } if path.len() == 1 => {
            let t = path.first()?;
            t.chars().next().filter(char::is_ascii_uppercase)?;
            Some(t.clone())
        }
        Expr::StructLit { path, .. } => path.last().cloned(),
        Expr::Try { expr, .. } => constructed_type(expr),
        Expr::MethodCall { recv, method, .. }
            if method == "unwrap" || method == "expect" || method == "clone" =>
        {
            constructed_type(recv)
        }
        _ => None,
    }
}

/// Resolves one expression's call, if any, appending edge targets.
fn resolve_expr(
    e: &Expr,
    node: &FnNode,
    nodes: &[FnNode],
    vars: &HashMap<String, String>,
    index: &NameIndex,
    out: &mut Vec<usize>,
) {
    match e {
        Expr::Call { path, .. } => match (path.first(), path.last(), path.len()) {
            (None, _, _) | (_, None, _) => {}
            (Some(first), _, 1) => out.extend(prefer(index.free.get(first), node, nodes)),
            (_, Some(name), len) => {
                let Some(qualifier) = path.get(len - 2) else {
                    return;
                };
                let type_name = if qualifier == "Self" {
                    node.impl_type.clone()
                } else if qualifier
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_uppercase())
                {
                    Some(qualifier.clone())
                } else {
                    None
                };
                match type_name {
                    Some(t) => {
                        if let Some(v) = index.method.get(&(t, name.clone())) {
                            out.extend(v.iter().copied());
                        }
                    }
                    // module-qualified free call, e.g. `units::hz_to_bpm(…)`
                    None => out.extend(prefer(index.free.get(name), node, nodes)),
                }
            }
        },
        Expr::MethodCall { recv, method, .. } => {
            let recv_type = receiver_type(recv, node, vars);
            match recv_type {
                Some(t) => {
                    if let Some(v) = index.method.get(&(t, method.clone())) {
                        out.extend(v.iter().copied());
                    }
                }
                // A field declared as a std container calls the
                // container's method, never the workspace's.
                None if is_std_container_field(recv, node, vars, index) => {}
                None => {
                    // Unique-name fallback: only when the workspace has
                    // exactly one function with this name, and not into a
                    // std-API mirror from outside it.
                    if let Some(&[only]) = index.any.get(method).map(Vec::as_slice) {
                        let foreign_mirror = nodes.get(only).is_some_and(|n| {
                            n.crate_name != node.crate_name && index.mirrors.contains(&n.crate_name)
                        });
                        if !foreign_mirror {
                            out.push(only);
                        }
                    }
                }
            }
        }
        _ => {}
    }
}

/// Type of a method receiver, when locally inferable.
fn receiver_type(recv: &Expr, node: &FnNode, vars: &HashMap<String, String>) -> Option<String> {
    match recv {
        Expr::Path { segs, .. } if segs.len() == 1 => match segs.first().map(String::as_str) {
            Some("self") => node.impl_type.clone(),
            Some(name) => vars.get(name).cloned(),
            None => None,
        },
        Expr::Unary { expr, .. } | Expr::Try { expr, .. } => receiver_type(expr, node, vars),
        _ => None,
    }
}

/// Whether a receiver is a field, of `self` or of a typed local, that its
/// struct declares as a std container.
fn is_std_container_field(
    recv: &Expr,
    node: &FnNode,
    vars: &HashMap<String, String>,
    index: &NameIndex,
) -> bool {
    match recv {
        Expr::Field { base, name, .. } => receiver_type(base, node, vars)
            .is_some_and(|owner| index.std_fields.contains(&(owner, name.clone()))),
        Expr::Unary { expr, .. } | Expr::Try { expr, .. } => {
            is_std_container_field(expr, node, vars, index)
        }
        _ => false,
    }
}

/// Candidate list narrowed by proximity: same file wins, then same crate,
/// then every match.
fn prefer(candidates: Option<&Vec<usize>>, node: &FnNode, nodes: &[FnNode]) -> Vec<usize> {
    let Some(all) = candidates else {
        return Vec::new();
    };
    let same_file: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| nodes.get(i).is_some_and(|n| n.file == node.file))
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| {
            nodes
                .get(i)
                .is_some_and(|n| n.crate_name == node.crate_name)
        })
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    all.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(path, text)| SourceFile::parse(path, text))
            .collect();
        let config = Config {
            lib_crates: vec!["dsp".to_string(), "tagbreathe".to_string()],
            ..Config::default()
        };
        Workspace::build(&sources, &config)
    }

    fn node(ws: &Workspace, name: &str) -> usize {
        ws.graph
            .nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or(usize::MAX)
    }

    fn callees(ws: &Workspace, name: &str) -> Vec<String> {
        let i = node(ws, name);
        ws.graph.edges[i]
            .iter()
            .map(|&j| ws.graph.nodes[j].name.clone())
            .collect()
    }

    #[test]
    fn free_fn_calls_resolve() {
        let w = ws(&[(
            "crates/dsp/src/a.rs",
            "pub fn outer(x: f64) -> f64 { helper(x) }\nfn helper(x: f64) -> f64 { x }\n",
        )]);
        assert_eq!(callees(&w, "outer"), vec!["helper"]);
    }

    #[test]
    fn qualified_and_self_calls_resolve_to_methods() {
        let w = ws(&[(
            "crates/dsp/src/a.rs",
            "struct S;\nimpl S {\n  pub fn new() -> Self { S }\n  fn go(&self) { self.step(); Self::leap(); }\n  fn step(&self) {}\n  fn leap() {}\n}\nfn use_it() { let s = S::new(); s.go(); }\n",
        )]);
        let go = callees(&w, "go");
        assert!(go.contains(&"step".to_string()), "self.method: {go:?}");
        assert!(go.contains(&"leap".to_string()), "Self::assoc: {go:?}");
        let use_it = callees(&w, "use_it");
        assert!(use_it.contains(&"new".to_string()), "{use_it:?}");
        assert!(
            use_it.contains(&"go".to_string()),
            "let-typed receiver: {use_it:?}"
        );
    }

    #[test]
    fn untyped_receivers_do_not_explode() {
        let w = ws(&[(
            "crates/dsp/src/a.rs",
            "struct A;\nimpl A { pub fn push(&self) {} }\nstruct B;\nimpl B { pub fn push(&self) {} }\nfn f(v: Vec<f64>) { v.iter().count(); }\n",
        )]);
        // `v.iter()` must not resolve to either `push`.
        assert!(callees(&w, "f").is_empty(), "{:?}", callees(&w, "f"));
    }

    #[test]
    fn unique_name_fallback_applies() {
        let w = ws(&[(
            "crates/tagbreathe/src/a.rs",
            "struct Only;\nimpl Only { pub fn very_unique_helper(&self) {} }\nfn f() { current().very_unique_helper(); }\n",
        )]);
        assert!(
            callees(&w, "f").contains(&"very_unique_helper".to_string()),
            "{:?}",
            callees(&w, "f")
        );
    }

    #[test]
    fn unique_name_fallback_stays_out_of_std_mirrors() {
        let sources: Vec<SourceFile> = [
            (
                "crates/syncmodel/src/a.rs",
                "struct Shim;\nimpl Shim { pub fn load(&self) {} }\nfn inner() { current().load(); }\n",
            ),
            (
                "crates/tagbreathe/src/b.rs",
                "fn outer() { current().load(); }\n",
            ),
        ]
        .iter()
        .map(|(path, text)| SourceFile::parse(path, text))
        .collect();
        let mut config = Config::default();
        config.atomics.exempt = vec!["syncmodel".to_string()];
        let w = Workspace::build(&sources, &config);
        assert!(
            callees(&w, "outer").is_empty(),
            "{:?}",
            callees(&w, "outer")
        );
        assert_eq!(callees(&w, "inner"), vec!["load"]);
    }

    #[test]
    fn unique_name_fallback_skips_std_container_fields() {
        let w = ws(&[(
            "crates/tagbreathe/src/a.rs",
            "type Slab = Vec<(u16, f64)>;\n\
             struct Table;\n\
             impl Table { pub fn insert(&mut self) {} }\n\
             struct Holder { map: std::collections::HashMap<u16, f64>, slab: Slab, table: Box<Table> }\n\
             impl Holder {\n\
               fn keyed(&mut self) { self.map.insert(1, 2.0); }\n\
               fn aliased(&mut self) { self.slab.insert(0, (1, 2.0)); }\n\
               fn boxed(&mut self) { self.table.insert(); }\n\
             }\n\
             fn local(h: &mut Holder) { h.map.insert(1, 2.0); }\n",
        )]);
        for f in ["keyed", "aliased", "local"] {
            assert!(callees(&w, f).is_empty(), "{f}: {:?}", callees(&w, f));
        }
        assert_eq!(callees(&w, "boxed"), vec!["insert"]);
    }

    #[test]
    fn cross_file_resolution_and_reverse_edges() {
        let w = ws(&[
            (
                "crates/dsp/src/a.rs",
                "pub fn mean(xs: &[f64]) -> f64 { xs[0] }\n",
            ),
            (
                "crates/tagbreathe/src/b.rs",
                "pub fn analyze(xs: &[f64]) -> f64 { mean(xs) }\n",
            ),
        ]);
        assert_eq!(callees(&w, "analyze"), vec!["mean"]);
        let rev = w.graph.reverse_edges();
        let mean = node(&w, "mean");
        let analyze = node(&w, "analyze");
        assert_eq!(rev[mean], vec![analyze]);
    }
}
