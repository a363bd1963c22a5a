//! `lock-discipline` — deadlock-prone use of `std::sync` guards.
//!
//! Three patterns are flagged, in non-test lib-crate code:
//!
//! 1. **double-lock**: re-acquiring (`.lock()` / `.read()` / `.write()`)
//!    a lock whose guard is still live on the same path — with `std::sync`
//!    primitives that self-deadlocks (two `.read()`s are allowed);
//! 2. **held-across-lock**: calling a function that (transitively)
//!    acquires some lock while a guard is held — the classic ordering-
//!    deadlock setup;
//! 3. **order violation**: with a lock order declared in `lint.toml`
//!    (`[locks] order = "coarse, …, fine"`, matched against the last
//!    segment of each lock's access path), directly acquiring an
//!    earlier-ranked lock while holding a later-ranked one. Locks not
//!    named in the order are unconstrained, so adopting an order adds
//!    no noise for unrelated guards.
//!
//! A lock is identified by the *access path* of the receiver
//! (`self.ring`, `state`, …); receivers that are call results
//! (`io::stdout().lock()`) are exempt because the rule cannot tell
//! which lock object they name. Guards become live when an acquisition
//! is `let`-bound, die at end of their block or at `drop(guard)`.
//! "Functions that acquire a lock" is the transitive closure of direct
//! acquirers over the workspace call graph, matched by callee name —
//! unresolved calls are leaves, so the rule under-approximates.

use crate::callgraph::Workspace;
use crate::parser::{Block, Expr, Stmt};
use crate::report::{Severity, Violation};
use crate::rules::SemanticRule;
use std::collections::BTreeSet;

/// See the module docs.
pub struct LockDiscipline;

impl SemanticRule for LockDiscipline {
    fn id(&self) -> &'static str {
        "lock-discipline"
    }

    fn description(&self) -> &'static str {
        "guard held across another lock acquisition, or double-lock on one path"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ws: &Workspace) -> Vec<Violation> {
        let n = ws.graph.nodes.len();
        // Functions that directly acquire a lock, then the transitive
        // closure over reverse edges (callers of acquirers also acquire).
        let mut locking: Vec<bool> = (0..n).map(|i| directly_locks(ws, i)).collect();
        let rev = ws.graph.reverse_edges();
        let mut queue: Vec<usize> = (0..n).filter(|&i| locking[i]).collect();
        while let Some(v) = queue.pop() {
            for &caller in &rev[v] {
                if !locking[caller] {
                    locking[caller] = true;
                    queue.push(caller);
                }
            }
        }
        let locking_names: BTreeSet<&str> = (0..n)
            .filter(|&i| locking[i])
            .map(|i| ws.graph.nodes[i].name.as_str())
            .collect();

        let mut violations = Vec::new();
        for i in 0..n {
            let node = &ws.graph.nodes[i];
            if node.is_test || !ws.in_lib_crate(i) {
                continue;
            }
            let item = ws.item(i);
            let Some(body) = &item.body else { continue };
            let mut checker = FnChecker {
                locking_names: &locking_names,
                lock_order: &ws.lock_order,
                path: ws.path_of(i),
                out: &mut violations,
            };
            let mut guards = Vec::new();
            checker.check_block(body, &mut guards);
        }
        violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        violations
    }
}

/// A live `let`-bound guard.
struct Guard {
    binding: Option<String>,
    key: String,
    method: String,
    line: u32,
}

struct FnChecker<'a> {
    locking_names: &'a BTreeSet<&'a str>,
    lock_order: &'a [String],
    path: &'a str,
    out: &'a mut Vec<Violation>,
}

impl FnChecker<'_> {
    fn emit(&mut self, line: u32, message: String) {
        self.out.push(Violation {
            rule: "lock-discipline",
            path: self.path.to_string(),
            line,
            message,
        });
    }

    fn check_block(&mut self, block: &Block, guards: &mut Vec<Guard>) {
        let depth = guards.len();
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let { name, init, .. } => {
                    if let Some(init) = init {
                        if let Some((key, method, line)) = self.check_expr(init, guards) {
                            guards.push(Guard {
                                binding: name.clone(),
                                key,
                                method,
                                line,
                            });
                        }
                    }
                }
                Stmt::Expr { expr, .. } => {
                    if let Some(dropped) = dropped_binding(expr) {
                        guards.retain(|g| g.binding.as_deref() != Some(dropped));
                        continue;
                    }
                    // Un-bound acquisitions are temporaries: the guard dies
                    // at the end of this statement, so it is not tracked.
                    self.check_expr(expr, guards);
                }
                Stmt::Return { value, .. } => {
                    if let Some(v) = value {
                        self.check_expr(v, guards);
                    }
                }
            }
        }
        guards.truncate(depth);
    }

    /// Checks one expression tree; returns the acquisition the whole
    /// expression evaluates to, if any (so `m.lock().unwrap()` threads
    /// the guard through the `unwrap`).
    fn check_expr(&mut self, e: &Expr, guards: &mut Vec<Guard>) -> Option<(String, String, u32)> {
        match e {
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } => {
                let inner = self.check_expr(recv, guards);
                for a in args {
                    self.check_expr(a, guards);
                }
                if is_lock_method(method) && args.is_empty() {
                    if let Some(key) = key_of(recv) {
                        for g in guards.iter() {
                            if g.key == key && !(g.method == "read" && method == "read") {
                                let held = g.line;
                                self.emit(
                                    *line,
                                    format!(
                                        "guard on `{key}` already held since line {held}; \
                                         a second `.{method}()` here would deadlock"
                                    ),
                                );
                            }
                        }
                        self.check_order(&key, *line, guards);
                        return Some((key, method.clone(), *line));
                    }
                }
                if guard_passthrough(method) && inner.is_some() {
                    return inner;
                }
                // A call *through* a live guard (`ring.buf.clear()` where
                // `ring` is the guard) operates on the locked data — it
                // cannot re-acquire the lock that guard already holds.
                let through_guard = key_of(recv)
                    .and_then(|k| k.split('.').next().map(str::to_string))
                    .is_some_and(|root| guards.iter().any(|g| g.binding.as_deref() == Some(&root)));
                if !through_guard && self.locking_names.contains(method.as_str()) {
                    self.flag_locking_call(method, *line, guards);
                }
                None
            }
            Expr::Call { path, args, line } => {
                for a in args {
                    self.check_expr(a, guards);
                }
                if let Some(name) = path.last() {
                    if self.locking_names.contains(name.as_str()) {
                        self.flag_locking_call(name, *line, guards);
                    }
                }
                None
            }
            Expr::Unary { expr, .. } | Expr::Try { expr, .. } => self.check_expr(expr, guards),
            Expr::Cast { expr, .. } => {
                self.check_expr(expr, guards);
                None
            }
            Expr::Field { base, .. } | Expr::Index { base, .. } => {
                self.check_expr(base, guards);
                None
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.check_expr(lhs, guards);
                self.check_expr(rhs, guards);
                None
            }
            Expr::Assign { target, value, .. } => {
                self.check_expr(target, guards);
                self.check_expr(value, guards);
                None
            }
            Expr::Macro { args, .. } | Expr::Group { items: args, .. } => {
                for a in args {
                    self.check_expr(a, guards);
                }
                None
            }
            // Closures usually run before the enclosing statement ends
            // (iterator adapters, `unwrap_or_else`), so held guards stay
            // in scope inside them.
            Expr::Closure { body, .. } => self.check_expr(body, guards),
            Expr::Block { block, .. } => {
                self.check_block(block, guards);
                None
            }
            Expr::If {
                cond,
                then_block,
                else_branch,
                ..
            } => {
                self.check_expr(cond, guards);
                self.check_block(then_block, guards);
                if let Some(e) = else_branch {
                    self.check_expr(e, guards);
                }
                None
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.check_expr(scrutinee, guards);
                for a in arms {
                    self.check_expr(a, guards);
                }
                None
            }
            Expr::Loop { cond, body, .. } => {
                if let Some(c) = cond {
                    self.check_expr(c, guards);
                }
                self.check_block(body, guards);
                None
            }
            Expr::StructLit { fields, .. } => {
                for (_, v) in fields {
                    self.check_expr(v, guards);
                }
                None
            }
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Opaque { .. } => None,
        }
    }

    /// Pattern 3: acquiring `key` must respect the declared lock order
    /// relative to every held guard. Unranked locks are unconstrained.
    fn check_order(&mut self, key: &str, line: u32, guards: &[Guard]) {
        let Some(new_rank) = rank_of(self.lock_order, key) else {
            return;
        };
        for g in guards.iter() {
            if g.key == key {
                continue;
            }
            let Some(held_rank) = rank_of(self.lock_order, &g.key) else {
                continue;
            };
            if new_rank < held_rank {
                let (held_key, held_line) = (&g.key, g.line);
                self.emit(
                    line,
                    format!(
                        "acquiring `{key}` while `{held_key}` (line {held_line}) is held \
                         violates the declared lock order ({})",
                        self.lock_order.join(" before ")
                    ),
                );
            }
        }
    }

    fn flag_locking_call(&mut self, callee: &str, line: u32, guards: &[Guard]) {
        if let Some(g) = guards.last() {
            let (key, held) = (&g.key, g.line);
            self.emit(
                line,
                format!(
                    "calls `{callee}` (which acquires a lock) while the guard on \
                     `{key}` (line {held}) is held"
                ),
            );
        }
    }
}

/// Does this function's body directly acquire a `std::sync`-style lock?
fn directly_locks(ws: &Workspace, node: usize) -> bool {
    let Some(body) = &ws.item(node).body else {
        return false;
    };
    let mut found = false;
    body.visit(&mut |e| {
        if let Expr::MethodCall {
            recv, method, args, ..
        } = e
        {
            if is_lock_method(method) && args.is_empty() && key_of(recv).is_some() {
                found = true;
            }
        }
    });
    found
}

fn is_lock_method(method: &str) -> bool {
    method == "lock" || method == "read" || method == "write"
}

/// `unwrap`-family adapters that return the guard they were called on.
fn guard_passthrough(method: &str) -> bool {
    matches!(method, "unwrap" | "expect" | "unwrap_or_else")
}

/// Position of a lock key in the declared order, matching the last
/// segment of the access path (`self.ring` matches a declared `ring`).
fn rank_of(order: &[String], key: &str) -> Option<usize> {
    let last = key.rsplit('.').next().unwrap_or(key);
    order.iter().position(|o| o == last)
}

/// Stable key for a lock access path: `self.ring`, `state`, `m`. Call
/// results and indexed elements have no stable key (→ exempt).
fn key_of(e: &Expr) -> Option<String> {
    match e {
        Expr::Path { segs, .. } => Some(segs.join("::")),
        Expr::Field { base, name, .. } => Some(format!("{}.{name}", key_of(base)?)),
        Expr::Unary { expr, .. } | Expr::Try { expr, .. } => key_of(expr),
        _ => None,
    }
}

/// The binding released by a `drop(x)` / `mem::drop(x)` statement.
fn dropped_binding(e: &Expr) -> Option<&str> {
    if let Expr::Call { path, args, .. } = e {
        if path.last().map(String::as_str) == Some("drop") && args.len() == 1 {
            if let Expr::Path { segs, .. } = &args[0] {
                if segs.len() == 1 {
                    return Some(&segs[0]);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::source::SourceFile;

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        run_ordered(files, &[])
    }

    fn run_ordered(files: &[(&str, &str)], order: &[&str]) -> Vec<Violation> {
        let sources: Vec<SourceFile> = files.iter().map(|(p, t)| SourceFile::parse(p, t)).collect();
        let config = Config {
            lib_crates: vec!["dsp".to_string(), "obs".to_string()],
            lock_order: order.iter().map(|s| s.to_string()).collect(),
            ..Config::default()
        };
        let ws = Workspace::build(&sources, &config);
        LockDiscipline.check(&ws)
    }

    #[test]
    fn double_lock_on_same_path_is_flagged() {
        let v = run(&[(
            "crates/obs/src/a.rs",
            "pub fn f(m: &std::sync::Mutex<i32>) {\n  let a = m.lock().unwrap();\n  let b = m.lock().unwrap();\n  let _ = (a, b);\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("already held since line 2"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn two_reads_are_allowed_but_read_then_write_is_not() {
        let ok = run(&[(
            "crates/obs/src/a.rs",
            "pub fn f(rw: &std::sync::RwLock<i32>) {\n  let a = rw.read().unwrap();\n  let b = rw.read().unwrap();\n  let _ = (a, b);\n}\n",
        )]);
        assert!(ok.is_empty(), "{ok:?}");
        let bad = run(&[(
            "crates/obs/src/a.rs",
            "pub fn f(rw: &std::sync::RwLock<i32>) {\n  let a = rw.read().unwrap();\n  let b = rw.write().unwrap();\n  let _ = (a, b);\n}\n",
        )]);
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn drop_releases_the_guard() {
        let v = run(&[(
            "crates/obs/src/a.rs",
            "pub fn f(m: &std::sync::Mutex<i32>) {\n  let a = m.lock().unwrap();\n  drop(a);\n  let b = m.lock().unwrap();\n  let _ = b;\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn block_scope_releases_the_guard() {
        let v = run(&[(
            "crates/obs/src/a.rs",
            "pub fn f(m: &std::sync::Mutex<i32>) {\n  {\n    let a = m.lock().unwrap();\n    let _ = a;\n  }\n  let b = m.lock().unwrap();\n  let _ = b;\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn call_into_locking_fn_while_guard_held_is_flagged() {
        let v = run(&[(
            "crates/obs/src/a.rs",
            "pub struct S { m: std::sync::Mutex<i32>, n: std::sync::Mutex<i32> }\n\
             impl S {\n\
               fn other(&self) { let _g = self.n.lock().unwrap(); }\n\
               pub fn bad(&self) {\n    let g = self.m.lock().unwrap();\n    self.other();\n    let _ = g;\n  }\n\
             }\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("calls `other`"), "{}", v[0].message);
        assert!(v[0].message.contains("`self.m`"), "{}", v[0].message);
    }

    #[test]
    fn call_result_receivers_are_exempt() {
        let v = run(&[(
            "crates/obs/src/a.rs",
            "pub fn f() {\n  let out = std::io::stdout().lock();\n  let _ = out;\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn declared_order_violation_is_flagged() {
        let src = "pub struct S { registry: std::sync::Mutex<i32>, ring: std::sync::Mutex<i32> }\n\
             impl S {\n\
               pub fn bad(&self) {\n    let g = self.ring.lock().unwrap();\n    let h = self.registry.lock().unwrap();\n    let _ = (g, h);\n  }\n\
             }\n";
        let v = run_ordered(&[("crates/obs/src/a.rs", src)], &["registry", "ring"]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("declared lock order"),
            "{}",
            v[0].message
        );
        assert!(
            v[0].message.contains("registry before ring"),
            "{}",
            v[0].message
        );
        // Without a declared order the same code is silent (pattern 3 is
        // opt-in) — but pattern 2 still sees nothing here since no call.
        let silent = run(&[("crates/obs/src/a.rs", src)]);
        assert!(silent.is_empty(), "{silent:?}");
    }

    #[test]
    fn declared_order_respected_and_unranked_locks_unconstrained() {
        let ok = run_ordered(
            &[(
                "crates/obs/src/a.rs",
                "pub struct S { registry: std::sync::Mutex<i32>, ring: std::sync::Mutex<i32>, misc: std::sync::Mutex<i32> }\n\
                 impl S {\n\
                   pub fn good(&self) {\n    let g = self.registry.lock().unwrap();\n    let h = self.ring.lock().unwrap();\n    let _ = (g, h);\n  }\n\
                   pub fn unranked(&self) {\n    let g = self.ring.lock().unwrap();\n    let h = self.misc.lock().unwrap();\n    let _ = (g, h);\n  }\n\
                 }\n",
            )],
            &["registry", "ring"],
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn non_lib_crates_and_test_code_are_exempt() {
        let v = run(&[(
            "crates/bench/src/a.rs",
            "pub fn f(m: &std::sync::Mutex<i32>) {\n  let a = m.lock().unwrap();\n  let b = m.lock().unwrap();\n  let _ = (a, b);\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }
}
