//! `atomics` — atomic call sites must follow the ordering protocol
//! declared for their atomic in `[atomics]` in `lint.toml`.
//!
//! The rule runs [`crate::atomics::analyze`] with an empty active-cfg
//! set (the shipped configuration — `--cfg sync_mutant` is only
//! reachable through the dedicated CLI subcommand, which is how CI
//! proves the seeded ordering mutant is caught). Each finding carries
//! the witness call chain from the nearest public entry point, like
//! `panic-reach`.

use crate::atomics;
use crate::callgraph::Workspace;
use crate::report::{Severity, Violation};
use crate::rules::SemanticRule;

/// See the module docs.
pub struct Atomics;

impl SemanticRule for Atomics {
    fn id(&self) -> &'static str {
        "atomics"
    }

    fn description(&self) -> &'static str {
        "atomic call site outside its declared [atomics] ordering protocol"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ws: &Workspace) -> Vec<Violation> {
        let report = atomics::analyze(ws, &[]);
        report
            .findings
            .into_iter()
            .map(|f| {
                let witness = if f.witness.is_empty() {
                    String::new()
                } else {
                    format!(": {}", f.witness.join(" -> "))
                };
                Violation {
                    rule: "atomics",
                    path: f.path,
                    line: f.line,
                    message: format!("[{}] {}{witness}", f.kind.tag(), f.message),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::source::SourceFile;

    #[test]
    fn violations_carry_kind_tag_and_witness() {
        let src = "pub struct S { hits: AtomicU64 }\n\
             impl S {\n\
               fn inner(&self) { self.hits.fetch_add(1, Ordering::SeqCst); }\n\
               pub fn bump(&self) { self.inner(); }\n\
             }\n";
        let sources = vec![SourceFile::parse("crates/tagbreathe/src/a.rs", src)];
        let config = Config::parse("[atomics]\nS.hits = \"relaxed\"\n").unwrap_or_default();
        let ws = Workspace::build(&sources, &config);
        let v = Atomics.check(&ws);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("[seqcst-overkill]"),
            "{}",
            v[0].message
        );
        assert!(
            v[0].message.contains("S::bump -> S::inner"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn no_declarations_no_violations() {
        let sources = vec![SourceFile::parse(
            "crates/tagbreathe/src/a.rs",
            "pub fn f() {}\n",
        )];
        let ws = Workspace::build(&sources, &Config::default());
        assert!(Atomics.check(&ws).is_empty());
    }
}
