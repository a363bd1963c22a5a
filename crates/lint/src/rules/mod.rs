//! The rule registry.
//!
//! Each rule is a token-stream pattern matcher over one [`SourceFile`].
//! Rules are deliberately syntactic — no type inference — so every rule
//! documents the heuristic it uses and relies on the ratchet baseline to
//! absorb pre-existing (reviewed) findings.

mod allow_audit;
mod atomics_rule;
mod float_eq;
mod lock_discipline;
mod lossy_cast;
mod must_use;
mod nan_guard;
mod panic_reach;
mod unit_flow;

use crate::callgraph::Workspace;
use crate::report::{Severity, Violation};
use crate::source::SourceFile;

pub use allow_audit::AllowAudit;
pub use atomics_rule::Atomics;
pub use float_eq::FloatEq;
pub use lock_discipline::LockDiscipline;
pub use lossy_cast::LossyCast;
pub use must_use::MissingMustUse;
pub use nan_guard::NanGuard;
pub use panic_reach::PanicReach;
pub use unit_flow::UnitDataflow;

/// A lint rule.
pub trait Rule {
    /// Stable identifier used in the baseline and config.
    fn id(&self) -> &'static str;
    /// One-line description for `tagbreathe-lint rules`.
    fn description(&self) -> &'static str;
    /// Enforcement level when not overridden in `lint.toml`.
    fn default_severity(&self) -> Severity;
    /// Scans one file.
    fn check(&self, file: &SourceFile) -> Vec<Violation>;
}

/// All shipped rules, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(FloatEq),
        Box::new(LossyCast),
        Box::new(AllowAudit),
        Box::new(MissingMustUse),
    ]
}

/// A semantic rule: runs once over the whole parsed workspace (item
/// model + call graph) instead of per file.
pub trait SemanticRule {
    /// Stable identifier used in the baseline and config.
    fn id(&self) -> &'static str;
    /// One-line description for `tagbreathe-lint rules`.
    fn description(&self) -> &'static str;
    /// Enforcement level when not overridden in `lint.toml`.
    fn default_severity(&self) -> Severity;
    /// Scans the workspace.
    fn check(&self, ws: &Workspace) -> Vec<Violation>;
}

/// All shipped semantic rules, in reporting order.
pub fn semantic_rules() -> Vec<Box<dyn SemanticRule>> {
    vec![
        Box::new(PanicReach),
        Box::new(UnitDataflow),
        Box::new(LockDiscipline),
        Box::new(NanGuard),
        Box::new(Atomics),
    ]
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Runs one rule over inline source text at a given pseudo-path.
    pub(crate) fn run(rule: &dyn Rule, rel_path: &str, source: &str) -> Vec<Violation> {
        rule.check(&SourceFile::parse(rel_path, source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique() {
        let mut ids: Vec<&str> = all_rules().iter().map(|r| r.id()).collect();
        ids.extend(semantic_rules().iter().map(|r| r.id()));
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate rule id");
    }
}
