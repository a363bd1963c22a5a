//! Violation and severity types plus plain-text rendering.

use std::collections::BTreeMap;
use std::fmt;

/// How a rule's findings are enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// New findings (beyond the ratchet baseline) fail the build.
    Error,
    /// Findings are reported and tracked in the baseline but never fail.
    Warn,
    /// Rule disabled.
    Off,
}

impl Severity {
    /// Parses a config value.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "error" => Some(Severity::Error),
            "warn" => Some(Severity::Warn),
            "off" => Some(Severity::Off),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warn => write!(f, "warn"),
            Severity::Off => write!(f, "off"),
        }
    }
}

/// One rule finding at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier, e.g. `float-eq`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// Human-readable description of the specific finding.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Aggregates violations into per-(rule, file) counts — the currency of
/// the ratchet baseline.
pub fn count_by_rule_and_file(violations: &[Violation]) -> BTreeMap<(String, String), usize> {
    let mut counts = BTreeMap::new();
    for v in violations {
        *counts
            .entry((v.rule.to_string(), v.path.clone()))
            .or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_round_trip() {
        for s in [Severity::Error, Severity::Warn, Severity::Off] {
            assert_eq!(Severity::parse(&s.to_string()), Some(s));
        }
        assert_eq!(Severity::parse("fatal"), None);
    }

    #[test]
    fn counting_groups_by_rule_and_file() {
        let v = |rule, path: &str| Violation {
            rule,
            path: path.into(),
            line: 1,
            message: String::new(),
        };
        let counts = count_by_rule_and_file(&[v("a", "x.rs"), v("a", "x.rs"), v("b", "x.rs")]);
        assert_eq!(counts[&("a".into(), "x.rs".into())], 2);
        assert_eq!(counts[&("b".into(), "x.rs".into())], 1);
    }
}
