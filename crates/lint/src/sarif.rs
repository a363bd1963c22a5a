//! SARIF 2.1.0 emission.
//!
//! Renders a scan's violations as a [SARIF] log so editors and CI
//! annotation tooling can consume the lint results. The JSON is built by
//! hand (the workspace is zero-external-dependency) and `ci.sh`
//! round-trips the artifact through the in-tree `tagbreathe_obs::json`
//! validator (`tagbreathe-lint validate-json`), so a malformed emitter
//! fails the build rather than producing a silently broken artifact.
//!
//! [SARIF]: https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html

use crate::report::{Severity, Violation};
use std::fmt::Write as _;

/// Static description of one rule for the `tool.driver.rules` table.
#[derive(Debug, Clone)]
pub struct RuleMeta {
    /// Stable rule identifier (`float-eq`, `panic-reach`, …).
    pub id: &'static str,
    /// One-line rule description.
    pub description: &'static str,
    /// Effective severity for this scan (after `lint.toml` overrides).
    pub severity: Severity,
}

/// Renders a complete SARIF 2.1.0 log for one scan.
#[must_use]
pub fn render(rules: &[RuleMeta], violations: &[Violation]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"version\": \"2.1.0\",\n",
    );
    out.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"tagbreathe-lint\",\n");
    out.push_str("          \"informationUri\": \"https://github.com/tagbreathe\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, rule) in rules.iter().enumerate() {
        let sep = if i + 1 < rules.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}, \
             \"defaultConfiguration\": {{\"level\": {}}}}}{sep}",
            json_string(rule.id),
            json_string(rule.description),
            json_string(level(rule.severity)),
        );
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, v) in violations.iter().enumerate() {
        let sev = rules
            .iter()
            .find(|r| r.id == v.rule)
            .map_or(Severity::Warn, |r| r.severity);
        let sep = if i + 1 < violations.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "        {{\"ruleId\": {}, \"level\": {}, \"message\": {{\"text\": {}}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}{sep}",
            json_string(v.rule),
            json_string(level(sev)),
            json_string(&v.message),
            json_string(&v.path),
            v.line,
        );
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// SARIF `level` for a severity.
fn level(s: Severity) -> &'static str {
    match s {
        Severity::Error => "error",
        Severity::Warn => "warning",
        Severity::Off => "none",
    }
}

/// Encodes a string as a JSON string literal (RFC 8259 escaping).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < '\u{20}' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<RuleMeta>, Vec<Violation>) {
        let rules = vec![
            RuleMeta {
                id: "lib-panic",
                description: "panicking call site in a library crate",
                severity: Severity::Error,
            },
            RuleMeta {
                id: "todo-tracker",
                description: "TODO without an issue reference",
                severity: Severity::Warn,
            },
        ];
        let violations = vec![
            Violation {
                rule: "lib-panic",
                path: "crates/dsp/src/lib.rs".to_string(),
                line: 42,
                message: "`.unwrap()` in library code — use `?` or handle the None".to_string(),
            },
            Violation {
                rule: "todo-tracker",
                path: "crates/dsp/src/filter.rs".to_string(),
                line: 7,
                message: "TODO with \"quotes\" and a\nnewline".to_string(),
            },
        ];
        (rules, violations)
    }

    #[test]
    fn output_is_valid_json() {
        let (rules, violations) = sample();
        let text = render(&rules, &violations);
        let verdict = tagbreathe_obs::json::validate(&text);
        assert!(verdict.is_ok(), "invalid JSON ({verdict:?}):\n{text}");
    }

    #[test]
    fn output_carries_required_sarif_fields() {
        let (rules, violations) = sample();
        let text = render(&rules, &violations);
        for needle in [
            "\"version\": \"2.1.0\"",
            "\"name\": \"tagbreathe-lint\"",
            "\"ruleId\": \"lib-panic\"",
            "\"level\": \"error\"",
            "\"level\": \"warning\"",
            "\"uri\": \"crates/dsp/src/lib.rs\"",
            "\"startLine\": 42",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn escaping_survives_validation() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_scan_is_still_valid() {
        let text = render(&[], &[]);
        assert!(tagbreathe_obs::json::validate(&text).is_ok(), "{text}");
    }
}
