//! Scan orchestration: walk the workspace, lex every file, run every
//! enabled per-file rule, parse the files into the workspace model for
//! the semantic rules, and reconcile the results against the ratchet
//! baseline.

use crate::baseline::{self, Counts, Regression};
use crate::callgraph::Workspace;
use crate::config::Config;
use crate::report::{count_by_rule_and_file, Severity, Violation};
use crate::rules::{all_rules, semantic_rules};
use crate::source::SourceFile;
use crate::walk::rust_files;
use std::fs;
use std::io;
use std::path::Path;

/// Name of the config file at the workspace root.
pub const CONFIG_FILE: &str = "lint.toml";
/// Name of the ratchet baseline at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.txt";

/// Everything a scan produced.
#[derive(Debug)]
pub struct ScanOutcome {
    /// All violations from error- and warn-level rules.
    pub violations: Vec<Violation>,
    /// Violations of rules enforced at [`Severity::Error`].
    pub enforced: Vec<Violation>,
    /// Per-(rule, file) counts of the enforced violations.
    pub enforced_counts: Counts,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Runs all rules over the workspace rooted at `root`.
///
/// # Errors
///
/// Returns an I/O error if the tree cannot be walked or a file read.
pub fn scan(root: &Path, config: &Config) -> io::Result<ScanOutcome> {
    let rules = all_rules();
    let mut violations = Vec::new();
    let mut enforced = Vec::new();
    let files = rust_files(root, &config.skip_dirs)?;
    let files_scanned = files.len();
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        let text = fs::read_to_string(root.join(rel))?;
        let file = SourceFile::parse(&rel.to_string_lossy(), &text);
        for rule in &rules {
            let severity = config.severity_for(rule.id(), rule.default_severity());
            if severity == Severity::Off {
                continue;
            }
            let found = rule.check(&file);
            if severity == Severity::Error {
                enforced.extend(found.iter().cloned());
            }
            violations.extend(found);
        }
        sources.push(file);
    }
    // Semantic rules run once over the whole parsed workspace.
    let ws = Workspace::build(&sources, config);
    for rule in semantic_rules() {
        let severity = config.severity_for(rule.id(), rule.default_severity());
        if severity == Severity::Off {
            continue;
        }
        let found = rule.check(&ws);
        if severity == Severity::Error {
            enforced.extend(found.iter().cloned());
        }
        violations.extend(found);
    }
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    enforced.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    let enforced_counts = count_by_rule_and_file(&enforced);
    Ok(ScanOutcome {
        violations,
        enforced,
        enforced_counts,
        files_scanned,
    })
}

/// Parses the whole workspace into the semantic model without running
/// any rules — used by the `atomics` CLI report, which wants the raw
/// [`crate::atomics::analyze`] report rather than violations.
///
/// # Errors
///
/// Returns an I/O error if the tree cannot be walked or a file read.
pub fn load_workspace(root: &Path, config: &Config) -> io::Result<Workspace> {
    let files = rust_files(root, &config.skip_dirs)?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        let text = fs::read_to_string(root.join(rel))?;
        sources.push(SourceFile::parse(&rel.to_string_lossy(), &text));
    }
    Ok(Workspace::build(&sources, config))
}

/// Loads `lint.toml` from the root (defaults if absent).
///
/// # Errors
///
/// Returns a message for unreadable or invalid config.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join(CONFIG_FILE);
    if !path.exists() {
        return Ok(Config::default());
    }
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Config::parse(&text).map_err(|e| e.to_string())
}

/// Loads the ratchet baseline from the root (empty if absent).
///
/// # Errors
///
/// Returns a message for an unreadable or malformed baseline.
pub fn load_baseline(root: &Path) -> Result<Counts, String> {
    let path = root.join(BASELINE_FILE);
    if !path.exists() {
        return Ok(Counts::new());
    }
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    baseline::parse(&text)
}

/// The result of a full `check` run.
#[derive(Debug)]
pub struct CheckResult {
    /// The scan behind the comparison.
    pub outcome: ScanOutcome,
    /// (rule, file) pairs over their baseline allowance.
    pub regressions: Vec<Regression>,
    /// Baseline entries that are now over-provisioned.
    pub slack: Vec<(String, String, usize, usize)>,
}

impl CheckResult {
    /// A check passes when nothing regressed beyond the baseline.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Scans and compares against the checked-in baseline.
///
/// # Errors
///
/// Returns a message for I/O, config or baseline problems.
pub fn check(root: &Path) -> Result<CheckResult, String> {
    let config = load_config(root)?;
    let base = load_baseline(root)?;
    let outcome = scan(root, &config).map_err(|e| format!("scan failed: {e}"))?;
    let regressions = baseline::regressions(&outcome.enforced_counts, &base);
    let slack = baseline::slack(&outcome.enforced_counts, &base);
    Ok(CheckResult {
        outcome,
        regressions,
        slack,
    })
}

/// Violations in `outcome` for the (rule, file) pairs that regressed —
/// what to print so the developer sees concrete lines, not just counts.
pub fn regressed_violations<'a>(
    outcome: &'a ScanOutcome,
    regressions: &[Regression],
) -> Vec<&'a Violation> {
    outcome
        .enforced
        .iter()
        .filter(|v| {
            regressions
                .iter()
                .any(|r| r.rule == v.rule && r.path == v.path)
        })
        .collect()
}
