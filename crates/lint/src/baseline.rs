//! The ratchet baseline: frozen per-(rule, file) violation counts.
//!
//! Existing debt is recorded in `lint-baseline.txt` at the workspace
//! root. A check run fails only when a (rule, file) pair exceeds its
//! recorded count — so new violations fail the build while old ones are
//! tolerated until burned down. When counts drop, `--update-baseline`
//! re-freezes at the lower level; the ratchet only tightens.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-(rule, path) allowed counts.
pub type Counts = BTreeMap<(String, String), usize>;

/// One (rule, file) pair that got worse than the baseline allows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// Rule identifier.
    pub rule: String,
    /// Workspace-relative file path.
    pub path: String,
    /// Count the baseline allows.
    pub allowed: usize,
    /// Count the scan found.
    pub actual: usize,
}

/// Parses baseline text. Lines: `rule-id<TAB>count<TAB>path`; `#` starts
/// a comment. Malformed lines are errors — a corrupted baseline must not
/// silently allow regressions.
pub fn parse(text: &str) -> Result<Counts, String> {
    let mut counts = Counts::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (rule, count, path) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(r), Some(c), Some(p), None) => (r, c, p),
            _ => {
                return Err(format!(
                    "lint-baseline.txt:{}: expected `rule<TAB>count<TAB>path`",
                    idx + 1
                ))
            }
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("lint-baseline.txt:{}: bad count {count:?}", idx + 1))?;
        counts.insert((rule.to_string(), path.to_string()), count);
    }
    Ok(counts)
}

/// Renders counts back to baseline text (sorted, stable across runs).
pub fn render(counts: &Counts) -> String {
    let mut out = String::from(
        "# tagbreathe-lint ratchet baseline — frozen per-(rule, file) violation counts.\n\
         # A build fails only when a count here is exceeded. To tighten after a\n\
         # burn-down: cargo run -p tagbreathe-lint -- check --update-baseline\n",
    );
    for ((rule, path), count) in counts {
        let _ = writeln!(out, "{rule}\t{count}\t{path}");
    }
    out
}

/// Compares a scan against the baseline. Returns the pairs that got
/// worse. Pairs absent from the baseline allow zero violations.
pub fn regressions(current: &Counts, baseline: &Counts) -> Vec<Regression> {
    let mut out = Vec::new();
    for ((rule, path), &actual) in current {
        let allowed = baseline
            .get(&(rule.clone(), path.clone()))
            .copied()
            .unwrap_or(0);
        if actual > allowed {
            out.push(Regression {
                rule: rule.clone(),
                path: path.clone(),
                allowed,
                actual,
            });
        }
    }
    out
}

/// Baseline entries now over-provisioned (count dropped or file gone) —
/// candidates for `--update-baseline`.
pub fn slack(current: &Counts, baseline: &Counts) -> Vec<(String, String, usize, usize)> {
    let mut out = Vec::new();
    for ((rule, path), &allowed) in baseline {
        let actual = current
            .get(&(rule.clone(), path.clone()))
            .copied()
            .unwrap_or(0);
        if actual < allowed {
            out.push((rule.clone(), path.clone(), allowed, actual));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(&str, &str, usize)]) -> Counts {
        entries
            .iter()
            .map(|&(r, p, c)| ((r.to_string(), p.to_string()), c))
            .collect()
    }

    #[test]
    fn round_trip() -> Result<(), String> {
        let c = counts(&[("lib-panic", "crates/dsp/src/fft.rs", 3)]);
        let parsed = parse(&render(&c))?;
        assert_eq!(parsed, c);
        Ok(())
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(parse("lib-panic 3 path.rs\n").is_err(), "spaces not tabs");
        assert!(parse("lib-panic\tthree\tpath.rs\n").is_err());
    }

    #[test]
    fn regression_detection() {
        let base = counts(&[("a", "x.rs", 2)]);
        let same = counts(&[("a", "x.rs", 2)]);
        let worse = counts(&[("a", "x.rs", 3)]);
        let new_file = counts(&[("a", "x.rs", 2), ("a", "y.rs", 1)]);
        assert!(regressions(&same, &base).is_empty());
        assert_eq!(regressions(&worse, &base).len(), 1);
        let r = &regressions(&new_file, &base)[0];
        assert_eq!((r.path.as_str(), r.allowed, r.actual), ("y.rs", 0, 1));
    }

    #[test]
    fn improvement_is_not_a_regression_but_is_slack() {
        let base = counts(&[("a", "x.rs", 5)]);
        let better = counts(&[("a", "x.rs", 1)]);
        assert!(regressions(&better, &base).is_empty());
        assert_eq!(
            slack(&better, &base),
            vec![("a".into(), "x.rs".into(), 5, 1)]
        );
    }
}
