//! Hand-parsed configuration (`lint.toml` at the workspace root).
//!
//! The workspace is zero-external-dependency, so no TOML crate: this
//! parses the small INI-style subset the lint engine needs — `[section]`
//! headers and `key = "value"` pairs, `#` comments, blank lines. Unknown
//! keys are rejected so typos fail loudly instead of silently disabling
//! a rule — including a `[severity]` key that names no shipped rule.

use crate::report::Severity;
use crate::rules;
use std::collections::BTreeMap;

/// A declared unit-conversion function: calling `name(x)` takes a value
/// in `from` units and yields one in `to` units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conversion {
    /// Function name, e.g. `hz_to_bpm`.
    pub name: String,
    /// Unit of the argument.
    pub from: String,
    /// Unit of the result.
    pub to: String,
}

/// Physical-units configuration for the `unit-dataflow` rule
/// (`[units]` in `lint.toml`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitsConfig {
    /// Recognised unit suffixes, without the underscore: an identifier
    /// `rate_hz` (or a call to a fn named `…_hz`) carries unit `hz`.
    pub suffixes: Vec<String>,
    /// Declared conversion functions.
    pub conversions: Vec<Conversion>,
}

impl Default for UnitsConfig {
    fn default() -> Self {
        UnitsConfig {
            suffixes: ["rad", "hz", "bpm", "m", "s", "dbm"]
                .map(String::from)
                .to_vec(),
            conversions: Vec::new(),
        }
    }
}

impl UnitsConfig {
    /// The unit carried by an identifier, by suffix convention. The whole
    /// name matching a multi-letter suffix also counts (`hz` alone is in
    /// Hz, but a variable named `m` is not in metres — single letters are
    /// too common as ordinary names). Longest suffix wins (`_dbm` before
    /// `_m`).
    pub fn unit_of_name(&self, name: &str) -> Option<&str> {
        let mut best: Option<&str> = None;
        for s in &self.suffixes {
            let hit = (name == s && s.len() >= 2) || name.ends_with(&format!("_{s}"));
            if hit && best.is_none_or(|b| s.len() > b.len()) {
                best = Some(s);
            }
        }
        best
    }

    /// The conversion declared for a function name, if any.
    pub fn conversion_for(&self, fn_name: &str) -> Option<&Conversion> {
        self.conversions.iter().find(|c| c.name == fn_name)
    }
}

/// NaN-guard configuration for the `nan-guard` rule
/// (`[nanguard]` in `lint.toml`). Empty paths disable the rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NanGuardConfig {
    /// Workspace-relative path prefixes the float-dataflow pass covers
    /// (signal-processing code where a NaN corrupts fusion weights).
    pub paths: Vec<String>,
}

/// The declared ordering protocol for one named atomic
/// (`[atomics]` in `lint.toml`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// A cross-thread publication point: every store must be `Release`
    /// (it publishes data written before it) and every load `Acquire`
    /// (it observes that data on another thread).
    ReleaseAcquire,
    /// A standalone counter or payload cell that carries no
    /// synchronisation of its own: all accesses must be `Relaxed`.
    Relaxed,
}

impl Protocol {
    /// Parses a declaration value: `"relaxed"` or
    /// `"publish(Release) / observe(Acquire)"` (whitespace-insensitive).
    #[must_use]
    pub fn parse(value: &str) -> Option<Protocol> {
        let norm: String = value
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect::<String>()
            .to_ascii_lowercase();
        match norm.as_str() {
            "relaxed" => Some(Protocol::Relaxed),
            "publish(release)/observe(acquire)" => Some(Protocol::ReleaseAcquire),
            _ => None,
        }
    }

    /// The canonical declaration text, for diagnostics.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Protocol::ReleaseAcquire => "publish(Release) / observe(Acquire)",
            Protocol::Relaxed => "relaxed",
        }
    }
}

/// Atomics-discipline configuration for the `atomics` rule
/// (`[atomics]` in `lint.toml`). Each key names one atomic, either as
/// `Type.member` (a struct field, or an accessor method returning the
/// atomic) or as a bare member/binding name; the value declares its
/// protocol. No declarations disables the rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtomicsConfig {
    /// Declarations in file order: key → protocol.
    pub decls: Vec<(String, Protocol)>,
    /// Crates whose atomic call sites the pass skips (`exempt-crates`):
    /// e.g. `syncmodel`, whose model shim intentionally mirrors the
    /// `std::sync::atomic` API.
    pub exempt: Vec<String>,
}

impl AtomicsConfig {
    /// Looks up the protocol declared for `Owner.member`, trying the
    /// qualified key first and then the bare member name.
    #[must_use]
    pub fn protocol_for(&self, owner: &str, member: &str) -> Option<(&str, Protocol)> {
        let qualified = format!("{owner}.{member}");
        self.decls
            .iter()
            .find(|(k, _)| *k == qualified)
            .or_else(|| self.decls.iter().find(|(k, _)| k == member))
            .map(|(k, p)| (k.as_str(), *p))
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Per-rule severity overrides (rule id → severity).
    pub severity: BTreeMap<String, Severity>,
    /// Crates held to library standards: the semantic passes scan only
    /// these, and each one's root denies the panic and doc lints.
    pub lib_crates: Vec<String>,
    /// Directory names pruned from the workspace walk.
    pub skip_dirs: Vec<String>,
    /// Physical-units checking configuration.
    pub units: UnitsConfig,
    /// Declared lock-acquisition order (`[locks] order`), coarsest lock
    /// first. Empty means no ordering is enforced.
    pub lock_order: Vec<String>,
    /// NaN-guard covered paths.
    pub nanguard: NanGuardConfig,
    /// Declared atomic ordering protocols.
    pub atomics: AtomicsConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            severity: BTreeMap::new(),
            lib_crates: ["dsp", "rfchannel", "breathing", "epcgen2", "tagbreathe"]
                .map(String::from)
                .to_vec(),
            skip_dirs: ["target", ".git", "fixtures"].map(String::from).to_vec(),
            units: UnitsConfig::default(),
            lock_order: Vec::new(),
            nanguard: NanGuardConfig::default(),
            atomics: AtomicsConfig::default(),
        }
    }
}

/// A config-file problem, with the 1-indexed line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    pub(crate) line: usize,
    pub(crate) message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parses configuration text. See the module docs for the grammar.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut config = Config::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                let known = [
                    "severity", "engine", "units", "locks", "nanguard", "atomics",
                ];
                if !known.contains(&section.as_str()) {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown section [{section}]"),
                    });
                }
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| ConfigError {
                line: lineno,
                message: "expected `key = \"value\"`".to_string(),
            })?;
            let key = key.trim();
            let value = value.trim().trim_matches('"');
            match section.as_str() {
                "severity" => {
                    if !is_rule_id(key) {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("[severity] key {key:?} names no rule"),
                        });
                    }
                    let sev = Severity::parse(value).ok_or_else(|| ConfigError {
                        line: lineno,
                        message: format!(
                            "invalid severity {value:?} (expected error, warn or off)"
                        ),
                    })?;
                    config.severity.insert(key.to_string(), sev);
                }
                "engine" => match key {
                    "lib-crates" => config.lib_crates = split_list(value),
                    "skip-dirs" => config.skip_dirs = split_list(value),
                    _ => {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("unknown engine key {key:?}"),
                        })
                    }
                },
                "units" => match key {
                    "suffixes" => config.units.suffixes = split_list(value),
                    "conversions" => {
                        config.units.conversions = parse_conversions(value, lineno)?;
                    }
                    _ => {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("unknown units key {key:?}"),
                        })
                    }
                },
                "locks" => match key {
                    "order" => config.lock_order = split_list(value),
                    _ => {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("unknown locks key {key:?}"),
                        })
                    }
                },
                "nanguard" => match key {
                    "paths" => config.nanguard.paths = split_list(value),
                    _ => {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("unknown nanguard key {key:?}"),
                        })
                    }
                },
                "atomics" if key == "exempt-crates" => {
                    config.atomics.exempt = split_list(value);
                }
                "atomics" => {
                    let proto = Protocol::parse(value).ok_or_else(|| ConfigError {
                        line: lineno,
                        message: format!(
                            "invalid atomics protocol {value:?} (expected \"relaxed\" or \
                             \"publish(Release) / observe(Acquire)\")"
                        ),
                    })?;
                    if config.atomics.decls.iter().any(|(k, _)| k == key) {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("duplicate atomics declaration {key:?}"),
                        });
                    }
                    config.atomics.decls.push((key.to_string(), proto));
                }
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        message: "key outside any [section]".to_string(),
                    })
                }
            }
        }
        Ok(config)
    }

    /// Severity for a rule, falling back to the rule's default.
    pub fn severity_for(&self, rule: &str, default: Severity) -> Severity {
        self.severity.get(rule).copied().unwrap_or(default)
    }
}

/// Whether `id` names a shipped token or semantic rule.
fn is_rule_id(id: &str) -> bool {
    rules::all_rules().iter().any(|r| r.id() == id)
        || rules::semantic_rules().iter().any(|r| r.id() == id)
}

fn split_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Parses `name: from -> to` conversion entries, comma-separated.
fn parse_conversions(value: &str, lineno: usize) -> Result<Vec<Conversion>, ConfigError> {
    let mut out = Vec::new();
    for entry in value.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let parsed = entry.split_once(':').and_then(|(name, rest)| {
            let (from, to) = rest.split_once("->")?;
            Some(Conversion {
                name: name.trim().to_string(),
                from: from.trim().to_string(),
                to: to.trim().to_string(),
            })
        });
        match parsed {
            Some(c) if !c.name.is_empty() && !c.from.is_empty() && !c.to.is_empty() => {
                out.push(c);
            }
            _ => {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("invalid conversion {entry:?} (expected `name: from -> to`)"),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_overrides() -> Result<(), ConfigError> {
        let cfg = Config::parse(
            "# comment\n\n[severity]\nfloat-eq = \"warn\"\n[engine]\nlib-crates = \"dsp, tagbreathe\"\n",
        )?;
        assert_eq!(
            cfg.severity_for("float-eq", Severity::Error),
            Severity::Warn
        );
        assert_eq!(cfg.lib_crates, vec!["dsp", "tagbreathe"]);
        Ok(())
    }

    #[test]
    fn parses_semantic_pass_sections() -> Result<(), ConfigError> {
        let cfg = Config::parse(
            "[locks]\norder = \"registry, ring\"\n\
             [nanguard]\npaths = \"crates/dsp, crates/tagbreathe/src/quality.rs\"\n",
        )?;
        assert_eq!(cfg.lock_order, vec!["registry", "ring"]);
        assert_eq!(cfg.nanguard.paths.len(), 2);
        Ok(())
    }

    #[test]
    fn parses_atomics_declarations() -> Result<(), ConfigError> {
        let cfg = Config::parse(
            "[atomics]\n\
             SpscRing.head = \"publish(Release) / observe(Acquire)\"\n\
             SpscRing.slot = \"relaxed\"\n\
             stop = \"publish(Release)/observe(Acquire)\"\n",
        )?;
        assert_eq!(cfg.atomics.decls.len(), 3);
        assert_eq!(
            cfg.atomics.protocol_for("SpscRing", "head"),
            Some(("SpscRing.head", Protocol::ReleaseAcquire))
        );
        assert_eq!(
            cfg.atomics.protocol_for("SpscRing", "slot"),
            Some(("SpscRing.slot", Protocol::Relaxed))
        );
        // Bare keys match the member regardless of owner.
        assert_eq!(
            cfg.atomics.protocol_for("ServerHandle", "stop"),
            Some(("stop", Protocol::ReleaseAcquire))
        );
        assert_eq!(cfg.atomics.protocol_for("SpscRing", "mask"), None);
        Ok(())
    }

    #[test]
    fn invalid_atomics_protocol_rejected() {
        assert!(Config::parse("[atomics]\nhead = \"seqcst\"\n").is_err());
        assert!(Config::parse("[atomics]\nh = \"relaxed\"\nh = \"relaxed\"\n").is_err());
    }

    #[test]
    fn unknown_keys_in_new_sections_rejected() {
        assert!(Config::parse("[nanguard]\npathz = \"x\"\n").is_err());
        assert!(Config::parse("[locks]\nordering = \"x\"\n").is_err());
    }

    #[test]
    fn unknown_section_rejected() {
        let err = Config::parse("[rulez]\n").err();
        assert_eq!(err.map(|e| e.line), Some(1));
        // The sections of the retired passes are unknown too.
        assert!(Config::parse("[hotpath]\nroots = \"Engine::push\"\n").is_err());
        assert!(Config::parse("[shard]\nroots = \"Engine\"\n").is_err());
    }

    #[test]
    fn severity_key_naming_no_rule_rejected_with_its_line() {
        let err = Config::parse("[severity]\nfloat-eq = \"warn\"\nflaot-eq = \"off\"\n").err();
        assert_eq!(err.as_ref().map(|e| e.line), Some(3));
        assert!(
            err.is_some_and(|e| e.to_string().contains("flaot-eq")),
            "the error names the key"
        );
        // A retired rule's key is stale, not silently ignored.
        assert!(Config::parse("[severity]\nhot-path-cost = \"error\"\n").is_err());
        assert!(Config::parse("[severity]\natomics = \"warn\"\n").is_ok());
    }

    #[test]
    fn invalid_severity_rejected() {
        assert!(Config::parse("[severity]\nfloat-eq = \"fatal\"\n").is_err());
    }

    #[test]
    fn default_used_when_not_overridden() -> Result<(), ConfigError> {
        let cfg = Config::parse("")?;
        assert_eq!(
            cfg.severity_for("float-eq", Severity::Error),
            Severity::Error
        );
        assert!(cfg.lib_crates.contains(&"dsp".to_string()));
        Ok(())
    }
}
