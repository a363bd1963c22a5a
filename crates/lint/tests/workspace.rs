//! Integration tests: the lint engine run over this very workspace.
//!
//! * the shipped tree must have no violations beyond the ratchet
//!   baseline (this is what keeps `ci.sh` green);
//! * a fixture with fresh violations must make `check` fail — proving
//!   the ratchet actually bites;
//! * the real `tagbreathe-lint` binary must exit 0 on the shipped tree
//!   and non-zero on a tree with a new violation;
//! * every library crate's root must hand the panic, doc and `unsafe`
//!   standards to rustc and clippy with a crate-level `deny`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use tagbreathe_lint::engine;
use tagbreathe_lint::lexer::{lex, TokenKind};
use tagbreathe_lint::report::Severity;
use tagbreathe_lint::rules::all_rules;
use tagbreathe_lint::source::SourceFile;

/// The workspace root, two levels above this crate.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn shipped_tree_has_no_regressions_beyond_baseline() {
    let result = engine::check(&workspace_root()).expect("check runs");
    assert!(
        result.passed(),
        "new lint violations beyond lint-baseline.txt:\n{:#?}",
        result.regressions
    );
}

#[test]
fn shipped_tree_scan_covers_the_whole_workspace() {
    let config = engine::load_config(&workspace_root()).expect("config loads");
    let outcome = engine::scan(&workspace_root(), &config).expect("scan runs");
    // The workspace has ~100 source files; a broken walker returning a
    // handful would make the ratchet trivially green.
    assert!(
        outcome.files_scanned > 80,
        "only {} files scanned — walker broken?",
        outcome.files_scanned
    );
}

#[test]
fn baseline_has_no_slack_left_uncommitted() {
    // The checked-in baseline must stay tight: if a burn-down shrank the
    // real counts, --update-baseline must be re-run before committing.
    let result = engine::check(&workspace_root()).expect("check runs");
    assert!(
        result.slack.is_empty(),
        "baseline is looser than reality — run `cargo run -p tagbreathe-lint -- check --update-baseline`:\n{:#?}",
        result.slack
    );
}

/// A fixture file exercising every error-severity rule at least once.
const VIOLATING_FIXTURE: &str = r#"
pub fn compare(x: f64) -> bool {
    x == 0.3
}

pub fn take(x: Option<u8>) -> u8 {
    x.unwrap()
}

pub fn narrow(x: f64) -> f32 {
    x as f32
}

#[allow(dead_code)]
fn silenced() {}

pub fn pure_energy(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}
"#;

#[test]
fn fixture_triggers_every_error_rule() {
    let file = SourceFile::parse("crates/dsp/src/fixture.rs", VIOLATING_FIXTURE);
    let fired: Vec<&str> = all_rules()
        .iter()
        .filter(|r| r.default_severity() == Severity::Error)
        .filter(|r| !r.check(&file).is_empty())
        .map(|r| r.id())
        .collect();
    assert_eq!(
        fired,
        vec!["float-eq", "lossy-cast", "allow-attr", "missing-must-use"]
    );
}

/// The lints every library crate root denies, so that rustc (docs, and
/// `unsafe` code, which a `static mut` needs) and clippy (panicking calls)
/// hold the crate to library standards.
const CRATE_ROOT_DENY: [&str; 7] = [
    "missing_docs",
    "unreachable_pub",
    "unsafe_code",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
];

/// The lint paths named by the crate-level `#![deny(…)]` attributes in
/// `source`, e.g. `missing_docs` or `clippy::panic`, and by its
/// `#![forbid(…)]` ones, which are stricter still.
fn crate_level_denies(source: &str) -> Vec<String> {
    let code: Vec<TokenKind> = lex(source)
        .into_iter()
        .map(|t| t.kind)
        .filter(|k| !matches!(k, TokenKind::Comment(_)))
        .collect();
    let mut denied = Vec::new();
    for (i, head) in code.windows(5).enumerate() {
        let opens = head[0].is_punct("#")
            && head[1].is_punct("!")
            && head[2].is_punct("[")
            && (head[3].is_ident("deny") || head[3].is_ident("forbid"))
            && head[4].is_punct("(");
        if !opens {
            continue;
        }
        let mut path = String::new();
        for kind in &code[i + 5..] {
            match kind {
                TokenKind::Ident(name) => path.push_str(name),
                TokenKind::Punct("::") => path.push_str("::"),
                TokenKind::Punct(",") => denied.push(std::mem::take(&mut path)),
                _ => break,
            }
        }
        if !path.is_empty() {
            denied.push(path);
        }
    }
    denied
}

#[test]
fn library_crate_roots_deny_the_panic_and_doc_lints() {
    let root = workspace_root();
    let config = engine::load_config(&root).expect("config loads");
    assert!(
        !config.lib_crates.is_empty(),
        "lint.toml must list the library crates"
    );
    let mut roots: Vec<PathBuf> = config
        .lib_crates
        .iter()
        .map(|name| root.join("crates").join(name).join("src/lib.rs"))
        .collect();
    roots.push(root.join("crates/lint/src/main.rs"));
    for path in &roots {
        let source = fs::read_to_string(path).expect("crate root readable");
        let denied = crate_level_denies(&source);
        for lint in CRATE_ROOT_DENY {
            assert!(
                denied.iter().any(|d| d == lint),
                "{} must deny `{lint}` at crate level; it denies {denied:?}",
                path.display()
            );
        }
    }
}

#[test]
fn semantic_error_rules_are_registered() {
    let ids: Vec<&str> = tagbreathe_lint::rules::semantic_rules()
        .iter()
        .map(|r| r.id())
        .collect();
    assert_eq!(
        ids,
        vec![
            "panic-reach",
            "unit-dataflow",
            "lock-discipline",
            "nan-guard",
            "atomics"
        ]
    );
    for rule in tagbreathe_lint::rules::semantic_rules() {
        assert_eq!(rule.default_severity(), Severity::Error, "{}", rule.id());
    }
}

#[test]
fn declared_conversions_exist_in_the_workspace() {
    // Every conversion declared in lint.toml must be a real function —
    // otherwise the unit checker trusts a conversion nobody wrote.
    let root = workspace_root();
    let config = engine::load_config(&root).expect("config loads");
    assert!(
        !config.units.conversions.is_empty(),
        "workspace lint.toml must declare unit conversions"
    );
    let files =
        tagbreathe_lint::walk::rust_files(&root, &config.skip_dirs).expect("walk workspace");
    let mut all_text = String::new();
    for rel in &files {
        all_text.push_str(&fs::read_to_string(root.join(rel)).expect("read source"));
    }
    for c in &config.units.conversions {
        assert!(
            all_text.contains(&format!("fn {}(", c.name)),
            "conversion `{}` declared in lint.toml but not defined anywhere",
            c.name
        );
        assert!(
            config.units.suffixes.contains(&c.from) && config.units.suffixes.contains(&c.to),
            "conversion `{}` uses undeclared unit suffixes ({} -> {})",
            c.name,
            c.from,
            c.to
        );
    }
}

/// Builds a throwaway mini-workspace containing one freshly violating
/// file and no baseline allowance for it.
fn scratch_tree(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tagbreathe-lint-test-{}-{name}",
        std::process::id()
    ));
    let src_dir = dir.join("crates/dsp/src");
    fs::create_dir_all(&src_dir).expect("mkdir scratch tree");
    fs::write(src_dir.join("bad.rs"), VIOLATING_FIXTURE).expect("write fixture");
    fs::write(dir.join("lint-baseline.txt"), "").expect("write empty baseline");
    dir
}

#[test]
fn check_fails_on_new_violation_and_engine_agrees() {
    let dir = scratch_tree("engine");
    let result = engine::check(&dir).expect("check runs on scratch tree");
    assert!(!result.passed(), "fresh violations must fail the ratchet");
    assert!(
        result.regressions.iter().any(|r| r.rule == "float-eq"),
        "{:#?}",
        result.regressions
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_exits_nonzero_on_new_violation_and_zero_on_shipped_tree() {
    let binary = env!("CARGO_BIN_EXE_tagbreathe-lint");

    let dir = scratch_tree("binary");
    let bad = Command::new(binary)
        .args(["check", "--root"])
        .arg(&dir)
        .output()
        .expect("run lint binary on scratch tree");
    assert!(
        !bad.status.success(),
        "binary must exit non-zero on a new violation; stdout: {}",
        String::from_utf8_lossy(&bad.stdout)
    );
    fs::remove_dir_all(&dir).ok();

    let good = Command::new(binary)
        .args(["check", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run lint binary on workspace");
    assert!(
        good.status.success(),
        "binary must exit zero on the shipped tree; stderr: {}",
        String::from_utf8_lossy(&good.stderr)
    );
}

#[test]
fn update_baseline_refreezes_scratch_tree() {
    let binary = env!("CARGO_BIN_EXE_tagbreathe-lint");
    let dir = scratch_tree("refreeze");
    let update = Command::new(binary)
        .args(["check", "--update-baseline", "--root"])
        .arg(&dir)
        .output()
        .expect("run --update-baseline");
    assert!(update.status.success());
    // After refreezing, the same tree passes.
    let again = Command::new(binary)
        .args(["check", "--root"])
        .arg(&dir)
        .output()
        .expect("run check after refreeze");
    assert!(
        again.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&again.stderr)
    );
    let text = fs::read_to_string(dir.join("lint-baseline.txt")).expect("baseline written");
    assert!(text.contains("float-eq"), "{text}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn shipped_tree_atomics_protocols_all_hold() {
    let config = engine::load_config(&workspace_root()).expect("config loads");
    let ws = engine::load_workspace(&workspace_root(), &config).expect("workspace loads");
    let report = tagbreathe_lint::atomics::analyze(&ws, &[]);
    assert!(
        report.findings.is_empty(),
        "shipped tree must satisfy every [atomics] declaration:\n{:#?}",
        report.findings
    );
    // The declaration table is alive: the pass actually resolved sites
    // against every entry rather than silently checking nothing.
    assert!(
        report.decl_count >= 8,
        "declaration table shrank to {}",
        report.decl_count
    );
    assert!(
        report.checked_ops >= 15,
        "only {} atomic ops resolved — receiver-chain resolution broken?",
        report.checked_ops
    );
}

#[test]
fn sync_mutant_cfg_is_caught_with_ring_witnesses() {
    let config = engine::load_config(&workspace_root()).expect("config loads");
    let ws = engine::load_workspace(&workspace_root(), &config).expect("workspace loads");
    let report = tagbreathe_lint::atomics::analyze(&ws, &["sync_mutant".to_string()]);
    let ring: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.path.ends_with("fleet/ring.rs"))
        .collect();
    assert!(
        ring.len() >= 2,
        "--cfg sync_mutant must surface the seeded ring ordering bugs:\n{:#?}",
        report.findings
    );
    let tags: Vec<&str> = ring.iter().map(|f| f.kind.tag()).collect();
    assert!(tags.contains(&"relaxed-publish"), "{tags:?}");
    assert!(tags.contains(&"relaxed-observe"), "{tags:?}");
    for f in &ring {
        assert!(
            !f.witness.is_empty(),
            "every mutant finding carries a witness path: {f:#?}"
        );
    }
}
