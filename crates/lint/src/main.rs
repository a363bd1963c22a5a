//! CLI for the workspace lint engine.
//!
//! ```text
//! tagbreathe-lint check   [--root DIR] [--update-baseline] [--format F] [--out FILE]
//! tagbreathe-lint report  [--root DIR] [--format F] [--out FILE]
//! tagbreathe-lint atomics [--root DIR] [--out FILE] [--max-violations N] [--cfg NAME]...
//! tagbreathe-lint rules
//! tagbreathe-lint validate-json FILE
//! ```
//!
//! `check` exits non-zero iff an error-severity rule found more
//! violations in some file than the ratchet baseline allows. `--format
//! sarif` additionally renders the scan as a SARIF 2.1.0 log (written to
//! `--out`, or stdout for `report`); `validate-json` runs the in-tree
//! RFC 8259 validator over a file so CI can prove the artifact parses;
//! `atomics` emits the atomics-discipline report (self-validated JSON)
//! and exits non-zero when findings exceed `--max-violations` —
//! `--cfg sync_mutant` re-resolves the workspace's `Ordering` constants
//! under that cfg so CI can prove the seeded ordering mutant is caught
//! without rebuilding anything.

#![deny(
    missing_docs,
    unreachable_pub,
    unsafe_code,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use std::path::PathBuf;
use std::process::ExitCode;
use tagbreathe_lint::config::Config;
use tagbreathe_lint::engine::{
    check, load_config, load_workspace, regressed_violations, scan, BASELINE_FILE,
};
use tagbreathe_lint::sarif::{self, RuleMeta};
use tagbreathe_lint::{atomics, baseline, rules};

/// Parsed command line.
struct Cli {
    command: String,
    root: PathBuf,
    update_baseline: bool,
    sarif: bool,
    out: Option<PathBuf>,
    /// Positional argument of `validate-json`.
    file: Option<PathBuf>,
    /// `atomics --max-violations`: fail when findings exceed this.
    max_violations: Option<usize>,
    /// `atomics --cfg`: active cfg flags for const resolution.
    cfgs: Vec<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(c) => c,
        Err(problem) => return usage(&problem),
    };
    match cli.command.as_str() {
        "rules" => run_rules(),
        "report" => run_report(&cli),
        "check" => run_check(&cli),
        "atomics" => run_atomics(&cli),
        "validate-json" => run_validate_json(&cli),
        other => usage(&format!("unknown command {other:?}")),
    }
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: String::new(),
        root: PathBuf::from("."),
        update_baseline: false,
        sarif: false,
        out: None,
        file: None,
        max_violations: None,
        cfgs: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "check" | "report" | "rules" | "atomics" | "validate-json"
                if cli.command.is_empty() =>
            {
                cli.command = args[i].clone();
            }
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => cli.root = PathBuf::from(dir),
                    None => return Err("--root needs a directory".to_string()),
                }
            }
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("human") => cli.sarif = false,
                    Some("sarif") => cli.sarif = true,
                    Some(other) => {
                        return Err(format!("unknown format {other:?} (human or sarif)"))
                    }
                    None => return Err("--format needs a value".to_string()),
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => cli.out = Some(PathBuf::from(path)),
                    None => return Err("--out needs a file path".to_string()),
                }
            }
            "--update-baseline" => cli.update_baseline = true,
            "--max-violations" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse().ok()) {
                    Some(n) => cli.max_violations = Some(n),
                    None => return Err("--max-violations needs a number".to_string()),
                }
            }
            "--cfg" => {
                i += 1;
                match args.get(i) {
                    Some(name) => cli.cfgs.push(name.clone()),
                    None => return Err("--cfg needs a flag name".to_string()),
                }
            }
            other if cli.command == "validate-json" && cli.file.is_none() => {
                cli.file = Some(PathBuf::from(other));
            }
            other if cli.command.is_empty() && !other.starts_with('-') => {
                return Err(format!("unknown command {other:?}"))
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if cli.command.is_empty() {
        return Err("missing command".to_string());
    }
    Ok(cli)
}

fn run_rules() -> ExitCode {
    for rule in rules::all_rules() {
        println!(
            "{:<18} {:<6} {}",
            rule.id(),
            rule.default_severity().to_string(),
            rule.description()
        );
    }
    for rule in rules::semantic_rules() {
        println!(
            "{:<18} {:<6} {}",
            rule.id(),
            rule.default_severity().to_string(),
            rule.description()
        );
    }
    ExitCode::SUCCESS
}

fn run_report(cli: &Cli) -> ExitCode {
    let config = match load_config(&cli.root) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let outcome = match scan(&cli.root, &config) {
        Ok(o) => o,
        Err(e) => return fail(&format!("scan failed: {e}")),
    };
    if cli.sarif {
        let text = sarif::render(&rule_metas(&config), &outcome.violations);
        return emit(cli.out.as_deref(), &text);
    }
    for v in &outcome.violations {
        println!("{v}");
    }
    println!(
        "{} violations in {} files scanned",
        outcome.violations.len(),
        outcome.files_scanned
    );
    ExitCode::SUCCESS
}

fn run_check(cli: &Cli) -> ExitCode {
    let result = match check(&cli.root) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    if cli.sarif {
        let config = match load_config(&cli.root) {
            Ok(c) => c,
            Err(e) => return fail(&e),
        };
        let text = sarif::render(&rule_metas(&config), &result.outcome.violations);
        // Always write the artifact, pass or fail, so CI can upload it.
        let status = emit(cli.out.as_deref(), &text);
        if status != ExitCode::SUCCESS {
            return status;
        }
    }
    if cli.update_baseline {
        let text = baseline::render(&result.outcome.enforced_counts);
        if let Err(e) = std::fs::write(cli.root.join(BASELINE_FILE), text) {
            return fail(&format!("writing {BASELINE_FILE}: {e}"));
        }
        println!(
            "lint: baseline refrozen at {} violations across {} (rule, file) pairs",
            result.outcome.enforced.len(),
            result.outcome.enforced_counts.len()
        );
        return ExitCode::SUCCESS;
    }
    if !result.passed() {
        eprintln!("lint: NEW violations beyond the ratchet baseline:\n");
        for v in regressed_violations(&result.outcome, &result.regressions) {
            eprintln!("  {v}");
        }
        eprintln!();
        for r in &result.regressions {
            eprintln!(
                "  {}: {} has {} (baseline allows {})",
                r.rule, r.path, r.actual, r.allowed
            );
        }
        eprintln!(
            "\nFix the new violations, or (after review) refreeze with:\n  cargo run -p tagbreathe-lint -- check --update-baseline"
        );
        return ExitCode::FAILURE;
    }
    if !result.slack.is_empty() {
        println!(
            "lint: debt shrank in {} (rule, file) pairs — tighten the ratchet with --update-baseline",
            result.slack.len()
        );
    }
    println!(
        "lint: OK — {} tracked violations within baseline, {} files scanned",
        result.outcome.enforced.len(),
        result.outcome.files_scanned
    );
    ExitCode::SUCCESS
}

fn run_atomics(cli: &Cli) -> ExitCode {
    let config = match load_config(&cli.root) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let ws = match load_workspace(&cli.root, &config) {
        Ok(w) => w,
        Err(e) => return fail(&format!("scan failed: {e}")),
    };
    let report = atomics::analyze(&ws, &cli.cfgs);
    let text = atomics::render_json(&report);
    // The report validates itself before anything consumes it.
    if let Err(e) = tagbreathe_obs::json::validate(&text) {
        return fail(&format!(
            "internal error: atomics report is invalid JSON at offset {}: {}",
            e.offset, e.what
        ));
    }
    let status = emit(cli.out.as_deref(), &text);
    if status != ExitCode::SUCCESS {
        return status;
    }
    for f in &report.findings {
        eprintln!(
            "lint: [atomics/{}] {}:{}: {}",
            f.kind.tag(),
            f.path,
            f.line,
            f.message
        );
        if !f.witness.is_empty() {
            eprintln!("      via {}", f.witness.join(" -> "));
        }
    }
    eprintln!(
        "lint: atomics checked {} ops against {} declarations ({} findings{})",
        report.checked_ops,
        report.decl_count,
        report.findings.len(),
        if cli.cfgs.is_empty() {
            String::new()
        } else {
            format!(", cfgs: {}", cli.cfgs.join(","))
        }
    );
    if let Some(max) = cli.max_violations {
        if report.findings.len() > max {
            eprintln!(
                "lint: atomics has {} findings, budget is {max}",
                report.findings.len()
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn run_validate_json(cli: &Cli) -> ExitCode {
    let Some(path) = &cli.file else {
        return usage("validate-json needs a file argument");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("{}: {e}", path.display())),
    };
    match tagbreathe_obs::json::validate(&text) {
        Ok(()) => {
            println!("{}: valid JSON ({} bytes)", path.display(), text.len());
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!(
            "{}: invalid JSON at offset {}: {}",
            path.display(),
            e.offset,
            e.what
        )),
    }
}

/// Rule table (with effective severities) for the SARIF driver block.
fn rule_metas(config: &Config) -> Vec<RuleMeta> {
    let mut metas = Vec::new();
    for rule in rules::all_rules() {
        metas.push(RuleMeta {
            id: rule.id(),
            description: rule.description(),
            severity: config.severity_for(rule.id(), rule.default_severity()),
        });
    }
    for rule in rules::semantic_rules() {
        metas.push(RuleMeta {
            id: rule.id(),
            description: rule.description(),
            severity: config.severity_for(rule.id(), rule.default_severity()),
        });
    }
    metas
}

/// Writes rendered output to a file, or stdout when no path was given.
fn emit(out: Option<&std::path::Path>, text: &str) -> ExitCode {
    match out {
        Some(path) => match std::fs::write(path, text) {
            Ok(()) => {
                println!("lint: wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => fail(&format!("writing {}: {e}", path.display())),
        },
        None => {
            print!("{text}");
            ExitCode::SUCCESS
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "tagbreathe-lint: {problem}\n\nusage:\n  tagbreathe-lint check   [--root DIR] [--update-baseline] [--format human|sarif] [--out FILE]\n  tagbreathe-lint report  [--root DIR] [--format human|sarif] [--out FILE]\n  tagbreathe-lint atomics [--root DIR] [--out FILE] [--max-violations N] [--cfg NAME]...\n  tagbreathe-lint rules\n  tagbreathe-lint validate-json FILE"
    );
    ExitCode::FAILURE
}

fn fail(message: &str) -> ExitCode {
    eprintln!("tagbreathe-lint: {message}");
    ExitCode::FAILURE
}
