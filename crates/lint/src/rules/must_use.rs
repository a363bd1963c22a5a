//! `missing-must-use` — pure DSP computations whose results can be
//! silently dropped.
//!
//! Every `pub fn … -> f64` / `-> Vec<f64>` in `crates/dsp` is a pure
//! computation (the crate holds no I/O or interior mutability); calling
//! one and discarding the result is always a bug. `#[must_use]` turns
//! that bug into a compiler warning. The rule is scoped to the `dsp`
//! crate where the purity convention holds by design.

use super::Rule;
use crate::lexer::TokenKind;
use crate::report::{Severity, Violation};
use crate::source::SourceFile;

/// Return types that must not be silently discarded.
const TRACKED_RETURNS: &[&str] = &["f64", "Vec<f64>"];

/// See the module docs.
pub struct MissingMustUse;

impl Rule for MissingMustUse {
    fn id(&self) -> &'static str {
        "missing-must-use"
    }

    fn description(&self) -> &'static str {
        "pub fn -> f64 / Vec<f64> in crates/dsp without #[must_use]"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, file: &SourceFile) -> Vec<Violation> {
        if file.crate_name != "dsp" || file.test_only {
            return Vec::new();
        }
        let code = file.code_tokens();
        let mut out = Vec::new();
        for i in 0..code.len() {
            if !(code[i].kind.is_ident("pub")
                && code.get(i + 1).is_some_and(|t| t.kind.is_ident("fn")))
            {
                continue;
            }
            if file.is_test_line(code[i].line) {
                continue;
            }
            let Some(name) = code.get(i + 2).and_then(|t| t.kind.ident()) else {
                continue;
            };
            let Some(ret) = return_type(&code, i + 2) else {
                continue;
            };
            if TRACKED_RETURNS.contains(&ret.as_str()) && !has_must_use_attr(&code, i) {
                out.push(Violation {
                    rule: self.id(),
                    path: file.rel_path.clone(),
                    line: code[i].line,
                    message: format!(
                        "pub fn {name} returns {ret} — add #[must_use] (pure computation)"
                    ),
                });
            }
        }
        out
    }
}

/// Extracts the return type of the fn whose name sits at `name_idx`, as a
/// whitespace-free token concatenation (e.g. `Vec<f64>`), or `None` for
/// `()` returns. Heuristic: find the parameter list's `(`, match parens,
/// then read tokens after `->` until the body `{`, a `where` clause or a
/// terminating `;`.
fn return_type(code: &[&crate::lexer::Token], name_idx: usize) -> Option<String> {
    let open = (name_idx..code.len().min(name_idx + 24)).find(|&j| code[j].kind.is_punct("("))?;
    let mut depth = 0usize;
    let mut close = None;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.kind.is_punct("(") {
            depth += 1;
        } else if t.kind.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                close = Some(j);
                break;
            }
        }
    }
    let close = close?;
    if !code.get(close + 1)?.kind.is_punct("->") {
        return None;
    }
    let mut ret = String::new();
    for t in code.iter().skip(close + 2) {
        match &t.kind {
            TokenKind::Punct("{") => break,
            TokenKind::Ident(s) if s == "where" => break,
            TokenKind::Punct(";") => break,
            TokenKind::Ident(s) => ret.push_str(s),
            TokenKind::Lifetime(l) => {
                ret.push('\'');
                ret.push_str(l);
            }
            TokenKind::Punct(p) => ret.push_str(p),
            _ => ret.push('?'),
        }
    }
    Some(ret)
}

/// Walks attribute groups immediately above token `i` looking for
/// `must_use` (doc comments are not code tokens, so contiguity holds).
fn has_must_use_attr(code: &[&crate::lexer::Token], i: usize) -> bool {
    let mut end = i; // exclusive end of the region before `pub`
    while end > 0 && code[end - 1].kind.is_punct("]") {
        // Find the matching '[' backwards.
        let mut depth = 0usize;
        let mut j = end - 1;
        loop {
            if code[j].kind.is_punct("]") {
                depth += 1;
            } else if code[j].kind.is_punct("[") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                return false;
            }
            j -= 1;
        }
        // Expect '#' before the '['.
        if j == 0 || !code[j - 1].kind.is_punct("#") {
            return false;
        }
        if code[j..end - 1].iter().any(|t| t.kind.is_ident("must_use")) {
            return true;
        }
        end = j - 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run;
    use super::*;

    #[test]
    fn flags_missing_on_f64_and_vec_f64() {
        let src =
            "pub fn rms(x: &[f64]) -> f64 { 0.0 }\npub fn taps(n: usize) -> Vec<f64> { vec![] }\n";
        let v = run(&MissingMustUse, "crates/dsp/src/x.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v[0].message.contains("rms"));
    }

    #[test]
    fn satisfied_by_attribute_even_with_doc_comments_between() {
        let src = "#[must_use]\n/// Mean.\npub fn mean(x: &[f64]) -> f64 { 0.0 }\n";
        assert!(run(&MissingMustUse, "crates/dsp/src/x.rs", src).is_empty());
        let src2 = "/// Docs.\n#[must_use]\npub fn mean(x: &[f64]) -> f64 { 0.0 }\n";
        assert!(run(&MissingMustUse, "crates/dsp/src/x.rs", src2).is_empty());
    }

    #[test]
    fn other_returns_and_other_crates_ignored() {
        let src = "pub fn go(x: &mut [f64]) {}\npub fn n() -> usize { 0 }\n";
        assert!(run(&MissingMustUse, "crates/dsp/src/x.rs", src).is_empty());
        let f64_src = "pub fn rms(x: &[f64]) -> f64 { 0.0 }\n";
        assert!(run(&MissingMustUse, "crates/tagbreathe/src/x.rs", f64_src).is_empty());
    }

    #[test]
    fn result_wrapped_returns_are_not_flagged() {
        let src = "pub fn f(x: &[f64]) -> Result<f64, Error> { Ok(0.0) }\n";
        assert!(run(&MissingMustUse, "crates/dsp/src/x.rs", src).is_empty());
    }

    #[test]
    fn generic_params_are_handled() {
        let src = "pub fn g<T: Into<f64>>(x: T) -> f64 { x.into() }\n";
        assert_eq!(run(&MissingMustUse, "crates/dsp/src/x.rs", src).len(), 1);
    }

    #[test]
    fn test_modules_in_dsp_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n pub fn helper() -> f64 { 0.0 }\n}\n";
        assert!(run(&MissingMustUse, "crates/dsp/src/x.rs", src).is_empty());
    }
}
