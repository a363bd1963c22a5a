//! `float-eq` — exact floating-point comparison in production code.
//!
//! Phase unwrapping (Eq. 3) and displacement integration (Eq. 4) are
//! numerically delicate; `x == 0.3` style comparisons silently break
//! under rounding. The syntactic heuristic: an `==` or `!=` whose
//! immediate neighbour token is a float literal. Comparisons against
//! float *variables* need type knowledge we don't have — clippy's
//! `float_cmp` complements this rule there.
//!
//! Test code is exempt: asserting exact equality of a deterministic
//! computation is a legitimate test technique.

use super::Rule;
use crate::lexer::TokenKind;
use crate::report::{Severity, Violation};
use crate::source::SourceFile;

/// See the module docs.
pub struct FloatEq;

impl Rule for FloatEq {
    fn id(&self) -> &'static str {
        "float-eq"
    }

    fn description(&self) -> &'static str {
        "exact == / != against a float literal outside test code"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, file: &SourceFile) -> Vec<Violation> {
        let code = file.code_tokens();
        let mut out = Vec::new();
        for i in 0..code.len() {
            let op = match &code[i].kind {
                TokenKind::Punct(p) if *p == "==" || *p == "!=" => *p,
                _ => continue,
            };
            if file.is_test_line(code[i].line) {
                continue;
            }
            let float_neighbour = [i.checked_sub(1), Some(i + 1)]
                .into_iter()
                .flatten()
                .filter_map(|j| code.get(j))
                .any(|t| matches!(t.kind, TokenKind::Float(_)));
            if float_neighbour {
                out.push(Violation {
                    rule: self.id(),
                    path: file.rel_path.clone(),
                    line: code[i].line,
                    message: format!(
                        "float literal compared with `{op}` — use an epsilon helper (dsp::stats)"
                    ),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run;
    use super::*;

    #[test]
    fn flags_float_literal_comparison() {
        let v = run(
            &FloatEq,
            "crates/dsp/src/x.rs",
            "fn f(x: f64) -> bool { x == 0.3 }",
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("=="));
    }

    #[test]
    fn flags_literal_on_left_and_not_equal() {
        let v = run(
            &FloatEq,
            "crates/dsp/src/x.rs",
            "fn f(x: f64) -> bool { 0.0 != x }",
        );
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ignores_integer_comparison_and_test_code() {
        let src = "fn f(x: usize) -> bool { x == 3 }\n#[cfg(test)]\nmod tests {\n fn t(x: f64) { assert!(x == 0.0); }\n}\n";
        assert!(run(&FloatEq, "crates/dsp/src/x.rs", src).is_empty());
    }

    #[test]
    fn ignores_comparison_inside_string() {
        let v = run(
            &FloatEq,
            "crates/dsp/src/x.rs",
            r#"fn f() -> &'static str { "x == 0.0" }"#,
        );
        assert!(v.is_empty());
    }

    #[test]
    fn test_only_files_are_exempt() {
        let v = run(&FloatEq, "tests/t.rs", "fn f(x: f64) -> bool { x == 0.3 }");
        assert!(v.is_empty());
    }
}
