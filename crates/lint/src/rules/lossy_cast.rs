//! `lossy-cast` — numeric `as` casts that can silently lose information.
//!
//! `as` never fails: `f64 as f32` rounds, `f64 as usize` truncates and
//! saturates, `u64 as u32` wraps. In a phase-processing pipeline these
//! are exactly the silent corruptions the paper's Eq. 3–5 maths cannot
//! tolerate. Without type inference the heuristic is target-based: a
//! cast *to* a narrow type (`f32`, `u8`/`i8`, `u16`/`i16`, `u32`/`i32`)
//! is flagged in production code, since every workspace quantity is
//! naturally `f64`/`usize`/`u64` and a narrowing target is where loss
//! happens. Casts to `usize` from an adjacent float literal are also
//! caught (`0.5 as usize`); float-expression→usize casts need types and
//! are left to review. Intentional narrowings (wire formats, LLRP
//! encoding) stay frozen in the baseline.

use super::Rule;
use crate::lexer::TokenKind;
use crate::report::{Severity, Violation};
use crate::source::SourceFile;

/// Cast targets considered narrowing in this workspace.
const NARROW_TARGETS: &[&str] = &["f32", "u8", "u16", "u32", "i8", "i16", "i32"];

/// See the module docs.
pub struct LossyCast;

impl Rule for LossyCast {
    fn id(&self) -> &'static str {
        "lossy-cast"
    }

    fn description(&self) -> &'static str {
        "`as` cast to a narrow numeric type outside test code"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, file: &SourceFile) -> Vec<Violation> {
        let code = file.code_tokens();
        let mut out = Vec::new();
        for i in 0..code.len() {
            if !code[i].kind.is_ident("as") || file.is_test_line(code[i].line) {
                continue;
            }
            let Some(target) = code.get(i + 1).and_then(|t| t.kind.ident()) else {
                continue;
            };
            let narrowing = NARROW_TARGETS.contains(&target);
            let float_to_usize =
                target == "usize" && i > 0 && matches!(code[i - 1].kind, TokenKind::Float(_));
            if narrowing || float_to_usize {
                out.push(Violation {
                    rule: self.id(),
                    path: file.rel_path.clone(),
                    line: code[i].line,
                    message: format!(
                        "cast `as {target}` can lose information — use try_from or a checked helper"
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
    fn flags_narrowing_targets() {
        let src = "fn f(x: f64, n: u64) -> f32 { let _ = n as u32; x as f32 }";
        let v = run(&LossyCast, "crates/dsp/src/x.rs", src);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn allows_widening_and_usize_index_math() {
        let src = "fn f(n: usize, x: u32) -> f64 { let _ = x as u64; n as f64 }";
        assert!(run(&LossyCast, "crates/dsp/src/x.rs", src).is_empty());
    }

    #[test]
    fn flags_float_literal_to_usize() {
        let src = "fn f() -> usize { 0.5 as usize }";
        assert_eq!(run(&LossyCast, "crates/dsp/src/x.rs", src).len(), 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t(x: f64) { let _ = x as f32; }\n}\n";
        assert!(run(&LossyCast, "crates/dsp/src/x.rs", src).is_empty());
    }

    #[test]
    fn ignores_as_in_use_renames() {
        // `use x as y;` — the target is a plain ident, not a numeric type.
        let src = "use std::fmt::Write as _;\nuse a::b as c;\n";
        assert!(run(&LossyCast, "crates/dsp/src/x.rs", src).is_empty());
    }
}
