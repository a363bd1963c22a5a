//! `allow-attr` — audit of `#[allow(dead_code)]` / `#[allow(unused…)]`.
//!
//! These attributes disable the compiler's own dead-code analysis; each
//! one is either a TODO in disguise (wire the code up) or a deletion
//! candidate. The ratchet keeps the current set frozen so new silenced
//! warnings need an explicit baseline update to land.

use super::Rule;
use crate::lexer::TokenKind;
use crate::report::{Severity, Violation};
use crate::source::SourceFile;

/// See the module docs.
pub struct AllowAudit;

impl Rule for AllowAudit {
    fn id(&self) -> &'static str {
        "allow-attr"
    }

    fn description(&self) -> &'static str {
        "#[allow(dead_code)] / #[allow(unused…)] attributes"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, file: &SourceFile) -> Vec<Violation> {
        let code = file.code_tokens();
        let mut out = Vec::new();
        let mut i = 0;
        while i + 3 < code.len() {
            // `# [ allow (` or `# ! [ allow (` (inner attribute).
            let mut j = i;
            let is_attr_start = code[j].kind.is_punct("#");
            if !is_attr_start {
                i += 1;
                continue;
            }
            j += 1;
            if code.get(j).is_some_and(|t| t.kind.is_punct("!")) {
                j += 1;
            }
            if !(code.get(j).is_some_and(|t| t.kind.is_punct("["))
                && code.get(j + 1).is_some_and(|t| t.kind.is_ident("allow"))
                && code.get(j + 2).is_some_and(|t| t.kind.is_punct("(")))
            {
                i += 1;
                continue;
            }
            // Scan the allow list for audited lint names.
            let mut k = j + 3;
            let mut flagged: Vec<String> = Vec::new();
            while k < code.len() && !code[k].kind.is_punct(")") {
                if let TokenKind::Ident(name) = &code[k].kind {
                    if name == "dead_code" || name.starts_with("unused") {
                        flagged.push(name.clone());
                    }
                }
                k += 1;
            }
            for name in flagged {
                out.push(Violation {
                    rule: self.id(),
                    path: file.rel_path.clone(),
                    line: code[i].line,
                    message: format!("#[allow({name})] silences the compiler — wire up or delete"),
                });
            }
            i = k + 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run;
    use super::*;

    #[test]
    fn flags_dead_code_and_unused_variants() {
        let src = "#[allow(dead_code)]\nfn a() {}\n#[allow(unused_variables, clippy::too_many_arguments)]\nfn b() {}\n";
        let v = run(&AllowAudit, "crates/dsp/src/x.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v[0].message.contains("dead_code"));
        assert!(v[1].message.contains("unused_variables"));
    }

    #[test]
    fn flags_inner_attributes() {
        let src = "#![allow(unused)]\nfn a() {}\n";
        assert_eq!(run(&AllowAudit, "crates/dsp/src/x.rs", src).len(), 1);
    }

    #[test]
    fn ignores_other_allows() {
        let src = "#[allow(clippy::float_cmp)]\nfn a() {}\n";
        assert!(run(&AllowAudit, "crates/dsp/src/x.rs", src).is_empty());
    }
}
