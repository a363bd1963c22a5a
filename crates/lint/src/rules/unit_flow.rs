//! `unit-dataflow` — intraprocedural physical-units checking.
//!
//! Units are carried by identifier suffixes declared in `lint.toml`
//! (`[units] suffixes`, e.g. `_hz`, `_bpm`, `_rad`) and by declared
//! conversion functions (`hz_to_bpm: hz -> bpm`). Within each non-test
//! lib-crate function the rule infers a unit for every expression it can
//! and flags definite mix-ups:
//!
//! * additive arithmetic and comparisons between different units;
//! * `let x_hz = <bpm-valued expr>` bindings and `=`/`+=`/`-=` stores;
//! * `return`/trailing expressions disagreeing with a unit-suffixed
//!   function name;
//! * struct-literal fields fed values of a different unit;
//! * call arguments whose unit contradicts the parameter's suffix or a
//!   conversion's declared input.
//!
//! Multiplication and division intentionally produce *unknown* units —
//! dimension composition like Eq. 3's `λ/(4π)·wrap(Δθ)` is legitimate —
//! so the rule only fires where two **same-dimension-labelled** values
//! collide. Unknown units never fire: the rule under-approximates.

use crate::callgraph::Workspace;
use crate::config::UnitsConfig;
use crate::parser::{Block, Expr, FnItem, Param, Stmt};
use crate::report::{Severity, Violation};
use crate::rules::SemanticRule;
use std::collections::{BTreeMap, HashMap};

/// See the module docs.
pub struct UnitDataflow;

/// Methods that return a value in the same unit as their receiver; for
/// those that take comparands (`max`/`min`/`clamp`), argument units are
/// checked against the receiver's.
const UNIT_PRESERVING: &[&str] = &[
    "abs", "max", "min", "clamp", "floor", "ceil", "round", "copysign", "signum", "to_owned",
    "clone",
];

impl SemanticRule for UnitDataflow {
    fn id(&self) -> &'static str {
        "unit-dataflow"
    }

    fn description(&self) -> &'static str {
        "mixed physical units in arithmetic, bindings, returns or call arguments"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ws: &Workspace) -> Vec<Violation> {
        let signatures = collect_signatures(ws);
        let mut violations = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            if !ws.lib_crates.contains(&file.crate_name) {
                continue;
            }
            for item in &file.parsed.fns {
                if item.is_test {
                    continue;
                }
                let mut checker = Checker {
                    units: &ws.units,
                    signatures: &signatures,
                    path: &ws.files[fi].rel_path,
                    fn_name: &item.name,
                    out: &mut violations,
                };
                checker.check_fn(item);
            }
        }
        violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        violations
    }
}

/// Parameter-name suffixes of workspace functions, keyed by function
/// name — used to check call arguments. Only unambiguous names (exactly
/// one workspace function) are kept.
fn collect_signatures(ws: &Workspace) -> BTreeMap<String, Vec<Param>> {
    let mut by_name: BTreeMap<String, Vec<&FnItem>> = BTreeMap::new();
    for file in &ws.files {
        for item in &file.parsed.fns {
            if !item.is_test {
                by_name.entry(item.name.clone()).or_default().push(item);
            }
        }
    }
    by_name
        .into_iter()
        .filter(|(_, items)| items.len() == 1)
        .map(|(name, items)| (name, items[0].params.clone()))
        .collect()
}

struct Checker<'a> {
    units: &'a UnitsConfig,
    signatures: &'a BTreeMap<String, Vec<Param>>,
    path: &'a str,
    fn_name: &'a str,
    out: &'a mut Vec<Violation>,
}

impl Checker<'_> {
    fn emit(&mut self, line: u32, message: String) {
        self.out.push(Violation {
            rule: "unit-dataflow",
            path: self.path.to_string(),
            line,
            message,
        });
    }

    fn check_fn(&mut self, item: &FnItem) {
        let Some(body) = &item.body else {
            return;
        };
        let mut env: HashMap<String, String> = HashMap::new();
        for p in &item.params {
            if let Some(name) = &p.name {
                if let Some(u) = self.units.unit_of_name(&name.to_lowercase()) {
                    env.insert(name.clone(), u.to_string());
                }
            }
        }
        let ret_unit = self
            .units
            .unit_of_name(&item.name.to_lowercase())
            .map(str::to_string);
        let trailing = self.check_block(body, &mut env, ret_unit.as_deref());
        if let (Some(fu), Some(vu)) = (&ret_unit, &trailing) {
            if fu != vu {
                let line = last_line(body);
                self.emit(
                    line,
                    format!(
                        "function `{}` (`{fu}`) returns a `{vu}` value",
                        self.fn_name
                    ),
                );
            }
        }
    }

    /// Checks a block's statements in order, threading the environment;
    /// returns the unit of the trailing expression, if known.
    fn check_block(
        &mut self,
        block: &Block,
        env: &mut HashMap<String, String>,
        ret_unit: Option<&str>,
    ) -> Option<String> {
        let mut trailing = None;
        for stmt in &block.stmts {
            trailing = None;
            match stmt {
                Stmt::Let {
                    name, init, line, ..
                } => {
                    let init_unit = init.as_ref().and_then(|e| self.infer(e, env));
                    let declared = name
                        .as_deref()
                        .and_then(|n| self.units.unit_of_name(&n.to_lowercase()))
                        .map(str::to_string);
                    if let (Some(n), Some(du), Some(iu)) = (name, &declared, &init_unit) {
                        if du != iu {
                            self.emit(
                                *line,
                                format!("binding `{n}` (`{du}`) initialised with a `{iu}` value"),
                            );
                        }
                    }
                    if let Some(n) = name {
                        match declared.or(init_unit) {
                            Some(u) => {
                                env.insert(n.clone(), u);
                            }
                            None => {
                                env.remove(n); // shadowing clears stale units
                            }
                        }
                    }
                }
                Stmt::Expr { expr, has_semi } => {
                    let u = self.infer(expr, env);
                    if !has_semi {
                        trailing = u;
                    }
                }
                Stmt::Return { value, line } => {
                    let vu = value.as_ref().and_then(|e| self.infer(e, env));
                    if let (Some(fu), Some(vu)) = (ret_unit, &vu) {
                        if fu != vu {
                            self.emit(
                                *line,
                                format!(
                                    "function `{}` (`{fu}`) returns a `{vu}` value",
                                    self.fn_name
                                ),
                            );
                        }
                    }
                }
            }
        }
        trailing
    }

    /// Infers the unit of an expression, emitting violations for definite
    /// mixed-unit uses found along the way.
    fn infer(&mut self, e: &Expr, env: &HashMap<String, String>) -> Option<String> {
        match e {
            Expr::Path { segs, .. } => {
                if segs.len() == 1 {
                    if let Some(u) = env.get(&segs[0]) {
                        return Some(u.clone());
                    }
                }
                let last = segs.last()?;
                self.units
                    .unit_of_name(&last.to_lowercase())
                    .map(str::to_string)
            }
            Expr::Lit { .. } | Expr::Opaque { .. } => None,
            Expr::Field { base, name, .. } => {
                self.infer(base, env);
                self.units
                    .unit_of_name(&name.to_lowercase())
                    .map(str::to_string)
            }
            Expr::Index { base, index, .. } => {
                self.infer(index, env);
                // elements of a `_s`-suffixed collection are seconds
                self.infer(base, env)
            }
            Expr::Unary { expr, .. } | Expr::Try { expr, .. } | Expr::Cast { expr, .. } => {
                self.infer(expr, env)
            }
            Expr::Binary {
                op, lhs, rhs, line, ..
            } => {
                let lu = self.infer(lhs, env);
                let ru = self.infer(rhs, env);
                match *op {
                    "+" | "-" => {
                        if let (Some(l), Some(r)) = (&lu, &ru) {
                            if l != r {
                                self.emit(*line, format!("mixed units: `{l}` {op} `{r}`"));
                            }
                        }
                        lu.or(ru)
                    }
                    "==" | "!=" | "<" | ">" | "<=" | ">=" => {
                        if let (Some(l), Some(r)) = (&lu, &ru) {
                            if l != r {
                                self.emit(
                                    *line,
                                    format!("mixed units in comparison: `{l}` {op} `{r}`"),
                                );
                            }
                        }
                        None
                    }
                    _ => None, // *, /, %, ranges, shifts: dimension changes
                }
            }
            Expr::Assign {
                op,
                target,
                value,
                line,
            } => {
                let tu = self.infer(target, env);
                let vu = self.infer(value, env);
                if matches!(*op, "=" | "+=" | "-=") {
                    if let (Some(t), Some(v)) = (&tu, &vu) {
                        if t != v {
                            self.emit(*line, format!("assigns a `{v}` value to a `{t}` target"));
                        }
                    }
                }
                None
            }
            Expr::Call {
                path, args, line, ..
            } => {
                let arg_units: Vec<Option<String>> =
                    args.iter().map(|a| self.infer(a, env)).collect();
                let name = path.last()?;
                self.check_call(name, &arg_units, *line, false)
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } => {
                let ru = self.infer(recv, env);
                let arg_units: Vec<Option<String>> =
                    args.iter().map(|a| self.infer(a, env)).collect();
                if UNIT_PRESERVING.contains(&method.as_str()) {
                    for au in arg_units.iter().flatten() {
                        if let Some(r) = &ru {
                            if r != au {
                                self.emit(
                                    *line,
                                    format!("mixes `{r}` and `{au}` in `.{method}(…)`"),
                                );
                            }
                        }
                    }
                    return ru;
                }
                if let Some(c) = self.units.conversion_for(method) {
                    let (from, to) = (c.from.clone(), c.to.clone());
                    if let Some(r) = &ru {
                        if *r != from {
                            self.emit(
                                *line,
                                format!("conversion `{method}` expects `{from}`, got `{r}`"),
                            );
                        }
                    }
                    return Some(to);
                }
                self.check_call(method, &arg_units, *line, true)
            }
            Expr::Macro { args, .. } => {
                for a in args {
                    self.infer(a, env);
                }
                None
            }
            Expr::Closure { body, .. } => {
                let mut scoped = env.clone();
                // Closure parameters are unknown; check the body only.
                let _ = self.infer_in(body, &mut scoped);
                None
            }
            Expr::Block { block, .. } => {
                let mut scoped = env.clone();
                self.check_block(block, &mut scoped, None)
            }
            Expr::If {
                cond,
                then_block,
                else_branch,
                ..
            } => {
                self.infer(cond, env);
                let mut scoped = env.clone();
                let tu = self.check_block(then_block, &mut scoped, None);
                let eu = else_branch.as_ref().and_then(|e| {
                    let mut scoped = env.clone();
                    self.infer_in(e, &mut scoped)
                });
                tu.or(eu)
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.infer(scrutinee, env);
                let mut unit = None;
                for a in arms {
                    let mut scoped = env.clone();
                    let au = self.infer_in(a, &mut scoped);
                    unit = unit.or(au);
                }
                unit
            }
            Expr::Loop { cond, body, .. } => {
                if let Some(c) = cond {
                    self.infer(c, env);
                }
                let mut scoped = env.clone();
                self.check_block(body, &mut scoped, None);
                None
            }
            Expr::StructLit { fields, .. } => {
                for (field, value) in fields {
                    let vu = self.infer(value, env);
                    let fu = self.units.unit_of_name(&field.to_lowercase());
                    if let (Some(fu), Some(vu)) = (fu, &vu) {
                        if fu != vu {
                            self.emit(
                                value.line(),
                                format!("field `{field}` (`{fu}`) set from a `{vu}` value"),
                            );
                        }
                    }
                }
                None
            }
            Expr::Group { items, .. } => {
                for i in items {
                    self.infer(i, env);
                }
                None
            }
        }
    }

    /// Infers with a mutable scope (for expressions owning blocks).
    fn infer_in(&mut self, e: &Expr, env: &mut HashMap<String, String>) -> Option<String> {
        if let Expr::Block { block, .. } = e {
            return self.check_block(block, env, None);
        }
        self.infer(e, env)
    }

    /// Checks a (free or method) call's arguments against a declared
    /// conversion or an unambiguous workspace signature, and returns the
    /// call's result unit (conversion target or callee-name suffix).
    fn check_call(
        &mut self,
        name: &str,
        arg_units: &[Option<String>],
        line: u32,
        is_method: bool,
    ) -> Option<String> {
        if let Some(c) = self.units.conversion_for(name) {
            if let Some(Some(au)) = arg_units.first() {
                if *au != c.from {
                    self.emit(
                        line,
                        format!("conversion `{name}` expects `{}`, got `{au}`", c.from),
                    );
                }
            }
            return Some(c.to.clone());
        }
        if let Some(params) = self.signatures.get(name) {
            // Skip a leading `self` receiver parameter for method calls.
            let params: Vec<&Param> = params
                .iter()
                .filter(|p| !(is_method && p.name.as_deref() == Some("self")))
                .collect();
            for (au, param) in arg_units.iter().zip(params) {
                let pu = param
                    .name
                    .as_deref()
                    .and_then(|n| self.units.unit_of_name(&n.to_lowercase()));
                if let (Some(au), Some(pu), Some(pname)) = (au, pu, param.name.as_deref()) {
                    if au != pu {
                        self.emit(
                            line,
                            format!(
                                "call to `{name}`: parameter `{pname}` (`{pu}`) gets a `{au}` value"
                            ),
                        );
                    }
                }
            }
        }
        self.units
            .unit_of_name(&name.to_lowercase())
            .map(str::to_string)
    }
}

/// Line of the last statement in a block (for trailing-return reports).
fn last_line(block: &Block) -> u32 {
    block.stmts.last().map_or(0, |s| match s {
        Stmt::Let { line, .. } | Stmt::Return { line, .. } => *line,
        Stmt::Expr { expr, .. } => expr.line(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Conversion;
    use crate::source::SourceFile;

    fn run_with(files: &[(&str, &str)], units: UnitsConfig) -> Vec<Violation> {
        let sources: Vec<SourceFile> = files.iter().map(|(p, t)| SourceFile::parse(p, t)).collect();
        let config = crate::config::Config {
            lib_crates: vec!["dsp".to_string(), "tagbreathe".to_string()],
            units,
            ..crate::config::Config::default()
        };
        let ws = Workspace::build(&sources, &config);
        UnitDataflow.check(&ws)
    }

    fn units_with_conversions() -> UnitsConfig {
        UnitsConfig {
            conversions: vec![Conversion {
                name: "hz_to_bpm".to_string(),
                from: "hz".to_string(),
                to: "bpm".to_string(),
            }],
            ..UnitsConfig::default()
        }
    }

    #[test]
    fn additive_mixing_is_flagged() {
        let v = run_with(
            &[(
                "crates/dsp/src/a.rs",
                "pub fn f(rate_hz: f64, rate_bpm: f64) -> f64 { rate_hz + rate_bpm }\n",
            )],
            UnitsConfig::default(),
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`hz` + `bpm`"), "{}", v[0].message);
    }

    #[test]
    fn multiplication_is_dimension_composition_not_flagged() {
        let v = run_with(
            &[(
                "crates/dsp/src/a.rs",
                "pub fn f(lambda_m: f64, phase_rad: f64) -> f64 { lambda_m * phase_rad / 4.0 }\n",
            )],
            UnitsConfig::default(),
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn binding_and_propagation() {
        let v = run_with(
            &[(
                "crates/dsp/src/a.rs",
                "pub fn f(freq_hz: f64) {\n  let x = freq_hz;\n  let rate_bpm = x;\n  let _ = rate_bpm;\n}\n",
            )],
            UnitsConfig::default(),
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("binding `rate_bpm` (`bpm`)"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn conversion_fixes_the_flow_and_bad_input_is_flagged() {
        let good = run_with(
            &[(
                "crates/tagbreathe/src/a.rs",
                "pub fn f(freq_hz: f64) -> f64 { let rate_bpm = hz_to_bpm(freq_hz); rate_bpm }\n",
            )],
            units_with_conversions(),
        );
        assert!(good.is_empty(), "{good:?}");
        let bad = run_with(
            &[(
                "crates/tagbreathe/src/a.rs",
                "pub fn f(rate_bpm: f64) -> f64 { hz_to_bpm(rate_bpm) }\n",
            )],
            units_with_conversions(),
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(
            bad[0].message.contains("expects `hz`, got `bpm`"),
            "{}",
            bad[0].message
        );
    }

    #[test]
    fn suffixed_fn_return_is_checked() {
        let v = run_with(
            &[(
                "crates/dsp/src/a.rs",
                "pub fn rate_hz(rate_bpm: f64) -> f64 { rate_bpm }\n",
            )],
            UnitsConfig::default(),
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("returns a `bpm` value"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn struct_fields_and_call_args_are_checked() {
        let v = run_with(
            &[(
                "crates/tagbreathe/src/a.rs",
                "pub struct P { pub rate_bpm: f64 }\n\
                 pub fn mk(freq_hz: f64) -> P { P { rate_bpm: freq_hz } }\n\
                 pub fn takes(cutoff_hz: f64) -> f64 { cutoff_hz }\n\
                 pub fn call(rate_bpm: f64) -> f64 { takes(rate_bpm) }\n",
            )],
            UnitsConfig::default(),
        );
        let messages: Vec<&str> = v.iter().map(|v| v.message.as_str()).collect();
        assert!(
            messages.iter().any(|m| m.contains("field `rate_bpm`")),
            "{messages:?}"
        );
        assert!(
            messages
                .iter()
                .any(|m| m.contains("parameter `cutoff_hz` (`hz`) gets a `bpm` value")),
            "{messages:?}"
        );
    }

    #[test]
    fn test_code_and_unknown_units_are_silent() {
        let v = run_with(
            &[(
                "crates/dsp/src/a.rs",
                "pub fn f(x: f64, y_hz: f64) -> f64 { x + y_hz }\n\
                 #[cfg(test)]\nmod tests {\n  fn t(a_hz: f64, b_bpm: f64) -> f64 { a_hz + b_bpm }\n}\n",
            )],
            UnitsConfig::default(),
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn constants_in_caps_carry_units() {
        let v = run_with(
            &[(
                "crates/dsp/src/a.rs",
                "pub const MAX_RATE_BPM: f64 = 40.0;\n\
                 pub fn f(freq_hz: f64) -> bool { freq_hz > MAX_RATE_BPM }\n",
            )],
            UnitsConfig::default(),
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("comparison"), "{}", v[0].message);
    }
}
