//! Pass B — cfg-gate / feature-model consistency.
//!
//! Every `#[cfg(..)]`, `#[cfg_attr(.., ..)]` and `cfg!(..)` in the
//! workspace is parsed into a predicate tree and checked three ways:
//!
//! 1. **undeclared-feature** (violation): the gate tests a feature the
//!    crate's `Cargo.toml` does not declare — the gated code is dead in
//!    every buildable product, which is exactly the "phantom feature"
//!    failure VDBMS-style variability analysis exists to catch.
//! 2. **alt-group-conflict** (violation): the gate *requires* (via
//!    `all(..)`/bare conjunction) two cargo features that map to
//!    distinct members of the same `Alternative` group in the Fig. 2
//!    model — no valid configuration enables both, so the gate is dead
//!    under every valid configuration.
//! 3. **unmapped-feature** (warning): a gated feature that composes no
//!    model feature and is not listed under `[feature-internal]` in
//!    `lint.toml`.
//!
//! A feature's model feature comes from the model's own cargo table
//! (`fame_feature_model::models::FAME_CARGO_FEATURES`) or, for a
//! crate-internal feature such as fame-buffer's `lru`, from the
//! `fame-dbms` feature whose `"fame-buffer/lru"` entry switches it on.
//! The `fame-dbms` manifest itself is checked against the model in
//! [`crate::cargomodel`].
//!
//! Gates are compile-time facts, so diagnostics carry `FlowConfirmed`
//! with a `feature@line -> gate@line` provenance chain.

use std::collections::{BTreeMap, BTreeSet};

use fame_derivation::{match_paren, Confidence, FlowStep, TokKind, Token};
use fame_feature_model::models::FAME_CARGO_FEATURES;
use fame_feature_model::{FeatureModel, GroupKind};

use crate::analysis::{ParsedCrate, ParsedWorkspace};
use crate::config::LintConfig;
use crate::report::{Diagnostic, Pass, Report, Severity};

/// A parsed `cfg` predicate.
#[derive(Debug, Clone)]
pub(crate) enum Pred {
    /// `feature = "name"` with the source line of the name.
    Feature(String, u32),
    /// `all(..)`.
    All(Vec<Pred>),
    /// `any(..)`.
    Any(Vec<Pred>),
    /// `not(..)`.
    Not(Box<Pred>),
    /// `test`, `target_os = ".."`, anything else.
    Other,
}

impl Pred {
    /// Every feature name tested anywhere in the predicate.
    pub(crate) fn features(&self, out: &mut Vec<(String, u32)>) {
        match self {
            Pred::Feature(name, line) => out.push((name.clone(), *line)),
            Pred::All(ps) | Pred::Any(ps) => ps.iter().for_each(|p| p.features(out)),
            Pred::Not(p) => p.features(out),
            Pred::Other => {}
        }
    }

    /// The predicate's value when exactly the features `on` accepts are
    /// enabled (`test`, `target_os`, ... count as false).
    pub(crate) fn eval(&self, on: &dyn Fn(&str) -> bool) -> bool {
        match self {
            Pred::Feature(name, _) => on(name),
            Pred::All(ps) => ps.iter().all(|p| p.eval(on)),
            Pred::Any(ps) => ps.iter().any(|p| p.eval(on)),
            Pred::Not(p) => !p.eval(on),
            Pred::Other => false,
        }
    }

    /// Features that must all be enabled for the predicate to hold
    /// (conjunctive requirements only; `any`/`not` contribute nothing
    /// unless the `any` has a single branch).
    pub(crate) fn required(&self, out: &mut Vec<(String, u32)>) {
        match self {
            Pred::Feature(name, line) => out.push((name.clone(), *line)),
            Pred::All(ps) => ps.iter().for_each(|p| p.required(out)),
            Pred::Any(ps) if ps.len() == 1 => ps[0].required(out),
            _ => {}
        }
    }
}

/// Parse the predicate starting at `toks[i]` (an ident or `(`); returns
/// the predicate and the index just past it.
fn parse_pred(toks: &[Token], i: usize) -> (Pred, usize) {
    let Some(t) = toks.get(i) else {
        return (Pred::Other, i + 1);
    };
    if t.kind == TokKind::Ident {
        match t.text.as_str() {
            "all" | "any" | "not" if toks.get(i + 1).is_some_and(|x| x.is_punct("(")) => {
                let close = match_paren(toks, i + 1).unwrap_or(toks.len());
                let mut parts = Vec::new();
                let mut j = i + 2;
                while j < close {
                    if toks[j].is_punct(",") {
                        j += 1;
                        continue;
                    }
                    let (p, nj) = parse_pred(toks, j);
                    parts.push(p);
                    j = nj.max(j + 1);
                }
                let pred = match t.text.as_str() {
                    "all" => Pred::All(parts),
                    "any" => Pred::Any(parts),
                    _ => Pred::Not(Box::new(parts.into_iter().next().unwrap_or(Pred::Other))),
                };
                return (pred, close + 1);
            }
            "feature" if toks.get(i + 1).is_some_and(|x| x.is_punct("=")) => {
                if let Some(name) = toks.get(i + 2).and_then(|t| t.str_content()) {
                    return (Pred::Feature(name.to_string(), toks[i + 2].line), i + 3);
                }
                // `feature = $name` inside a macro definition: opaque.
                return (Pred::Other, i + 3);
            }
            _ => {}
        }
        // `target_os = ".."`, `test`, `unix`, ...: skip the value if any.
        if toks.get(i + 1).is_some_and(|x| x.is_punct("=")) {
            return (Pred::Other, i + 3);
        }
        if toks.get(i + 1).is_some_and(|x| x.is_punct("(")) {
            let close = match_paren(toks, i + 1).unwrap_or(toks.len());
            return (Pred::Other, close + 1);
        }
        return (Pred::Other, i + 1);
    }
    (Pred::Other, i + 1)
}

/// Every gate in `toks`: the predicate and the line of the `cfg`.
pub(crate) fn find_gates(toks: &[Token]) -> Vec<(Pred, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let is_cfg = t.is_ident("cfg");
        let is_cfg_attr = t.is_ident("cfg_attr");
        if (is_cfg || is_cfg_attr) && toks.get(i + 1).is_some_and(|x| x.is_punct("(")) {
            // Attribute position only (`#[cfg(..)]` / `#![cfg(..)]` /
            // `#[cfg_attr(..)]`); a plain ident named `cfg` followed by
            // `(` outside an attribute is a function call, not a gate.
            if i >= 1 && toks[i - 1].is_punct("[") {
                let (pred, _) = parse_pred(toks, i + 2);
                out.push((pred, t.line));
                let close = match_paren(toks, i + 1).unwrap_or(i + 1);
                i = close + 1;
                continue;
            }
        } else if is_cfg
            && toks.get(i + 1).is_some_and(|x| x.is_punct("!"))
            && toks.get(i + 2).is_some_and(|x| x.is_punct("("))
        {
            let (pred, _) = parse_pred(toks, i + 3);
            out.push((pred, t.line));
            let close = match_paren(toks, i + 2).unwrap_or(i + 2);
            i = close + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Do two model features sit in the same `Alternative` group?
fn same_alternative_group(model: &FeatureModel, a: &str, b: &str) -> bool {
    let (Some(ia), Some(ib)) = (model.by_name(a), model.by_name(b)) else {
        return false;
    };
    let (fa, fb) = (model.feature(ia), model.feature(ib));
    match (fa.parent(), fb.parent()) {
        (Some(pa), Some(pb)) => pa == pb && model.feature(pa).group() == GroupKind::Alternative,
        _ => false,
    }
}

/// The crate whose manifest composes the product line.
pub(crate) const CORE: &str = "fame-dbms";

/// Cargo feature name -> the model feature it composes: the rows of
/// `FAME_CARGO_FEATURES`, plus each crate-internal feature a `fame-dbms`
/// feature switches on through a `"crate/feature"` entry.
pub(crate) fn model_names(core: Option<&ParsedCrate>) -> BTreeMap<String, &'static str> {
    let mut names: BTreeMap<String, &'static str> = FAME_CARGO_FEATURES
        .iter()
        .map(|&(cargo, feature, _)| (cargo.to_string(), feature))
        .collect();
    for (cargo, feature, _) in FAME_CARGO_FEATURES {
        let Some(decl) = core.and_then(|c| c.features.get(*cargo)) else {
            continue;
        };
        for entry in &decl.implies {
            if let Some((_, inner)) = entry.split_once('/') {
                names.entry(inner.to_string()).or_insert(feature);
            }
        }
    }
    names
}

/// Run Pass B over the parsed workspace.
pub fn run(parsed: &ParsedWorkspace, cfg: &LintConfig, model: &FeatureModel, report: &mut Report) {
    let core = parsed.crates.iter().find(|c| c.name == CORE);
    let names = model_names(core);
    if let Some(core) = core {
        crate::cargomodel::check(core, cfg, model, report);
    }
    for krate in &parsed.crates {
        // One unmapped-feature warning per (crate, feature).
        let mut warned_unmapped: BTreeSet<String> = BTreeSet::new();
        for file in &krate.files {
            for (pred, gate_line) in find_gates(&file.toks) {
                let mut all_feats = Vec::new();
                pred.features(&mut all_feats);
                for (name, line) in &all_feats {
                    if !krate.features.contains_key(name) {
                        report.diagnostics.push(Diagnostic {
                            pass: Pass::CfgGate,
                            krate: krate.name.clone(),
                            file: file.path.clone(),
                            line: *line,
                            severity: Severity::Violation,
                            tier: Confidence::FlowConfirmed,
                            code: "undeclared-feature",
                            message: format!(
                                "undeclared-feature: gate tests feature `{name}` which {} does not declare; the gated code is dead in every buildable product",
                                krate.name
                            ),
                            chain: vec![
                                FlowStep {
                                    what: format!("feature \"{name}\""),
                                    line: *line,
                                },
                                FlowStep {
                                    what: "cfg-gate".into(),
                                    line: gate_line,
                                },
                            ],
                        });
                        continue;
                    }
                    if !names.contains_key(name)
                        && !cfg.feature_internal.iter().any(|f| f == name)
                        && warned_unmapped.insert(name.clone())
                    {
                        report.diagnostics.push(Diagnostic {
                            pass: Pass::CfgGate,
                            krate: krate.name.clone(),
                            file: file.path.clone(),
                            line: *line,
                            severity: Severity::Warning,
                            tier: Confidence::FlowConfirmed,
                            code: "unmapped-feature",
                            message: format!(
                                "unmapped-feature: `{name}` composes no model feature and is not listed under [feature-internal] in lint.toml"
                            ),
                            chain: vec![FlowStep {
                                what: format!("feature \"{name}\""),
                                line: *line,
                            }],
                        });
                    }
                }

                // Conjunctive requirements vs alternative groups.
                let mut req = Vec::new();
                pred.required(&mut req);
                for x in 0..req.len() {
                    for y in x + 1..req.len() {
                        let (na, la) = &req[x];
                        let (nb, lb) = &req[y];
                        if na == nb {
                            continue;
                        }
                        let (Some(ma), Some(mb)) = (names.get(na), names.get(nb)) else {
                            continue;
                        };
                        if ma != mb && same_alternative_group(model, ma, mb) {
                            report.diagnostics.push(Diagnostic {
                                pass: Pass::CfgGate,
                                krate: krate.name.clone(),
                                file: file.path.clone(),
                                line: *la,
                                severity: Severity::Violation,
                                tier: Confidence::FlowConfirmed,
                                code: "alt-group-conflict",
                                message: format!(
                                    "alt-group-conflict: gate requires both `{na}` ({ma}) and `{nb}` ({mb}), distinct members of an Alternative group — dead under every valid configuration"
                                ),
                                chain: vec![
                                    FlowStep {
                                        what: format!("feature \"{na}\""),
                                        line: *la,
                                    },
                                    FlowStep {
                                        what: format!("feature \"{nb}\""),
                                        line: *lb,
                                    },
                                    FlowStep {
                                        what: "cfg-gate".into(),
                                        line: gate_line,
                                    },
                                ],
                            });
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fame_derivation::lex_with_strings;

    fn gates(src: &str) -> Vec<(Pred, u32)> {
        find_gates(&lex_with_strings(src))
    }

    #[test]
    fn finds_attribute_and_macro_gates() {
        let g = gates(
            "#[cfg(feature = \"lru\")]\nfn a() {}\nfn b() { if cfg!(all(feature = \"x\", test)) {} }",
        );
        assert_eq!(g.len(), 2);
        let mut f = Vec::new();
        g[0].0.features(&mut f);
        assert_eq!(f, [("lru".to_string(), 1)]);
        let mut f2 = Vec::new();
        g[1].0.features(&mut f2);
        assert_eq!(f2, [("x".to_string(), 3)]);
    }

    #[test]
    fn cfg_attr_first_argument_is_the_predicate() {
        let g = gates("#[cfg_attr(feature = \"obs\", derive(Debug))]\nstruct S;");
        assert_eq!(g.len(), 1);
        let mut f = Vec::new();
        g[0].0.features(&mut f);
        assert_eq!(f, [("obs".to_string(), 1)]);
    }

    #[test]
    fn required_set_sees_through_all_but_not_any() {
        let g =
            gates("#[cfg(all(feature = \"a\", any(feature = \"b\", feature = \"c\")))]\nfn f() {}");
        let mut req = Vec::new();
        g[0].0.required(&mut req);
        assert_eq!(req.len(), 1);
        assert_eq!(req[0].0, "a");
    }

    #[test]
    fn macro_definition_dollar_feature_is_opaque() {
        // `feature = $name` inside macro_rules! must parse as Other, not
        // crash or produce a phantom feature.
        let g = gates("macro_rules! m { ($name:literal) => { cfg!(feature = $name) } }");
        let mut f = Vec::new();
        for (p, _) in &g {
            p.features(&mut f);
        }
        assert!(f.is_empty());
    }

    #[test]
    fn strings_in_test_fixtures_are_not_gates() {
        // A cfg! inside a *string literal* is data, not a gate.
        let g = gates(r##"fn t() { let src = "if cfg!(feature = \"net\") { }"; run(src); }"##);
        assert!(g.is_empty());
    }
}
