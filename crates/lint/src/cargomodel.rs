//! Pass B, manifest half: the `fame-dbms` `[features]` table against the
//! feature model it composes, in both directions. The model is the one
//! specification (VDBMS and SpecDB argue for a single variational spec
//! mapped to its modules); Cargo, `compile_error!` and
//! `DbmsConfig::check` are how the code keeps it. Four violations:
//!
//! 1. **cargo-unmapped**: a `fame-dbms` feature that names no model
//!    feature in `FAME_CARGO_FEATURES` and is no `[feature-internal]`
//!    preset.
//! 2. **implication-unentailed**: `f = ["g", ..]` composes `g` whenever
//!    `f`, but the model has valid products with `f`'s feature and
//!    without `g`'s — Cargo forces what the model leaves free (or
//!    forbids).
//! 3. **constraint-unenforced**: a cross-tree constraint `P -> Q` that
//!    nothing enforces. At build level, every combination of cargo
//!    features naming `P` must compose a feature naming each `q` of `Q`
//!    (through the manifest's implications), or trip a top-level
//!    `#[cfg(..)] compile_error!`. This is required when `P` is one
//!    feature — otherwise that feature is dead in some build — or when
//!    every feature of `P` is build-bound. At instance level,
//!    `DbmsConfig::check` must hold a gate requiring a cargo feature of
//!    every feature of `P`: required when some `q` is bound per
//!    instance, or when the build level does not enforce the constraint.
//! 4. **constraint-shape**: a constraint that is not a conjunction of
//!    features implying a conjunction of features, which this pass
//!    cannot check.

use std::collections::{BTreeMap, BTreeSet};

use fame_derivation::{Confidence, FlowStep, Token};
use fame_feature_model::models::{fame_feature_of, Binding, FAME_CARGO_FEATURES};
use fame_feature_model::{FeatureId, FeatureModel, Prop, SatResult};

use crate::analysis::ParsedCrate;
use crate::cfggate::{find_gates, Pred, CORE};
use crate::config::LintConfig;
use crate::report::{Diagnostic, Pass, Report, Severity};

/// Check the `fame-dbms` crate's manifest against the model.
pub fn check(core: &ParsedCrate, cfg: &LintConfig, model: &FeatureModel, report: &mut Report) {
    let mut out = Out { core, report };
    let is_preset = |f: &str| cfg.feature_internal.iter().any(|p| p == f);

    for (f, decl) in &core.features {
        if fame_feature_of(f).is_none() && !is_preset(f) {
            out.manifest(
                "cargo-unmapped",
                decl.line,
                format!(
                    "cargo-unmapped: `{f}` names no model feature in FAME_CARGO_FEATURES and is no [feature-internal] preset"
                ),
            );
        }
    }

    for (f, decl) in &core.features {
        let Some((mf, _)) = fame_feature_of(f) else {
            continue;
        };
        for g in &decl.implies {
            let Some((mg, _)) = fame_feature_of(g) else {
                continue;
            };
            if !entails(model, model.id(mf), model.id(mg)) {
                out.manifest(
                    "implication-unentailed",
                    decl.line,
                    format!(
                        "implication-unentailed: `{f} = [\"{g}\", ..]` composes {mg} whenever {mf}, but the {} model has valid products with {mf} and without {mg}",
                        model.name()
                    ),
                );
            }
        }
    }

    let compile_errors = compile_error_gates(core);
    let (check_at, check_gates) = check_fn_gates(core);
    for c in model.constraints() {
        let label = c.describe(model);
        let Some((premise, conclusion)) = implication_shape(c.prop()) else {
            out.manifest(
                "constraint-shape",
                0,
                format!("constraint-shape: `{label}` is not a conjunction implying a conjunction; Pass B cannot check who enforces it"),
            );
            continue;
        };
        let name = |id: FeatureId| model.feature(id).name();
        let bound_per_instance =
            |id: FeatureId| cargo_names(name(id)).any(|(_, b)| b == Binding::Instance);

        let gap = build_gap(core, &premise, &conclusion, &compile_errors, &name);
        let build_required = premise.len() == 1 || !premise.iter().any(|&p| bound_per_instance(p));
        if let Some((choice, q)) = gap.as_ref().filter(|_| build_required) {
            let line = core.features.get(choice[0]).map_or(0, |d| d.line);
            out.manifest(
                "constraint-unenforced",
                line,
                format!(
                    "constraint-unenforced: the model says `{label}`, but a build composing {} need not compose {} (no Cargo implication, no compile_error!)",
                    choice.join(" + "),
                    name(*q)
                ),
            );
        }

        let check_required =
            (gap.is_some() && !build_required) || conclusion.iter().any(|&q| bound_per_instance(q));
        let guarded = check_gates.iter().any(|required| {
            premise
                .iter()
                .all(|&p| cargo_names(name(p)).any(|(n, _)| required.contains(n)))
        });
        if check_required && !guarded {
            let (file, line) = check_at.clone();
            out.push(
                "constraint-unenforced",
                file,
                line,
                format!(
                    "constraint-unenforced: the model says `{label}` and an instance chooses its features, but DbmsConfig::check has no gate requiring a cargo feature of each of {}",
                    premise.iter().map(|&p| name(p)).collect::<Vec<_>>().join(", ")
                ),
            );
        }
    }
}

/// Where diagnostics go.
struct Out<'a> {
    core: &'a ParsedCrate,
    report: &'a mut Report,
}

impl Out<'_> {
    fn manifest(&mut self, code: &'static str, line: u32, message: String) {
        let file = self.core.manifest.clone();
        self.push(code, file, line, message);
    }

    fn push(&mut self, code: &'static str, file: String, line: u32, message: String) {
        self.report.diagnostics.push(Diagnostic {
            pass: Pass::CfgGate,
            krate: CORE.to_string(),
            file,
            line,
            severity: Severity::Violation,
            tier: Confidence::FlowConfirmed,
            code,
            chain: vec![FlowStep {
                what: code.to_string(),
                line,
            }],
            message,
        });
    }
}

/// The cargo features that compose a model feature, with their binding.
fn cargo_names(feature: &str) -> impl Iterator<Item = (&'static str, Binding)> + '_ {
    FAME_CARGO_FEATURES
        .iter()
        .filter(move |(_, f, _)| *f == feature)
        .map(|&(cargo, _, binding)| (cargo, binding))
}

/// Does every valid product with `a` have `b`?
fn entails(model: &FeatureModel, a: FeatureId, b: FeatureId) -> bool {
    let decided = BTreeMap::from([(a, true), (b, false)]);
    a == b || model.satisfiable_with(&decided) == SatResult::Unsatisfiable
}

/// `P -> Q` with `P` and `Q` conjunctions of features.
fn implication_shape(prop: &Prop) -> Option<(Vec<FeatureId>, Vec<FeatureId>)> {
    fn conjunction(p: &Prop) -> Option<Vec<FeatureId>> {
        match p {
            Prop::Var(f) => Some(vec![*f]),
            Prop::And(ps) => ps
                .iter()
                .map(conjunction)
                .try_fold(Vec::new(), |mut acc, v| {
                    acc.extend(v?);
                    Some(acc)
                }),
            _ => None,
        }
    }
    match prop {
        Prop::Implies(p, q) => Some((conjunction(p)?, conjunction(q)?)),
        _ => None,
    }
}

/// A combination of cargo features naming the premise (one per premise
/// feature) and a conclusion feature that a build of it need not
/// compose, if there is one.
fn build_gap<'n>(
    core: &ParsedCrate,
    premise: &[FeatureId],
    conclusion: &[FeatureId],
    compile_errors: &[Pred],
    name: &impl Fn(FeatureId) -> &'n str,
) -> Option<(Vec<&'static str>, FeatureId)> {
    let mut choices: Vec<Vec<&'static str>> = vec![Vec::new()];
    for &p in premise {
        choices = choices
            .iter()
            .flat_map(|c| {
                cargo_names(name(p)).map(move |(n, _)| {
                    let mut c = c.clone();
                    c.push(n);
                    c
                })
            })
            .collect();
    }
    for choice in choices {
        let composed: BTreeSet<&str> = choice.iter().flat_map(|f| closure(core, f)).collect();
        for &q in conclusion {
            let q_names: Vec<&str> = cargo_names(name(q)).map(|(n, _)| n).collect();
            if q_names.iter().any(|n| composed.contains(n)) {
                continue;
            }
            if !compile_errors
                .iter()
                .any(|gate| always_fires(core, gate, &choice, &q_names))
            {
                return Some((choice, q));
            }
        }
    }
    None
}

/// `f` and every `fame-dbms` feature it switches on, transitively.
fn closure<'c>(core: &'c ParsedCrate, f: &'c str) -> BTreeSet<&'c str> {
    let mut out = BTreeSet::new();
    let mut stack = vec![f];
    while let Some(g) = stack.pop() {
        if out.insert(g) {
            if let Some(decl) = core.features.get(g) {
                stack.extend(decl.implies.iter().map(String::as_str));
            }
        }
    }
    out
}

/// Does `gate` hold in every build that composes `on` but none of `off`?
/// Builds range over the features the gate tests, closed under the
/// manifest's implications.
fn always_fires(core: &ParsedCrate, gate: &Pred, on: &[&str], off: &[&str]) -> bool {
    let mut tested = Vec::new();
    gate.features(&mut tested);
    let free: BTreeSet<&str> = tested
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| !on.contains(n) && !off.contains(n))
        .collect();
    let free: Vec<&str> = free.into_iter().collect();
    (0..1u32 << free.len()).all(|subset| {
        let mut composed: BTreeSet<&str> = BTreeSet::new();
        for f in on.iter().copied().chain(
            (0..free.len())
                .filter(|i| subset & 1 << i != 0)
                .map(|i| free[i]),
        ) {
            composed.extend(closure(core, f));
        }
        if off.iter().any(|f| composed.contains(f)) {
            return true; // not a build that composes none of `off`
        }
        gate.eval(&|f| composed.contains(f))
    })
}

/// Predicates of the crate's top-level `#[cfg(..)] compile_error!(..)`.
fn compile_error_gates(core: &ParsedCrate) -> Vec<Pred> {
    let mut out = Vec::new();
    for file in &core.files {
        let toks = &file.toks;
        for i in 0..toks.len() {
            if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
                let Some(close) = attribute_end(toks, i + 1) else {
                    continue;
                };
                let fires = toks
                    .get(close + 1)
                    .is_some_and(|t| t.is_ident("compile_error"))
                    && toks.get(close + 2).is_some_and(|t| t.is_punct("!"));
                if fires {
                    out.extend(find_gates(&toks[i..=close]).into_iter().map(|(p, _)| p));
                }
            }
        }
    }
    out
}

/// Index of the `]` closing the attribute whose `[` is at `open`.
fn attribute_end(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Where `fn check` in `config.rs` (`DbmsConfig::check`) is — the
/// manifest when there is none — and the conjunctive feature requirements
/// of every gate inside its body.
fn check_fn_gates(core: &ParsedCrate) -> ((String, u32), Vec<BTreeSet<String>>) {
    for file in core.files.iter().filter(|f| f.path.ends_with("config.rs")) {
        let toks = &file.toks;
        let Some(start) = (0..toks.len().saturating_sub(1))
            .find(|&i| toks[i].is_ident("fn") && toks[i + 1].is_ident("check"))
        else {
            continue;
        };
        let at = (file.path.clone(), toks[start].line);
        let Some(open) = (start..toks.len()).find(|&i| toks[i].is_punct("{")) else {
            return (at, Vec::new());
        };
        let mut depth = 0;
        let mut end = toks.len();
        for (j, t) in toks.iter().enumerate().skip(open) {
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    end = j;
                    break;
                }
            }
        }
        let gates = find_gates(&toks[open..end])
            .into_iter()
            .map(|(pred, _)| {
                let mut req = Vec::new();
                pred.required(&mut req);
                req.into_iter().map(|(n, _)| n).collect()
            })
            .collect();
        return (at, gates);
    }
    ((core.manifest.clone(), 0), Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ParsedWorkspace;
    use crate::source::{CrateSource, FeatureDecl, SourceFile, Workspace};
    use fame_feature_model::models;

    /// Violation codes and messages of Pass B's manifest half over a
    /// synthetic `fame-dbms` crate.
    fn violations(features: &[(&str, &[&str])], lib: &str) -> Vec<String> {
        let ws = Workspace {
            crates: vec![CrateSource {
                name: CORE.to_string(),
                manifest: "Cargo.toml".to_string(),
                features: features
                    .iter()
                    .enumerate()
                    .map(|(i, (name, implies))| {
                        let decl = FeatureDecl {
                            line: i as u32 + 1,
                            implies: implies.iter().map(|s| s.to_string()).collect(),
                        };
                        (name.to_string(), decl)
                    })
                    .collect(),
                files: vec![SourceFile {
                    path: "config.rs".to_string(),
                    text: lib.to_string(),
                }],
            }],
        };
        let parsed = ParsedWorkspace::build(&ws);
        let cfg = LintConfig::parse(
            "[lock-order]\norder = [\"a\"]\n[feature-internal]\nnames = [\"full\"]\n",
        )
        .unwrap();
        let mut report = Report::default();
        check(&parsed.crates[0], &cfg, &models::fame_dbms(), &mut report);
        report
            .diagnostics
            .iter()
            .map(|d| d.message.clone())
            .collect()
    }

    const CHECK: &str = "impl C { fn check(&self) { \
        #[cfg(all(feature = \"os-flash\", feature = \"buffer\"))] if a {} \
        #[cfg(feature = \"concurrency-multi-writer\")] if b {} \
        #[cfg(all(feature = \"transactions\", feature = \"buffer\"))] if c {} } }";

    #[test]
    fn unentailed_implication_and_unmapped_feature() {
        let v = violations(
            &[
                ("full", &["crypto"]),
                ("crypto", &["replication"]),
                ("replication", &[]),
                ("turbo", &[]),
            ],
            CHECK,
        );
        assert!(
            v.iter()
                .any(|m| m.starts_with("implication-unentailed: `crypto")),
            "{v:?}"
        );
        assert!(
            v.iter().any(|m| m.starts_with("cargo-unmapped: `turbo`")),
            "{v:?}"
        );
        assert!(
            !v.iter().any(|m| m.contains("`full`")),
            "presets map to nothing: {v:?}"
        );
    }

    #[test]
    fn single_premise_constraint_needs_cargo_or_compile_error() {
        let missing = violations(&[("api-batch", &[]), ("api-put", &[])], CHECK);
        assert!(
            missing
                .iter()
                .any(|m| m.contains("`(Batch -> Put)`, but a build composing api-batch")),
            "{missing:?}"
        );
        let by_cargo = violations(&[("api-batch", &["api-put"]), ("api-put", &[])], CHECK);
        assert!(
            !by_cargo.iter().any(|m| m.contains("Batch -> Put")),
            "{by_cargo:?}"
        );
        let by_compile_error = violations(
            &[("api-batch", &[]), ("api-put", &[])],
            &format!(
                "#[cfg(all(feature = \"api-batch\", not(feature = \"api-put\")))]\n\
                 compile_error!(\"batch needs put\");\n{CHECK}"
            ),
        );
        assert!(
            !by_compile_error.iter().any(|m| m.contains("Batch -> Put")),
            "{by_compile_error:?}"
        );
    }

    #[test]
    fn instance_bound_constraint_needs_a_check_gate() {
        let features: &[(&str, &[&str])] =
            &[("os-flash", &[]), ("buffer", &[]), ("alloc-static", &[])];
        let label = "(NutOS & BufferManager) -> Static";
        assert!(!violations(features, CHECK)
            .iter()
            .any(|m| m.contains(label)));
        let unguarded = violations(
            features,
            "impl C { fn check(&self) { #[cfg(feature = \"os-flash\")] if a {} } }",
        );
        assert!(
            unguarded
                .iter()
                .any(|m| m.contains(label) && m.contains("DbmsConfig::check")),
            "{unguarded:?}"
        );
    }
}
