//! The application model of Figure 3: what the static analysis extracts
//! from client sources.
//!
//! The paper builds "a control flow graph with additional data flow and
//! type information, abstracting from syntactic details". This module
//! orchestrates the staged engine that reproduces it:
//!
//! 1. [`crate::lexer`] — token stream (comments, strings, preprocessor
//!    lines discarded);
//! 2. [`crate::cfg`] — per-function basic-block CFGs with dead-branch
//!    pruning (`if (0)`, `if false`) and `cfg!`/`#[cfg]` gate tracking;
//! 3. [`crate::dataflow`] — constant/flag propagation: `=` kills, `|=`
//!    accumulates, helper-function return summaries flow interprocedurally,
//!    and every constant that reaches a call-argument sink carries its
//!    def-use chain as provenance.
//!
//! The extracted facts are the same three kinds the model queries consume
//! — **calls**, **`ALL_CAPS` constants**, **`Type::Variant` paths** — but
//! each now carries a [`Confidence`] tier:
//!
//! * [`Confidence::FlowConfirmed`] — on a reachable, un-gated CFG path;
//!   constants demonstrably reach a call sink (directly or via def-use
//!   chain / helper return).
//! * [`Confidence::Syntactic`] — occurs in the text only: dead branches,
//!   `cfg`-gated code, constants never passed to a call. This is the old
//!   lexical extractor's (over-approximating) contract.
//!
//! Function-level reachability still applies: a function reachable from
//! `main` only through dead/gated call sites contributes facts at the
//! `Syntactic` tier, and a function reachable from nowhere contributes
//! nothing at all — dead code must not pull features into the product
//! (that is the whole point of tailoring).

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{detect_lang, parse_functions, parse_nodes, Cfg, FnDef, Lang};
use crate::dataflow::{analyze_function, emit_lexical, FactRecord, FlagSet};
use crate::lexer::lex;

/// Name of the pseudo-function holding tokens outside every function body
/// (globals, prototypes, module scaffolding). Always treated as live.
const TOPLEVEL: &str = "<toplevel>";

/// Flow chains kept per fact (provenance evidence, not semantics).
const MAX_FLOWS: usize = 4;

/// One extracted fact.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fact {
    /// A function/method call by name (receiver stripped).
    Call(String),
    /// An `ALL_CAPS` constant reference.
    Constant(String),
    /// A `Type::Variant` path reference.
    Path(String, String),
}

impl Fact {
    /// Human-readable rendering for evidence reports.
    pub fn describe(&self) -> String {
        match self {
            Fact::Call(n) => format!("call to `{n}()`"),
            Fact::Constant(c) => format!("constant `{c}`"),
            Fact::Path(t, v) => format!("path `{t}::{v}`"),
        }
    }
}

/// How strongly the analysis believes a fact reflects real API usage.
/// Ordered: `Syntactic < FlowConfirmed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Confidence {
    /// The fact occurs in the text (the old lexical contract): possibly in
    /// a dead branch, `cfg`-gated code, or never reaching any API call.
    Syntactic,
    /// The fact sits on a reachable, un-gated control-flow path; constants
    /// demonstrably flow into a call-argument sink.
    FlowConfirmed,
}

/// One hop of a def-use chain: a constant's origin, the variables and
/// helper calls that carried it, and finally the sink call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowStep {
    /// What carried the value at this hop (`DB_INIT_TXN`, `flags`,
    /// `txn_env_flags()`, `open(..)`).
    pub what: String,
    /// Source line of the hop.
    pub line: u32,
}

/// Render a def-use chain as `DB_INIT_TXN@3 -> flags@3 -> open(..)@5`.
pub fn render_flow(chain: &[FlowStep]) -> String {
    chain
        .iter()
        .map(|s| format!("{}@{}", s.what, s.line))
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Everything the model knows about one fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactInfo {
    lines: Vec<u32>,
    tier: Confidence,
    flows: Vec<Vec<FlowStep>>,
}

impl FactInfo {
    /// Source lines the fact occurs on (sorted, deduplicated).
    pub fn lines(&self) -> &[u32] {
        &self.lines
    }

    /// Best confidence tier reached by any occurrence.
    pub fn tier(&self) -> Confidence {
        self.tier
    }

    /// Def-use chains that carried the fact to a sink (up to
    /// [`MAX_FLOWS`]; empty for facts confirmed by position alone).
    pub fn flows(&self) -> &[Vec<FlowStep>] {
        &self.flows
    }
}

/// The analyzed application.
#[derive(Debug, Clone, Default)]
pub struct AppModel {
    /// Facts with evidence and confidence.
    facts: BTreeMap<Fact, FactInfo>,
    /// Functions found in the sources.
    functions: BTreeSet<String>,
    /// Whether call-graph reachability pruning was applied.
    pruned: bool,
    /// Detected source language (`None` for fragment/merged models).
    lang: Option<Lang>,
}

impl AppModel {
    /// Analyze one source text with the full flow-sensitive pipeline.
    /// The language (Rust vs C-style) is auto-detected; call-graph pruning
    /// applies whenever a `main` function exists.
    pub fn from_source(source: &str) -> AppModel {
        let tokens = lex(source);
        let lang = detect_lang(&tokens);
        let (fns, toplevel) = crate::cfg::parse_program(&tokens, lang);
        let mut all_fns = fns;
        let fn_names: BTreeSet<String> = all_fns.iter().map(|f| f.name.clone()).collect();
        all_fns.push(FnDef {
            name: TOPLEVEL.to_string(),
            body: toplevel,
            line: 1,
            gated: false,
        });

        // Per-function CFGs.
        let cfgs: Vec<(String, Cfg)> = all_fns
            .iter()
            .map(|f| {
                let nodes = parse_nodes(&f.body, lang);
                let cfg = if f.gated {
                    Cfg::build_gated(&nodes)
                } else {
                    Cfg::build(&nodes)
                };
                (f.name.clone(), cfg)
            })
            .collect();

        // Interprocedural return summaries, to a fixpoint.
        let mut summaries: BTreeMap<String, FlagSet> = BTreeMap::new();
        for _ in 0..8 {
            let mut changed = false;
            for (name, cfg) in &cfgs {
                let a = analyze_function(cfg, &summaries);
                changed |= summaries.entry(name.clone()).or_default().union(&a.returns);
            }
            if !changed {
                break;
            }
        }

        // Final records with converged summaries.
        let per_fn: Vec<(String, Vec<FactRecord>)> = cfgs
            .iter()
            .map(|(name, cfg)| (name.clone(), analyze_function(cfg, &summaries).records))
            .collect();

        // Call graph. Flow-confirmed call sites make callees fully live;
        // calls from dead branches / gated code give "shadow" liveness
        // (facts kept, tier capped at Syntactic).
        let mut all_names = fn_names.clone();
        all_names.insert(TOPLEVEL.to_string());
        let mut fc_edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut any_edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (name, records) in &per_fn {
            let key = all_names
                .get(name.as_str())
                .map(|s| s.as_str())
                .unwrap_or(TOPLEVEL);
            let fc = fc_edges.entry(key).or_default();
            let any = any_edges.entry(key).or_default();
            for r in records {
                if let Fact::Call(n) = &r.fact {
                    if let Some(callee) = fn_names.get(n.as_str()) {
                        any.insert(callee.as_str());
                        if r.tier == Confidence::FlowConfirmed {
                            fc.insert(callee.as_str());
                        }
                    }
                }
            }
        }

        let has_main = fn_names.contains("main");
        let mut roots: Vec<&str> = vec![TOPLEVEL];
        if has_main {
            roots.push("main");
        } else {
            roots.extend(fn_names.iter().map(|n| n.as_str()));
        }
        let live = bfs(&roots, &fc_edges);
        // Shadow: anything the live set can reach through *any* call site.
        let shadow_roots: Vec<&str> = live.iter().copied().collect();
        let shadow = bfs(&shadow_roots, &any_edges);

        let mut model = AppModel {
            pruned: has_main,
            lang: Some(lang),
            ..AppModel::default()
        };
        for (name, records) in per_fn {
            if live.contains(name.as_str()) {
                model.ingest(records, false);
            } else if shadow.contains(name.as_str()) {
                model.ingest(records, true);
            }
        }
        model.functions = fn_names;
        model.finalize();
        model
    }

    /// Purely lexical analysis: every textual fact at the `Syntactic`
    /// tier, no CFG, no pruning. Use for fragments that are not a whole
    /// program, or to reproduce the old over-approximating extractor.
    pub fn syntactic(source: &str) -> AppModel {
        let tokens = lex(source);
        let lang = detect_lang(&tokens);
        let mut model = AppModel {
            lang: Some(lang),
            ..AppModel::default()
        };
        model.ingest(emit_lexical(&tokens), true);
        model.functions = parse_functions(&tokens, lang)
            .into_iter()
            .map(|f| f.name)
            .collect();
        model.finalize();
        model
    }

    /// Build a model from bare facts (testing / foreign front ends).
    pub fn from_facts<I: IntoIterator<Item = (Fact, Confidence, u32)>>(facts: I) -> AppModel {
        let mut model = AppModel::default();
        for (fact, tier, line) in facts {
            let info = model.facts.entry(fact).or_insert(FactInfo {
                lines: Vec::new(),
                tier,
                flows: Vec::new(),
            });
            info.tier = info.tier.max(tier);
            info.lines.push(line);
        }
        model.finalize();
        model
    }

    fn ingest(&mut self, records: Vec<FactRecord>, cap_syntactic: bool) {
        for r in records {
            let tier = if cap_syntactic {
                Confidence::Syntactic
            } else {
                r.tier
            };
            let info = self.facts.entry(r.fact).or_insert(FactInfo {
                lines: Vec::new(),
                tier,
                flows: Vec::new(),
            });
            info.tier = info.tier.max(tier);
            info.lines.push(r.line);
            if !cap_syntactic
                && !r.chain.is_empty()
                && info.flows.len() < MAX_FLOWS
                && !info.flows.contains(&r.chain)
            {
                info.flows.push(r.chain);
            }
        }
    }

    fn finalize(&mut self) {
        for info in self.facts.values_mut() {
            info.lines.sort_unstable();
            info.lines.dedup();
        }
    }

    /// Merge another model (multi-file applications).
    pub fn merge(&mut self, other: AppModel) {
        for (fact, info) in other.facts {
            match self.facts.entry(fact) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(info);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let mine = e.get_mut();
                    mine.lines.extend(info.lines);
                    mine.lines.sort_unstable();
                    mine.lines.dedup();
                    mine.tier = mine.tier.max(info.tier);
                    for chain in info.flows {
                        if mine.flows.len() < MAX_FLOWS && !mine.flows.contains(&chain) {
                            mine.flows.push(chain);
                        }
                    }
                }
            }
        }
        self.functions.extend(other.functions);
        self.pruned &= other.pruned;
        if self.lang != other.lang {
            self.lang = None;
        }
    }

    /// Does the model contain a call to `name` (any tier)?
    pub fn has_call(&self, name: &str) -> bool {
        self.facts.contains_key(&Fact::Call(name.to_string()))
    }

    /// Does the model reference constant `name` (any tier)?
    pub fn has_constant(&self, name: &str) -> bool {
        self.facts.contains_key(&Fact::Constant(name.to_string()))
    }

    /// Does the model reference `Type::Variant` (any tier)?
    pub fn has_path(&self, ty: &str, variant: &str) -> bool {
        self.facts
            .contains_key(&Fact::Path(ty.to_string(), variant.to_string()))
    }

    /// Does the fact hold at (at least) the given confidence tier?
    pub fn holds(&self, fact: &Fact, min_tier: Confidence) -> bool {
        self.facts.get(fact).is_some_and(|i| i.tier >= min_tier)
    }

    /// Best confidence tier of a fact, if present.
    pub fn tier_of(&self, fact: &Fact) -> Option<Confidence> {
        self.facts.get(fact).map(|i| i.tier)
    }

    /// Def-use chains that carried a fact to a sink call.
    pub fn flows_of(&self, fact: &Fact) -> &[Vec<FlowStep>] {
        self.facts
            .get(fact)
            .map(|i| i.flows.as_slice())
            .unwrap_or(&[])
    }

    /// Lines where a fact occurs (evidence).
    pub fn lines_of(&self, fact: &Fact) -> &[u32] {
        self.facts
            .get(fact)
            .map(|i| i.lines.as_slice())
            .unwrap_or(&[])
    }

    /// All facts with their evidence (id order).
    pub fn facts(&self) -> impl Iterator<Item = (&Fact, &FactInfo)> {
        self.facts.iter()
    }

    /// Functions found in the sources.
    pub fn functions(&self) -> &BTreeSet<String> {
        &self.functions
    }

    /// Whether dead code was pruned via the call graph.
    pub fn is_pruned(&self) -> bool {
        self.pruned
    }

    /// Detected source language (`None` for fragment/merged models).
    pub fn lang(&self) -> Option<Lang> {
        self.lang
    }
}

fn bfs<'a>(roots: &[&'a str], edges: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> BTreeSet<&'a str> {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut queue: Vec<&str> = roots.to_vec();
    while let Some(f) = queue.pop() {
        if seen.insert(f) {
            if let Some(cs) = edges.get(f) {
                queue.extend(cs.iter().copied());
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_method_calls() {
        let m = AppModel::syntactic("db.put(b\"k\", b\"v\"); store->sync();");
        assert!(m.has_call("put"));
        assert!(m.has_call("sync"));
        assert!(!m.has_call("db"));
    }

    #[test]
    fn extracts_constants_and_paths() {
        let m = AppModel::syntactic(
            "env.open(DB_INIT_TXN | DB_INIT_LOG); let p = CommitPolicy::Group { group_size: 4 };",
        );
        assert!(m.has_constant("DB_INIT_TXN"));
        assert!(m.has_constant("DB_INIT_LOG"));
        assert!(m.has_path("CommitPolicy", "Group"));
    }

    #[test]
    fn comments_are_ignored() {
        let m = AppModel::syntactic("// db.remove(key)\n   db.get(key);");
        assert!(!m.has_call("remove"));
        assert!(m.has_call("get"));
    }

    #[test]
    fn keywords_are_not_calls() {
        let m = AppModel::syntactic("if (x) { while (y) { foo(); } }");
        assert!(!m.has_call("if"));
        assert!(!m.has_call("while"));
        assert!(m.has_call("foo"));
    }

    #[test]
    fn function_definitions_are_not_calls() {
        let m = AppModel::syntactic("fn helper(x: u32) { }");
        assert!(!m.has_call("helper"));
    }

    #[test]
    fn lines_recorded_as_evidence() {
        let m = AppModel::syntactic("a();\nb();\na();");
        assert_eq!(m.lines_of(&Fact::Call("a".into())), &[1, 3]);
        assert_eq!(m.lines_of(&Fact::Call("b".into())), &[2]);
    }

    #[test]
    fn reachability_prunes_dead_code() {
        let src = r#"
fn main() {
    used();
}
fn used() {
    db.put(k, v);
}
fn dead() {
    db.attach_replica();
}
"#;
        let m = AppModel::from_source(src);
        assert!(m.is_pruned());
        assert!(m.has_call("put"));
        assert!(
            !m.has_call("attach_replica"),
            "dead code must not demand features"
        );
    }

    #[test]
    fn reachability_transitive() {
        let src = r#"
fn main() { a(); }
fn a() { b(); }
fn b() { db.begin(); }
fn unrelated() { db.sql(q); }
"#;
        let m = AppModel::from_source(src);
        assert!(m.has_call("begin"));
        assert!(!m.has_call("sql"));
    }

    #[test]
    fn without_main_no_pruning() {
        let src = "fn lib_fn() { db.sql(q); }";
        let m = AppModel::from_source(src);
        assert!(!m.is_pruned());
        assert!(m.has_call("sql"));
    }

    #[test]
    fn merge_combines_facts() {
        let mut a = AppModel::syntactic("db.put(k, v);");
        let b = AppModel::syntactic("db.get(k);");
        a.merge(b);
        assert!(a.has_call("put"));
        assert!(a.has_call("get"));
    }

    #[test]
    fn c_style_sources_work() {
        let src = r#"
int main(void) {
    DB *dbp;
    db_create(&dbp, env, 0);
    dbp->open(dbp, NULL, "x.db", NULL, DB_HASH, DB_CREATE, 0);
    dbp->put(dbp, NULL, &key, &data, 0);
}
"#;
        let m = AppModel::from_source(src);
        assert_eq!(m.lang(), Some(Lang::CStyle), "language auto-detected");
        assert!(m.has_call("db_create"));
        assert!(m.has_call("open"));
        assert!(m.has_call("put"));
        assert!(m.has_constant("DB_HASH"));
        assert!(m.has_constant("DB_CREATE"));
        // Direct call arguments are flow-confirmed.
        assert_eq!(
            m.tier_of(&Fact::Constant("DB_HASH".into())),
            Some(Confidence::FlowConfirmed)
        );
    }

    #[test]
    fn c_dead_functions_are_pruned_too() {
        // The old `reachability: bool` footgun: C sources never got
        // pruning. Auto-detection fixes that.
        let src = r#"
int main(void) {
    live();
    return 0;
}
void live(void) { dbp->put(dbp, NULL, &key, &data, 0); }
void dead(void) { env->rep_start(env, &cdata, DB_REP_MASTER); }
"#;
        let m = AppModel::from_source(src);
        assert_eq!(m.lang(), Some(Lang::CStyle));
        assert!(m.is_pruned());
        assert!(m.has_call("put"));
        assert!(!m.has_call("rep_start"), "uncalled C function is dead");
        assert!(!m.has_constant("DB_REP_MASTER"));
    }

    #[test]
    fn flag_via_variable_is_flow_confirmed_with_provenance() {
        let src = r#"
int main(void) {
    u_int32_t flags = DB_CREATE | DB_INIT_TXN;
    flags |= DB_INIT_LOCK;
    env->open(env, "/x", flags, 0);
    return 0;
}
"#;
        let m = AppModel::from_source(src);
        for c in ["DB_CREATE", "DB_INIT_TXN", "DB_INIT_LOCK"] {
            assert_eq!(
                m.tier_of(&Fact::Constant(c.into())),
                Some(Confidence::FlowConfirmed),
                "{c}"
            );
        }
        let flows = m.flows_of(&Fact::Constant("DB_INIT_LOCK".into()));
        assert!(!flows.is_empty(), "def-use chain recorded");
        let rendered = render_flow(&flows[0]);
        assert!(
            rendered.contains("flags@"),
            "chain passes through the variable: {rendered}"
        );
        assert!(
            rendered.contains("open(..)@"),
            "chain ends at the sink: {rendered}"
        );
    }

    #[test]
    fn flag_via_helper_is_flow_confirmed() {
        let src = r#"
u_int32_t txn_env_flags(void) {
    return DB_INIT_TXN | DB_INIT_LOG | DB_INIT_LOCK;
}
int main(void) {
    env->open(env, "/helper", DB_CREATE | txn_env_flags(), 0);
    return 0;
}
"#;
        let m = AppModel::from_source(src);
        for c in ["DB_INIT_TXN", "DB_INIT_LOG", "DB_INIT_LOCK", "DB_CREATE"] {
            assert_eq!(
                m.tier_of(&Fact::Constant(c.into())),
                Some(Confidence::FlowConfirmed),
                "{c} must flow through the helper to the sink"
            );
        }
        let flows = m.flows_of(&Fact::Constant("DB_INIT_TXN".into()));
        assert!(flows
            .iter()
            .any(|c| c.iter().any(|s| s.what == "txn_env_flags()")));
    }

    #[test]
    fn dead_branch_facts_are_capped_at_syntactic() {
        let src = r#"
int main(void) {
    dbp->open(dbp, NULL, "d.db", NULL, DB_BTREE, DB_CREATE, 0);
    if (0) {
        env->set_encrypt(env, passwd, DB_ENCRYPT_AES);
        env->rep_start(env, &cdata, DB_REP_MASTER);
    }
    return 0;
}
"#;
        let m = AppModel::from_source(src);
        // Still visible (old lexical contract)...
        assert!(m.has_call("set_encrypt"));
        assert!(m.has_constant("DB_ENCRYPT_AES"));
        // ...but not flow-confirmed.
        assert!(!m.holds(&Fact::Call("set_encrypt".into()), Confidence::FlowConfirmed));
        assert!(!m.holds(&Fact::Call("rep_start".into()), Confidence::FlowConfirmed));
        assert!(!m.holds(
            &Fact::Constant("DB_ENCRYPT_AES".into()),
            Confidence::FlowConfirmed
        ));
        // The live facts are.
        assert!(m.holds(
            &Fact::Constant("DB_BTREE".into()),
            Confidence::FlowConfirmed
        ));
    }

    #[test]
    fn functions_called_only_from_dead_branches_are_shadow_live() {
        let src = r#"
fn main() {
    db.put(k, v);
    if false { helper(); }
}
fn helper() { db.sql(q); }
"#;
        let m = AppModel::from_source(src);
        assert!(m.has_call("sql"), "shadow liveness keeps the fact visible");
        assert!(
            !m.holds(&Fact::Call("sql".into()), Confidence::FlowConfirmed),
            "but capped at Syntactic"
        );
        assert!(m.holds(&Fact::Call("put".into()), Confidence::FlowConfirmed));
    }

    #[test]
    fn cfg_gated_code_is_capped_at_syntactic() {
        let src = r#"
fn main() {
    db.put(k, v);
    net_setup();
    if cfg!(feature = "rep") {
        db.rep_start();
    }
}
#[cfg(feature = "net")]
fn net_setup() {
    db.set_encrypt(p, DB_ENCRYPT_AES);
}
"#;
        let m = AppModel::from_source(src);
        assert!(m.has_call("rep_start"));
        assert!(!m.holds(&Fact::Call("rep_start".into()), Confidence::FlowConfirmed));
        assert!(m.has_call("set_encrypt"));
        assert!(
            !m.holds(&Fact::Call("set_encrypt".into()), Confidence::FlowConfirmed),
            "#[cfg]-gated function bodies are not provably in the product"
        );
    }

    #[test]
    fn toplevel_facts_survive() {
        let src = r#"
DB_ENV *global_env;
int main(void) {
    dbp->put(dbp, NULL, &key, &data, 0);
    return 0;
}
"#;
        let m = AppModel::from_source(src);
        assert!(
            m.has_constant("DB_ENV"),
            "globals outside functions are seen"
        );
        assert!(m.has_call("put"));
    }

    #[test]
    fn from_facts_builds_a_model() {
        let m = AppModel::from_facts([
            (Fact::Call("put".into()), Confidence::FlowConfirmed, 3),
            (Fact::Constant("DB_HASH".into()), Confidence::Syntactic, 7),
            (Fact::Call("put".into()), Confidence::Syntactic, 9),
        ]);
        assert!(m.holds(&Fact::Call("put".into()), Confidence::FlowConfirmed));
        assert_eq!(m.lines_of(&Fact::Call("put".into())), &[3, 9]);
        assert!(!m.holds(&Fact::Constant("DB_HASH".into()), Confidence::FlowConfirmed));
    }
}
