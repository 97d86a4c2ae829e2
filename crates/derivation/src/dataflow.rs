//! Constant/flag data-flow — stage three of the §3.1 pipeline.
//!
//! A forward may-analysis over each function's CFG tracks, per variable, a
//! **flag set**: the `ALL_CAPS` constants (and `Type::Variant` paths) that
//! may be bound to it, together with the def-use chain that carried each
//! one there. `=` kills the set, `|=` unions into it — mirroring the
//! Berkeley DB idiom
//!
//! ```c
//! u_int32_t flags = DB_CREATE | DB_INIT_TXN;
//! flags |= DB_INIT_LOCK;
//! env->open(env, home, flags, 0);
//! ```
//!
//! where all three constants must be attributed to the `open` call site.
//! Helper functions that *return* flags are handled with interprocedural
//! return summaries (computed to a fixpoint by [`crate::appmodel`]).
//!
//! The emission pass turns the converged environments into
//! [`FactRecord`]s with a confidence tier:
//!
//! * `FlowConfirmed` — the fact sits on a reachable, un-gated CFG path;
//!   for constants, it demonstrably reaches a call-argument sink (directly
//!   or through a def-use chain).
//! * `Syntactic` — the fact merely occurs in the text: dead branches,
//!   `cfg!`-gated code, constants that never reach a call.

use std::collections::BTreeMap;

use crate::appmodel::{Confidence, Fact, FlowStep};
use crate::cfg::{match_paren, Cfg, Stmt};
use crate::lexer::{TokKind, Token};

/// Longest def-use chain kept per atom.
const MAX_CHAIN: usize = 8;

/// Call-detection keyword exclusions (same set the lexical extractor used).
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "loop", "switch",
];

/// A set of constant/path atoms, each with the def-use chain that carried
/// it here. The first chain recorded for an atom wins (chains are
/// provenance evidence, not semantics, so one witness suffices and keeps
/// the fixpoint stable).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlagSet {
    atoms: BTreeMap<Fact, Vec<FlowStep>>,
}

impl FlagSet {
    /// Add an atom; keeps the existing chain if already present.
    /// Returns whether the set changed.
    pub fn insert(&mut self, fact: Fact, chain: Vec<FlowStep>) -> bool {
        if let std::collections::btree_map::Entry::Vacant(e) = self.atoms.entry(fact) {
            e.insert(chain);
            true
        } else {
            false
        }
    }

    /// Union another set in; returns whether anything was added.
    pub fn union(&mut self, other: &FlagSet) -> bool {
        let mut changed = false;
        for (f, c) in &other.atoms {
            changed |= self.insert(f.clone(), c.clone());
        }
        changed
    }

    /// A copy with `what@line` appended to every chain (flowing the whole
    /// set through an assignment or a helper-call boundary).
    pub fn with_step(&self, what: &str, line: u32) -> FlagSet {
        let atoms = self
            .atoms
            .iter()
            .map(|(f, chain)| {
                let mut chain = chain.clone();
                if chain.len() < MAX_CHAIN {
                    chain.push(FlowStep {
                        what: what.to_string(),
                        line,
                    });
                }
                (f.clone(), chain)
            })
            .collect();
        FlagSet { atoms }
    }

    /// Iterate the atoms with their chains.
    pub fn iter(&self) -> impl Iterator<Item = (&Fact, &Vec<FlowStep>)> {
        self.atoms.iter()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }
}

/// One emitted fact with its provenance.
#[derive(Debug, Clone)]
pub struct FactRecord {
    /// The fact.
    pub fact: Fact,
    /// Source line of the fact's textual origin.
    pub line: u32,
    /// Confidence tier.
    pub tier: Confidence,
    /// Def-use chain from origin to sink (empty for plain occurrences).
    pub chain: Vec<FlowStep>,
}

/// Result of analyzing one function.
#[derive(Debug, Default)]
pub struct FnAnalysis {
    /// All facts found in the body, tiered.
    pub records: Vec<FactRecord>,
    /// Flag set flowing out of `return`/tail expressions (the function's
    /// interprocedural summary).
    pub returns: FlagSet,
}

type Env = BTreeMap<String, FlagSet>;

/// Run the flag data-flow over one function's CFG. `summaries` maps
/// helper-function names to their return flag sets (pass an empty map for
/// a purely intraprocedural run).
pub fn analyze_function(cfg: &Cfg, summaries: &BTreeMap<String, FlagSet>) -> FnAnalysis {
    let reach = cfg.reachable();
    let preds = cfg.preds();
    let n = cfg.blocks.len();

    // Fixpoint over per-block exit environments.
    let mut out_env: Vec<Env> = vec![Env::new(); n];
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 64 {
        changed = false;
        rounds += 1;
        for b in 0..n {
            if !reach[b] {
                continue;
            }
            let mut env = join_preds(&preds[b], &reach, &out_env);
            if !cfg.blocks[b].gated {
                for stmt in &cfg.blocks[b].stmts {
                    apply_stmt(stmt, &mut env, summaries);
                }
            }
            if out_env[b] != env {
                out_env[b] = env;
                changed = true;
            }
        }
    }

    // Emission pass with converged environments.
    let mut out = FnAnalysis::default();
    let empty = Env::new();
    for b in 0..n {
        let blk = &cfg.blocks[b];
        if !reach[b] {
            for stmt in &blk.stmts {
                emit_stmt(
                    stmt,
                    Confidence::Syntactic,
                    &empty,
                    summaries,
                    &mut out.records,
                );
            }
            continue;
        }
        let tier = if blk.gated {
            Confidence::Syntactic
        } else {
            Confidence::FlowConfirmed
        };
        let mut env = join_preds(&preds[b], &reach, &out_env);
        for stmt in &blk.stmts {
            emit_stmt(stmt, tier, &env, summaries, &mut out.records);
            if !blk.gated {
                if stmt.is_return || stmt.is_tail {
                    out.returns.union(&eval(&stmt.tokens, &env, summaries));
                }
                apply_stmt(stmt, &mut env, summaries);
            }
        }
    }
    out
}

/// Purely lexical emission over a raw token stream (no CFG, no
/// environments): every fact at the `Syntactic` tier. This is the
/// old extractor's contract, kept for fragments (`AppModel::syntactic`).
pub fn emit_lexical(tokens: &[Token]) -> Vec<FactRecord> {
    let stmt = Stmt {
        tokens: tokens.to_vec(),
        is_return: false,
        is_tail: false,
    };
    let mut records = Vec::new();
    emit_stmt(
        &stmt,
        Confidence::Syntactic,
        &Env::new(),
        &BTreeMap::new(),
        &mut records,
    );
    records
}

fn join_preds(preds: &[usize], reach: &[bool], out_env: &[Env]) -> Env {
    let mut env = Env::new();
    for &p in preds {
        if !reach[p] {
            continue;
        }
        for (var, set) in &out_env[p] {
            env.entry(var.clone()).or_default().union(set);
        }
    }
    env
}

/// Is this identifier text the `ALL_CAPS` constant idiom?
fn is_const_ident(text: &str) -> bool {
    text.len() > 2
        && text
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Find the depth-0 assignment operator (`=` or `|=`); returns
/// (token index, is-or-assign).
fn find_assign(toks: &[Token]) -> Option<(usize, bool)> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "=" if depth == 0 && t.kind == TokKind::Punct => return Some((k, false)),
            "|=" if depth == 0 && t.kind == TokKind::Punct => return Some((k, true)),
            _ => {}
        }
    }
    None
}

/// Extract the assigned variable from LHS tokens: `let mut flags`,
/// `u_int32_t flags`, `flags`, `let flags: u32`. Rejects compound LHS
/// (member access, indexing, destructuring, paths).
fn lhs_var(toks: &[Token]) -> Option<String> {
    // Drop a `: Type` annotation.
    let mut end = toks.len();
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            ":" if depth == 0 && t.kind == TokKind::Punct => {
                end = k;
                break;
            }
            _ => {}
        }
    }
    let toks = &toks[..end];
    if toks.iter().any(|t| {
        matches!(t.text.as_str(), "." | "->" | "[" | "(" | "::") && t.kind == TokKind::Punct
    }) {
        return None;
    }
    let last = toks.last()?;
    if last.kind != TokKind::Ident {
        return None;
    }
    Some(last.text.clone())
}

/// Transfer function of one statement: updates the variable environment if
/// the statement is an assignment.
fn apply_stmt(stmt: &Stmt, env: &mut Env, summaries: &BTreeMap<String, FlagSet>) {
    let toks = &stmt.tokens;
    let Some((op, is_or)) = find_assign(toks) else {
        return;
    };
    let Some(var) = lhs_var(&toks[..op]) else {
        return;
    };
    let set = eval(&toks[op + 1..], env, summaries).with_step(&var, stmt.line());
    if is_or {
        env.entry(var).or_default().union(&set);
    } else {
        env.insert(var, set);
    }
}

/// Evaluate an expression region into the flag set it may carry: direct
/// constants/paths, variables holding flag sets, and calls to helpers with
/// known return summaries.
fn eval(toks: &[Token], env: &Env, summaries: &BTreeMap<String, FlagSet>) -> FlagSet {
    let mut set = FlagSet::default();
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = toks.get(k + 1);
        if is_const_ident(&t.text) {
            set.insert(
                Fact::Constant(t.text.clone()),
                vec![FlowStep {
                    what: t.text.clone(),
                    line: t.line,
                }],
            );
            continue;
        }
        // `Type::Variant` path atom.
        if t.text
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
            && next.is_some_and(|n| n.is_punct("::"))
        {
            if let Some(v) = toks.get(k + 2).filter(|v| v.kind == TokKind::Ident) {
                set.insert(
                    Fact::Path(t.text.clone(), v.text.clone()),
                    vec![FlowStep {
                        what: format!("{}::{}", t.text, v.text),
                        line: t.line,
                    }],
                );
                continue;
            }
        }
        // Helper call with a known return summary.
        if next.is_some_and(|n| n.is_punct("(")) {
            if let Some(summary) = summaries.get(&t.text) {
                set.union(&summary.with_step(&format!("{}()", t.text), t.line));
            }
            continue;
        }
        // Variable use (not a member access).
        let prev_is_member = k > 0
            && matches!(toks[k - 1].text.as_str(), "." | "->" | "::")
            && toks[k - 1].kind == TokKind::Punct;
        if !prev_is_member {
            if let Some(varset) = env.get(&t.text) {
                set.union(varset);
            }
        }
    }
    set
}

/// Emit fact records for one statement at the block's tier. At
/// `FlowConfirmed`, call-argument regions are evaluated against the
/// environment so constants reaching the sink (directly or via def-use
/// chains) are flow-confirmed with full provenance.
fn emit_stmt(
    stmt: &Stmt,
    tier: Confidence,
    env: &Env,
    summaries: &BTreeMap<String, FlagSet>,
    records: &mut Vec<FactRecord>,
) {
    let toks = &stmt.tokens;
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = toks.get(k + 1);

        // Call site.
        if next.is_some_and(|n| n.is_punct("("))
            && !CALL_KEYWORDS.contains(&t.text.as_str())
            && !(k > 0 && toks[k - 1].is_ident("fn"))
        {
            records.push(FactRecord {
                fact: Fact::Call(t.text.clone()),
                line: t.line,
                tier,
                chain: Vec::new(),
            });
            if tier == Confidence::FlowConfirmed {
                if let Some(close) = match_paren(toks, k + 1) {
                    let args = eval(&toks[k + 2..close], env, summaries);
                    for (fact, chain) in args.iter() {
                        let mut chain = chain.clone();
                        if chain.len() < MAX_CHAIN {
                            chain.push(FlowStep {
                                what: format!("{}(..)", t.text),
                                line: t.line,
                            });
                        }
                        records.push(FactRecord {
                            fact: fact.clone(),
                            line: chain.first().map_or(t.line, |s| s.line),
                            tier: Confidence::FlowConfirmed,
                            chain,
                        });
                    }
                }
            }
        }

        // Constant occurrence: syntactic evidence only — flow confirmation
        // comes from reaching a call sink.
        if is_const_ident(&t.text) {
            records.push(FactRecord {
                fact: Fact::Constant(t.text.clone()),
                line: t.line,
                tier: Confidence::Syntactic,
                chain: Vec::new(),
            });
        }

        // Path occurrence: confirmed by being on a live path.
        if t.text
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
            && next.is_some_and(|n| n.is_punct("::"))
        {
            if let Some(v) = toks.get(k + 2).filter(|v| v.kind == TokKind::Ident) {
                records.push(FactRecord {
                    fact: Fact::Path(t.text.clone(), v.text.clone()),
                    line: t.line,
                    tier,
                    chain: Vec::new(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{parse_nodes, Cfg, Lang};
    use crate::lexer::lex;

    fn run(src: &str, lang: Lang) -> FnAnalysis {
        let toks = lex(src);
        let cfg = Cfg::build(&parse_nodes(&toks, lang));
        analyze_function(&cfg, &BTreeMap::new())
    }

    fn max_tier(a: &FnAnalysis, fact: &Fact) -> Option<Confidence> {
        a.records
            .iter()
            .filter(|r| &r.fact == fact)
            .map(|r| r.tier)
            .max()
    }

    #[test]
    fn flags_via_variable_reach_the_sink() {
        let a = run(
            "u_int32_t flags = DB_CREATE | DB_INIT_TXN;\nflags |= DB_INIT_LOCK;\nenv->open(env, \"/x\", flags, 0);",
            Lang::CStyle,
        );
        for c in ["DB_CREATE", "DB_INIT_TXN", "DB_INIT_LOCK"] {
            assert_eq!(
                max_tier(&a, &Fact::Constant(c.into())),
                Some(Confidence::FlowConfirmed),
                "{c} must flow to the open() sink"
            );
        }
        // Provenance: chain ends at the sink.
        let rec = a
            .records
            .iter()
            .find(|r| {
                r.fact == Fact::Constant("DB_INIT_LOCK".into())
                    && r.tier == Confidence::FlowConfirmed
            })
            .expect("flow-confirmed record");
        assert!(rec.chain.last().unwrap().what.starts_with("open"));
        assert!(rec.chain.iter().any(|s| s.what == "flags"));
    }

    #[test]
    fn reassignment_kills_the_flag_set() {
        let a = run(
            "u_int32_t flags = DB_INIT_TXN;\nflags = DB_CREATE;\nenv->open(env, \"/x\", flags, 0);",
            Lang::CStyle,
        );
        assert_eq!(
            max_tier(&a, &Fact::Constant("DB_INIT_TXN".into())),
            Some(Confidence::Syntactic),
            "killed binding must not reach the sink"
        );
        assert_eq!(
            max_tier(&a, &Fact::Constant("DB_CREATE".into())),
            Some(Confidence::FlowConfirmed)
        );
    }

    #[test]
    fn dead_branch_facts_stay_syntactic() {
        let a = run(
            "db->open(db, \"/x\", DB_CREATE, 0);\nif (0) { env->set_encrypt(env, p, DB_ENCRYPT_AES); }",
            Lang::CStyle,
        );
        assert_eq!(
            max_tier(&a, &Fact::Call("set_encrypt".into())),
            Some(Confidence::Syntactic)
        );
        assert_eq!(
            max_tier(&a, &Fact::Constant("DB_ENCRYPT_AES".into())),
            Some(Confidence::Syntactic)
        );
        assert_eq!(
            max_tier(&a, &Fact::Constant("DB_CREATE".into())),
            Some(Confidence::FlowConfirmed)
        );
    }

    #[test]
    fn both_branch_arms_may_flow() {
        let a = run(
            "u_int32_t flags;\nif (txn) { flags = DB_INIT_TXN; } else { flags = DB_INIT_CDB; }\nenv->open(env, \"/x\", flags, 0);",
            Lang::CStyle,
        );
        for c in ["DB_INIT_TXN", "DB_INIT_CDB"] {
            assert_eq!(
                max_tier(&a, &Fact::Constant(c.into())),
                Some(Confidence::FlowConfirmed),
                "may-analysis keeps both arms ({c})"
            );
        }
    }

    #[test]
    fn helper_return_summary_flows_to_caller() {
        // Summary of: u_int32_t txn_env_flags(void) { return DB_INIT_TXN | DB_INIT_LOG; }
        let helper = run("return DB_INIT_TXN | DB_INIT_LOG;", Lang::CStyle);
        assert_eq!(helper.returns.len(), 2);
        let mut summaries = BTreeMap::new();
        summaries.insert("txn_env_flags".to_string(), helper.returns);

        let toks = lex("env->open(env, \"/x\", DB_CREATE | txn_env_flags(), 0);");
        let cfg = Cfg::build(&parse_nodes(&toks, Lang::CStyle));
        let a = analyze_function(&cfg, &summaries);
        for c in ["DB_CREATE", "DB_INIT_TXN", "DB_INIT_LOG"] {
            assert_eq!(
                max_tier(&a, &Fact::Constant(c.into())),
                Some(Confidence::FlowConfirmed),
                "{c} must reach the sink through the helper"
            );
        }
        let rec = a
            .records
            .iter()
            .find(|r| {
                r.fact == Fact::Constant("DB_INIT_TXN".into())
                    && r.tier == Confidence::FlowConfirmed
            })
            .unwrap();
        assert!(rec.chain.iter().any(|s| s.what == "txn_env_flags()"));
    }

    #[test]
    fn rust_let_binding_flows() {
        let a = run(
            "let flags = DB_INIT_TXN | DB_INIT_LOCK;\nenv.open(flags);",
            Lang::Rust,
        );
        for c in ["DB_INIT_TXN", "DB_INIT_LOCK"] {
            assert_eq!(
                max_tier(&a, &Fact::Constant(c.into())),
                Some(Confidence::FlowConfirmed)
            );
        }
    }

    #[test]
    fn constant_not_reaching_a_call_is_syntactic() {
        let a = run("int mode = DB_HASH;\nint x = mode + 1;", Lang::CStyle);
        assert_eq!(
            max_tier(&a, &Fact::Constant("DB_HASH".into())),
            Some(Confidence::Syntactic)
        );
    }

    #[test]
    fn tail_expression_contributes_to_summary() {
        let toks = lex("DB_INIT_TXN | DB_INIT_LOG");
        let cfg = Cfg::build(&parse_nodes(&toks, Lang::Rust));
        let a = analyze_function(&cfg, &BTreeMap::new());
        assert_eq!(a.returns.len(), 2, "Rust tail expr is the return value");
    }

    #[test]
    fn member_access_is_not_a_variable_use() {
        let a = run(
            "u_int32_t flags = DB_INIT_TXN;\nenv->open(env, \"/x\", cfg.flags, 0);",
            Lang::CStyle,
        );
        assert_eq!(
            max_tier(&a, &Fact::Constant("DB_INIT_TXN".into())),
            Some(Confidence::Syntactic),
            "cfg.flags is a different variable"
        );
    }
}
