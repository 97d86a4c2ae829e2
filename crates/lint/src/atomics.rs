//! Pass C — atomic-ordering audit.
//!
//! Finds `Ordering::Relaxed` loads/stores/RMWs on atomic fields of
//! types that are *published across threads* — reachable, through the
//! struct-containment graph, from an `Arc<..>`/`Arc::new(..)`/`static`
//! root anywhere in the workspace. A relaxed op on such a field is a
//! violation unless `lint.toml [atomic-allow]` carries a reasoned
//! exception (the fame-obs statistics counters, the replacement-policy
//! stamps), in which case it is reported once per field/file as a
//! warning — the audit trail stays visible in every run.
//!
//! Known limitation (DESIGN.md §12): publication is tracked nominally.
//! Generic containers (`SharedDevice<D>`) and trait objects
//! (`Box<dyn BlockDevice>`) break the containment chain, so a device
//! counter published only behind `dyn` is not flagged.

use std::collections::{BTreeMap, BTreeSet};

use fame_derivation::{match_paren, Confidence, FlowStep, TokKind, Token};

use crate::analysis::{receiver_path, ParsedWorkspace};
use crate::config::LintConfig;
use crate::report::{Diagnostic, Pass, Report, Severity};

/// Atomic ops that take an `Ordering` argument.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// One struct/enum definition: atomic fields + contained type names.
#[derive(Debug, Default)]
struct TypeDef {
    /// field name (or tuple index) -> declaration line.
    atomic_fields: BTreeMap<String, u32>,
    /// Capitalized identifiers in the body (nominal containment).
    contains: BTreeSet<String>,
}

fn is_type_name(t: &Token) -> bool {
    t.kind == TokKind::Ident
        && t.text
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
}

fn is_atomic_type(t: &Token) -> bool {
    t.kind == TokKind::Ident && t.text.starts_with("Atomic")
}

/// Parse every `struct`/`enum` definition in a token stream.
fn parse_types(toks: &[Token], out: &mut BTreeMap<String, TypeDef>) {
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let is_struct = t.is_ident("struct");
        let is_enum = t.is_ident("enum");
        if !(is_struct || is_enum) {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        let name = name_tok.text.clone();
        // Find the body: first `{` (named fields / enum) or `(` (tuple
        // struct) before a terminating `;` (unit struct).
        let mut j = i + 2;
        let mut body: Option<(usize, usize, bool)> = None; // (open, close, braces)
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => {
                    body = Some((j, fame_derivation::match_brace(toks, j), true));
                    break;
                }
                "(" => {
                    let close = match_paren(toks, j).unwrap_or(toks.len() - 1);
                    body = Some((j, close, false));
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        let def = out.entry(name).or_default();
        if let Some((open, close, braces)) = body {
            let inner = &toks[open + 1..close.min(toks.len())];
            for t in inner {
                if is_type_name(t) && !t.text.starts_with("Atomic") {
                    def.contains.insert(t.text.clone());
                }
            }
            if braces {
                // Named fields anywhere in the body (covers enum-variant
                // fields: `Cached { clock: AtomicU64, .. }`).
                let mut k = 0;
                while k + 1 < inner.len() {
                    if inner[k].kind == TokKind::Ident
                        && inner[k + 1].is_punct(":")
                        && field_type_is_atomic(inner, k + 2)
                    {
                        def.atomic_fields
                            .entry(inner[k].text.clone())
                            .or_insert(inner[k].line);
                    }
                    k += 1;
                }
            } else {
                // Tuple struct: split top-level elements on `,`.
                let mut idx = 0usize;
                let mut depth = 0i32;
                let mut elem_start = 0usize;
                for (k, t) in inner.iter().enumerate() {
                    match t.text.as_str() {
                        "(" | "[" | "<" => depth += 1,
                        ")" | "]" | ">" => depth -= 1,
                        "<<" => depth += 2,
                        ">>" => depth -= 2,
                        "," if depth == 0 => {
                            if inner[elem_start..k].iter().any(is_atomic_type) {
                                def.atomic_fields
                                    .entry(idx.to_string())
                                    .or_insert(inner[elem_start].line);
                            }
                            idx += 1;
                            elem_start = k + 1;
                        }
                        _ => {}
                    }
                }
                if elem_start < inner.len() && inner[elem_start..].iter().any(is_atomic_type) {
                    def.atomic_fields
                        .entry(idx.to_string())
                        .or_insert(inner[elem_start].line);
                }
            }
            i = close + 1;
        } else {
            i = j + 1;
        }
    }
}

/// Is the field type starting at `i` atomic (directly or via a wrapper
/// like `Box<[AtomicU64]>`)? Scans to the `,` or end at nesting depth 0.
fn field_type_is_atomic(toks: &[Token], i: usize) -> bool {
    let mut depth = 0i32;
    for t in &toks[i.min(toks.len())..] {
        match t.text.as_str() {
            "(" | "[" | "<" | "{" => depth += 1,
            "<<" => depth += 2,
            ")" | "]" | ">" | "}" | ">>" => {
                depth -= if t.text == ">>" { 2 } else { 1 };
                if depth < 0 {
                    break;
                }
            }
            "," if depth == 0 => break,
            _ => {}
        }
        if is_atomic_type(t) {
            return true;
        }
    }
    false
}

/// Type names published across threads: `Arc<T>` payloads, `Arc::new(T
/// {..})` literals, `static` item types — closed over containment.
fn published_types(
    parsed: &ParsedWorkspace,
    types: &BTreeMap<String, TypeDef>,
) -> BTreeSet<String> {
    let mut roots: BTreeSet<String> = BTreeSet::new();
    for krate in &parsed.crates {
        for file in &krate.files {
            let toks = &file.toks;
            let mut i = 0;
            while i < toks.len() {
                let t = &toks[i];
                if t.is_ident("Arc") {
                    if toks.get(i + 1).is_some_and(|x| x.is_punct("<")) {
                        // `Arc<..>`: collect caps idents to the matching `>`
                        // (`>>` closes two levels — shift-lexed).
                        let mut depth = 0i64;
                        let mut j = i + 1;
                        while j < toks.len() {
                            match toks[j].text.as_str() {
                                "<" => depth += 1,
                                ">" => depth -= 1,
                                "<<" => depth += 2,
                                ">>" => depth -= 2,
                                _ => {
                                    if is_type_name(&toks[j]) {
                                        roots.insert(toks[j].text.clone());
                                    }
                                }
                            }
                            if depth <= 0 {
                                break;
                            }
                            j += 1;
                        }
                        i = j + 1;
                        continue;
                    }
                    if toks.get(i + 1).is_some_and(|x| x.is_punct("::"))
                        && toks.get(i + 2).is_some_and(|x| x.is_ident("new"))
                        && toks.get(i + 3).is_some_and(|x| x.is_punct("("))
                    {
                        let close = match_paren(toks, i + 3).unwrap_or(toks.len() - 1);
                        for t in &toks[i + 4..close] {
                            if is_type_name(t) {
                                roots.insert(t.text.clone());
                            }
                        }
                        i = close + 1;
                        continue;
                    }
                }
                if t.is_ident("static") {
                    // `static [mut] NAME : Type = ..;` — caps idents in the
                    // type position.
                    let mut j = i + 1;
                    while j < toks.len() && !toks[j].is_punct(":") && !toks[j].is_punct(";") {
                        j += 1;
                    }
                    while j < toks.len() && !toks[j].is_punct("=") && !toks[j].is_punct(";") {
                        if is_type_name(&toks[j]) {
                            roots.insert(toks[j].text.clone());
                        }
                        j += 1;
                    }
                    i = j;
                    continue;
                }
                i += 1;
            }
        }
    }
    // Close over nominal containment.
    let mut published: BTreeSet<String> = roots
        .iter()
        .filter(|n| types.contains_key(*n))
        .cloned()
        .collect();
    loop {
        let mut added = Vec::new();
        for name in &published {
            if let Some(def) = types.get(name) {
                for c in &def.contains {
                    if types.contains_key(c) && !published.contains(c) {
                        added.push(c.clone());
                    }
                }
            }
        }
        if added.is_empty() {
            break;
        }
        published.extend(added);
    }
    published
}

/// Run Pass C over the parsed workspace.
pub fn run(parsed: &ParsedWorkspace, cfg: &LintConfig, report: &mut Report) {
    let mut types: BTreeMap<String, TypeDef> = BTreeMap::new();
    for krate in &parsed.crates {
        for file in &krate.files {
            parse_types(&file.toks, &mut types);
        }
    }
    let published = published_types(parsed, &types);

    // field name -> published owners having an atomic field of that name.
    let mut owners: BTreeMap<&str, Vec<(&str, u32)>> = BTreeMap::new();
    for name in &published {
        if let Some(def) = types.get(name) {
            for (field, line) in &def.atomic_fields {
                owners
                    .entry(field.as_str())
                    .or_default()
                    .push((name.as_str(), *line));
            }
        }
    }

    for krate in &parsed.crates {
        for file in &krate.files {
            // Line -> tier map from the CFGs (statements in live blocks
            // are FlowConfirmed; gated/unreachable are Syntactic).
            let mut line_tier: BTreeMap<u32, Confidence> = BTreeMap::new();
            for pf in &file.fns {
                for (b, blk) in pf.cfg.blocks.iter().enumerate() {
                    let tier = pf.tier(b);
                    for stmt in &blk.stmts {
                        for t in &stmt.tokens {
                            line_tier.entry(t.line).or_insert(tier);
                        }
                    }
                }
            }

            let mut warned: BTreeSet<String> = BTreeSet::new();
            let toks = &file.toks;
            for i in 0..toks.len() {
                let t = &toks[i];
                if t.kind != TokKind::Ident
                    || !ATOMIC_OPS.contains(&t.text.as_str())
                    || i == 0
                    || !toks[i - 1].is_punct(".")
                    || !toks.get(i + 1).is_some_and(|x| x.is_punct("("))
                {
                    continue;
                }
                let close = match_paren(toks, i + 1).unwrap_or(toks.len() - 1);
                let relaxed = toks[i + 2..close].iter().any(|x| x.is_ident("Relaxed"));
                if !relaxed {
                    continue;
                }
                let path = receiver_path(toks, i - 1);
                let Some(field) = path.last() else { continue };
                let Some(cands) = owners.get(field.as_str()) else {
                    continue;
                };
                let tier = line_tier
                    .get(&t.line)
                    .copied()
                    .unwrap_or(Confidence::FlowConfirmed);
                let allowed: Vec<(&str, &str)> = cands
                    .iter()
                    .filter_map(|(ty, _)| cfg.atomic_allow_reason(ty, field).map(|r| (*ty, r)))
                    .collect();
                let site = format!("{}.{}(.., Relaxed)", path.join("."), t.text);
                if allowed.len() == cands.len() {
                    // Fully allowlisted: one audit warning per field/file.
                    let (ty, reason) = allowed[0];
                    if warned.insert(format!("{ty}.{field}")) {
                        report.diagnostics.push(Diagnostic {
                            pass: Pass::Atomics,
                            krate: krate.name.clone(),
                            file: file.path.clone(),
                            line: t.line,
                            severity: Severity::Warning,
                            tier,
                            code: "relaxed-atomic-allowed",
                            message: format!(
                                "relaxed-atomic-allowed: `{ty}.{field}` is published across threads and accessed Relaxed (allowed: {reason})"
                            ),
                            chain: chain_for(cands, field, &site, t.line),
                        });
                    }
                } else {
                    let (ty, decl_line) = cands[0];
                    report.diagnostics.push(Diagnostic {
                        pass: Pass::Atomics,
                        krate: krate.name.clone(),
                        file: file.path.clone(),
                        line: t.line,
                        severity: Severity::Violation,
                        tier,
                        code: "relaxed-atomic-published",
                        message: format!(
                            "relaxed-atomic-published: `{ty}.{field}` (declared line {decl_line}) is published across threads via Arc/static but accessed with Ordering::Relaxed; no [atomic-allow] entry covers it"
                        ),
                        chain: chain_for(cands, field, &site, t.line),
                    });
                }
            }
        }
    }
}

fn chain_for(cands: &[(&str, u32)], field: &str, site: &str, line: u32) -> Vec<FlowStep> {
    let (ty, decl_line) = cands[0];
    vec![
        FlowStep {
            what: format!("{ty}.{field}"),
            line: decl_line,
        },
        FlowStep {
            what: format!("Arc-published {ty}"),
            line: decl_line,
        },
        FlowStep {
            what: site.to_string(),
            line,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Workspace;

    #[test]
    fn struct_parsing_finds_atomic_fields_and_containment() {
        let src = r#"
struct Frame { stamp: AtomicU64, data: Vec<u8> }
struct Counter(AtomicU64);
enum Mode { Off, On { clock: AtomicU64, shards: Box<[Frame]> } }
struct Plain { x: u32 }
"#;
        let toks = fame_derivation::lex_with_strings(src);
        let mut types = BTreeMap::new();
        parse_types(&toks, &mut types);
        assert!(types["Frame"].atomic_fields.contains_key("stamp"));
        assert!(!types["Frame"].atomic_fields.contains_key("data"));
        assert!(types["Counter"].atomic_fields.contains_key("0"));
        assert!(types["Mode"].atomic_fields.contains_key("clock"));
        assert!(types["Mode"].contains.contains("Frame"));
        assert!(types["Plain"].atomic_fields.is_empty());
    }

    #[test]
    fn publication_closes_over_containment() {
        let ws = Workspace::synthetic(
            "t",
            &[],
            &[(
                "lib.rs",
                r#"
struct Inner { pins: AtomicU32 }
struct Outer { inner: Inner }
struct Lonely { pins: AtomicU32 }
fn make() -> Arc<Outer> { Arc::new(Outer { inner: Inner { pins: AtomicU32::new(0) } }) }
"#,
            )],
        );
        let parsed = crate::analysis::ParsedWorkspace::build(&ws);
        let mut types = BTreeMap::new();
        for k in &parsed.crates {
            for f in &k.files {
                parse_types(&f.toks, &mut types);
            }
        }
        let p = published_types(&parsed, &types);
        assert!(p.contains("Outer"));
        assert!(p.contains("Inner"));
        assert!(!p.contains("Lonely"));
    }

    /// An allowlisted field is reported once per file: a load alone in a
    /// file is a warning of its own, and a load beside a `fetch_add` of the
    /// same field is one warning, not two. Splitting a file therefore
    /// changes the warning count without any access going unseen.
    #[test]
    fn allowed_field_warns_once_per_file() {
        let ws = Workspace::synthetic(
            "t",
            &[],
            &[
                (
                    "acc.rs",
                    "struct Acc { gets: AtomicU64 }\n\
                     fn make() -> Arc<Acc> { Arc::new(Acc { gets: AtomicU64::new(0) }) }\n\
                     fn bump(a: &Acc) { a.gets.fetch_add(1, Relaxed); }\n\
                     fn read(a: &Acc) -> u64 { a.gets.load(Relaxed) }\n",
                ),
                (
                    "stats.rs",
                    "fn report(s: &Stats) -> u64 { s.readers.gets.load(Relaxed) }\n",
                ),
            ],
        );
        let parsed = crate::analysis::ParsedWorkspace::build(&ws);
        let mut cfg = LintConfig::default();
        cfg.atomic_allow.insert("Acc.gets".into(), "counter".into());
        let mut report = Report::default();
        run(&parsed, &cfg, &mut report);
        let warned: Vec<(&str, u32)> = report
            .diagnostics
            .iter()
            .map(|d| {
                assert_eq!(d.code, "relaxed-atomic-allowed");
                (d.file.as_str(), d.line)
            })
            .collect();
        assert_eq!(warned, [("acc.rs", 3), ("stats.rs", 1)]);
    }
}
