//! Shared front-end: every pass consumes the same parsed shape, built
//! once per workspace with the PR-1 pipeline (`lex_with_strings` →
//! `parse_program` → `Cfg`), so the three passes cannot disagree about
//! what the sources say.

use fame_derivation::cfg::{parse_nodes, parse_program};
use fame_derivation::{Cfg, Confidence, Lang, TokKind, Token};

use crate::source::{SourceFile, Workspace};

/// One function, lowered to a CFG with per-block liveness.
pub struct ParsedFn {
    /// Function name.
    pub name: String,
    /// First line of the definition.
    pub line: u32,
    /// The CFG (block 0 = entry).
    pub cfg: Cfg,
    /// Per-block: reachable and not `#[cfg]`-gated. A fact in a live
    /// block earns `FlowConfirmed`; anything else is `Syntactic`.
    pub live: Vec<bool>,
}

impl ParsedFn {
    /// Tier of a fact observed in block `b`.
    pub fn tier(&self, b: usize) -> Confidence {
        if self.live.get(b).copied().unwrap_or(false) {
            Confidence::FlowConfirmed
        } else {
            Confidence::Syntactic
        }
    }
}

/// One source file, parsed.
pub struct ParsedFile {
    /// Workspace-relative path.
    pub path: String,
    /// Full token stream, string literals kept (`TokKind::Str`).
    pub toks: Vec<Token>,
    /// Function bodies as CFGs.
    pub fns: Vec<ParsedFn>,
}

/// One crate, parsed.
pub struct ParsedCrate {
    /// Package name.
    pub name: String,
    /// Workspace-relative path of its `Cargo.toml`.
    pub manifest: String,
    /// Declared cargo features.
    pub features: std::collections::BTreeMap<String, crate::source::FeatureDecl>,
    /// Parsed files, path order.
    pub files: Vec<ParsedFile>,
}

/// The whole workspace, parsed once.
pub struct ParsedWorkspace {
    /// Crates, name order.
    pub crates: Vec<ParsedCrate>,
}

impl ParsedWorkspace {
    /// Parse every file of `ws`.
    pub fn build(ws: &Workspace) -> ParsedWorkspace {
        ParsedWorkspace {
            crates: ws
                .crates
                .iter()
                .map(|c| ParsedCrate {
                    name: c.name.clone(),
                    manifest: c.manifest.clone(),
                    features: c.features.clone(),
                    files: c.files.iter().map(parse_file).collect(),
                })
                .collect(),
        }
    }

    /// Total functions parsed.
    pub fn fn_count(&self) -> usize {
        self.crates
            .iter()
            .flat_map(|c| &c.files)
            .map(|f| f.fns.len())
            .sum()
    }

    /// Total files parsed.
    pub fn file_count(&self) -> usize {
        self.crates.iter().map(|c| c.files.len()).sum()
    }
}

fn parse_file(file: &SourceFile) -> ParsedFile {
    let toks = fame_derivation::lex_with_strings(&file.text);
    let (fns, _toplevel) = parse_program(&toks, Lang::Rust);
    let fns = fns
        .into_iter()
        .map(|f| {
            let nodes = parse_nodes(&f.body, Lang::Rust);
            let cfg = if f.gated {
                Cfg::build_gated(&nodes)
            } else {
                Cfg::build(&nodes)
            };
            let reach = cfg.reachable();
            let live = cfg
                .blocks
                .iter()
                .enumerate()
                .map(|(b, blk)| reach[b] && !blk.gated)
                .collect();
            ParsedFn {
                name: f.name,
                line: f.line,
                cfg,
                live,
            }
        })
        .collect();
    ParsedFile {
        path: file.path.clone(),
        toks,
        fns,
    }
}

/// Walk left from the `.` (or the method ident) at `dot` and collect the
/// receiver path: `self.inner.device.write()` → `["self", "inner",
/// "device"]`, `shards[page & mask].write()` → `["shards"]`,
/// `self.0.load(..)` → `["self", "0"]`. Index expressions and call
/// parens are skipped; the path stops at the first token that is
/// neither a path segment nor a `.`/`::` separator.
pub fn receiver_path(toks: &[Token], dot: usize) -> Vec<String> {
    let mut path = Vec::new();
    let mut k = dot as isize - 1;
    loop {
        if k < 0 {
            break;
        }
        let mut ku = k as usize;
        // Skip an index `[...]` or call `(...)` suffix on the segment.
        let t = &toks[ku].text;
        if t == "]" || t == ")" {
            let (open, close) = if t == "]" { ("[", "]") } else { ("(", ")") };
            let mut depth = 0i32;
            loop {
                let tt = &toks[ku].text;
                if tt == close {
                    depth += 1;
                } else if tt == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if ku == 0 {
                    return path_done(path);
                }
                ku -= 1;
            }
            if ku == 0 {
                return path_done(path);
            }
            ku -= 1;
        }
        match toks[ku].kind {
            TokKind::Ident | TokKind::Num => path.push(toks[ku].text.clone()),
            _ => break,
        }
        if ku == 0 {
            break;
        }
        let sep = &toks[ku - 1];
        if sep.is_punct(".") || sep.is_punct("::") {
            k = ku as isize - 2;
        } else {
            break;
        }
    }
    path_done(path)
}

fn path_done(mut path: Vec<String>) -> Vec<String> {
    path.reverse();
    path
}

/// Index of the `)` closing the call whose `(` sits at `open` (end of
/// stream when unbalanced).
pub fn call_end(toks: &[Token], open: usize) -> usize {
    fame_derivation::match_paren(toks, open).unwrap_or(toks.len().saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fame_derivation::lex;

    fn path_of(src: &str) -> Vec<String> {
        let toks = lex(src);
        let dot = toks
            .iter()
            .rposition(|t| t.is_punct("."))
            .expect("a dot in the source");
        receiver_path(&toks, dot)
    }

    #[test]
    fn receiver_paths() {
        assert_eq!(
            path_of("self.inner.device.write"),
            ["self", "inner", "device"]
        );
        assert_eq!(path_of("shards[page & mask].write"), ["shards"]);
        assert_eq!(path_of("self.0.load"), ["self", "0"]);
        assert_eq!(path_of("a.b(x).c"), ["a", "b"]);
        assert_eq!(path_of("foo::bar.baz"), ["foo", "bar"]);
    }

    #[test]
    fn liveness_tiers() {
        let ws = Workspace::synthetic(
            "t",
            &[],
            &[(
                "lib.rs",
                "fn f() { a(); if cfg!(feature = \"x\") { b(); } }",
            )],
        );
        let p = ParsedWorkspace::build(&ws);
        let f = &p.crates[0].files[0].fns[0];
        assert_eq!(f.name, "f");
        assert!(f.live[0]);
        assert!(f.live.iter().any(|l| !l), "gated branch block is not live");
    }
}
