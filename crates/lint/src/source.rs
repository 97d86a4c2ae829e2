//! Source discovery: turn a workspace checkout (or an in-memory
//! synthetic crate, for the seeded-defect corpus) into the flat
//! `crate -> files -> text` shape the passes consume.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// One Rust source file, already read.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root (display/diagnostic key).
    pub path: String,
    /// File contents.
    pub text: String,
}

/// One `[features]` entry of a crate manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FeatureDecl {
    /// 1-based line of the key in `Cargo.toml`.
    pub line: u32,
    /// The array's entries: other features of the crate, `dep:` entries
    /// and `crate/feature` (or weak `crate?/feature`) entries.
    pub implies: Vec<String>,
}

/// One crate: its name, its declared cargo features, its sources.
#[derive(Debug, Clone)]
pub struct CrateSource {
    /// Package name from `Cargo.toml` (e.g. `fame-buffer`).
    pub name: String,
    /// Workspace-relative path of the crate's `Cargo.toml`.
    pub manifest: String,
    /// Features declared in `[features]`, by name.
    pub features: BTreeMap<String, FeatureDecl>,
    /// The crate's `src/**/*.rs`, sorted by path.
    pub files: Vec<SourceFile>,
}

/// Everything the passes see: a list of crates.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Member crates, sorted by name.
    pub crates: Vec<CrateSource>,
}

impl Workspace {
    /// Load every `crates/*` member under `root`.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut crates = Vec::new();
        let crates_dir = root.join("crates");
        let mut dirs: Vec<_> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let manifest = dir.join("Cargo.toml");
            if !manifest.is_file() {
                continue;
            }
            let manifest_text = fs::read_to_string(&manifest)?;
            let name = package_name(&manifest_text).unwrap_or_else(|| {
                dir.file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default()
            });
            let features = declared_features(&manifest_text);
            let mut files = Vec::new();
            collect_rs(&dir.join("src"), root, &mut files)?;
            files.sort_by(|a, b| a.path.cmp(&b.path));
            crates.push(CrateSource {
                name,
                manifest: manifest
                    .strip_prefix(root)
                    .unwrap_or(&manifest)
                    .to_string_lossy()
                    .replace('\\', "/"),
                features,
                files,
            });
        }
        crates.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(Workspace { crates })
    }

    /// Build a one-crate workspace from in-memory sources (the corpus
    /// path: no files on disk required).
    pub fn synthetic(crate_name: &str, features: &[&str], files: &[(&str, &str)]) -> Workspace {
        Workspace {
            crates: vec![CrateSource {
                name: crate_name.to_string(),
                manifest: "Cargo.toml".to_string(),
                features: features
                    .iter()
                    .map(|s| (s.to_string(), FeatureDecl::default()))
                    .collect(),
                files: files
                    .iter()
                    .map(|(path, text)| SourceFile {
                        path: path.to_string(),
                        text: text.to_string(),
                    })
                    .collect(),
            }],
        }
    }

    /// Total file count.
    pub fn file_count(&self) -> usize {
        self.crates.iter().map(|c| c.files.len()).sum()
    }
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(()), // crate without src/ (virtual manifest)
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile {
                path: rel,
                text: fs::read_to_string(&p)?,
            });
        }
    }
    Ok(())
}

/// `name = "..."` out of the `[package]` table.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(section) = line.strip_prefix('[') {
            in_package = section.trim_end_matches(']') == "package";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// The `[features]` table: each key with its line and array entries.
fn declared_features(manifest: &str) -> BTreeMap<String, FeatureDecl> {
    let mut out = BTreeMap::new();
    let mut in_features = false;
    // The entry whose (possibly multi-line) array is still open.
    let mut open: Option<String> = None;
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if open.is_none() {
            if let Some(section) = line.strip_prefix('[') {
                in_features = section.trim_end_matches(']') == "features";
                continue;
            }
        }
        if !in_features {
            continue;
        }
        let items = match &open {
            Some(_) => line,
            None => {
                let Some((key, rest)) = line.split_once('=') else {
                    continue;
                };
                let key = key.trim().trim_matches('"').to_string();
                out.insert(
                    key.clone(),
                    FeatureDecl {
                        line: idx as u32 + 1,
                        implies: Vec::new(),
                    },
                );
                open = Some(key);
                rest.trim().trim_start_matches('[')
            }
        };
        let key = open.clone().expect("an entry is open");
        let (items, closed) = match items.split_once(']') {
            Some((items, _)) => (items, true),
            None => (items, false),
        };
        let decl = out.get_mut(&key).expect("inserted above");
        decl.implies.extend(
            items
                .split(',')
                .map(|item| item.trim().trim_matches('"'))
                .filter(|item| !item.is_empty())
                .map(str::to_string),
        );
        if closed {
            open = None;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parsing_handles_multiline_feature_arrays() {
        let m = r#"
[package]
name = "fame-core"

[features]
default = ["standard"]
standard = [
    "api-put",
    "api-get",
]
full = [
    "standard",
]
obs = ["dep:fame-obs"]

[dependencies]
notafeature = "1"
"#;
        assert_eq!(package_name(m).as_deref(), Some("fame-core"));
        let f = declared_features(m);
        assert_eq!(
            f.keys().map(String::as_str).collect::<Vec<_>>(),
            ["default", "full", "obs", "standard"]
        );
        assert_eq!(f["standard"].implies, ["api-put", "api-get"]);
        assert_eq!(f["standard"].line, 7);
        assert_eq!(f["obs"].implies, ["dep:fame-obs"]);
        assert_eq!(f["full"].implies, ["standard"]);
    }

    #[test]
    fn synthetic_workspace_shape() {
        let ws = Workspace::synthetic("corpus", &["lru"], &[("lib.rs", "fn f() {}")]);
        assert_eq!(ws.crates.len(), 1);
        assert_eq!(ws.file_count(), 1);
        assert!(ws.crates[0].features.contains_key("lru"));
    }
}
