//! `lint.toml` — the checked-in declaration of the workspace's
//! concurrency and variability contracts.
//!
//! The build environment vendors no TOML crate, so this module parses
//! the small dialect the config actually uses: `[section]` headers,
//! `key = "string"`, `key = ["a", "b"]`, quoted keys, `#` comments.
//! Anything else is a hard error — a silently misread declaration would
//! make the whole lint lie.

use std::collections::BTreeMap;
use std::fmt;

/// A parse or validation error with the offending line number.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line in `lint.toml` (0 = file-level).
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: u32, msg: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        msg: msg.into(),
    }
}

/// One parsed value: a string or a list of strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `key = "text"`
    Str(String),
    /// `key = ["a", "b"]`
    List(Vec<String>),
}

impl Value {
    fn as_str(&self, line: u32) -> Result<&str, ConfigError> {
        match self {
            Value::Str(s) => Ok(s),
            Value::List(_) => Err(err(line, "expected a string, found a list")),
        }
    }

    fn as_list(&self, line: u32) -> Result<&[String], ConfigError> {
        match self {
            Value::List(l) => Ok(l),
            Value::Str(_) => Err(err(line, "expected a list, found a string")),
        }
    }
}

/// The full fame-lint configuration (see the comments in `lint.toml`
/// for the semantics of each table).
#[derive(Debug, Default)]
pub struct LintConfig {
    /// Declared global lock-acquisition order, first-acquired first.
    pub lock_order: Vec<String>,
    /// Lock class -> receiver-segment substrings.
    pub lock_patterns: BTreeMap<String, Vec<String>>,
    /// Lock class -> file-path substrings (fallback classification).
    pub lock_files: BTreeMap<String, Vec<String>>,
    /// Allowlisted edges: (from, to) -> reason.
    pub lock_allow: BTreeMap<(String, String), String>,
    /// Function names excluded from call-graph propagation.
    pub call_exclude: Vec<String>,
    /// cargo feature -> Fig. 2 model feature name.
    pub feature_map: BTreeMap<String, String>,
    /// Declared extensions beyond the Fig. 2 model.
    pub feature_extensions: Vec<String>,
    /// Internal features (presets, test harness).
    pub feature_internal: Vec<String>,
    /// Allowlisted relaxed atomics: "Type.field" or "Type.*" -> reason.
    pub atomic_allow: BTreeMap<String, String>,
}

impl LintConfig {
    /// Parse the configuration from `lint.toml` text.
    pub fn parse(text: &str) -> Result<LintConfig, ConfigError> {
        let mut cfg = LintConfig::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lno = idx as u32 + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                section = rest
                    .strip_suffix(']')
                    .ok_or_else(|| err(lno, "unterminated [section] header"))?
                    .trim()
                    .to_string();
                continue;
            }
            let (key, value) = parse_kv(line, lno)?;
            cfg.insert(&section, key, value, lno)?;
        }
        if cfg.lock_order.is_empty() {
            return Err(err(0, "missing [lock-order] order = [..]"));
        }
        Ok(cfg)
    }

    fn insert(
        &mut self,
        section: &str,
        key: String,
        value: Value,
        lno: u32,
    ) -> Result<(), ConfigError> {
        match section {
            "lock-order" if key == "order" => {
                self.lock_order = value.as_list(lno)?.to_vec();
            }
            "lock-patterns" => {
                self.lock_patterns.insert(key, value.as_list(lno)?.to_vec());
            }
            "lock-files" => {
                self.lock_files.insert(key, value.as_list(lno)?.to_vec());
            }
            "lock-allow" => {
                let (from, to) = key
                    .split_once("->")
                    .ok_or_else(|| err(lno, "lock-allow keys look like \"from->to\""))?;
                self.lock_allow.insert(
                    (from.trim().to_string(), to.trim().to_string()),
                    value.as_str(lno)?.to_string(),
                );
            }
            "call-exclude" if key == "names" => {
                self.call_exclude = value.as_list(lno)?.to_vec();
            }
            "feature-map" => {
                self.feature_map.insert(key, value.as_str(lno)?.to_string());
            }
            "feature-extensions" if key == "names" => {
                self.feature_extensions = value.as_list(lno)?.to_vec();
            }
            "feature-internal" if key == "names" => {
                self.feature_internal = value.as_list(lno)?.to_vec();
            }
            "atomic-allow" => {
                self.atomic_allow
                    .insert(key, value.as_str(lno)?.to_string());
            }
            _ => {
                return Err(err(
                    lno,
                    format!("unknown key {key:?} in section [{section}]"),
                ));
            }
        }
        Ok(())
    }

    /// Position of a class in the declared order (`None` = unordered).
    pub fn order_index(&self, class: &str) -> Option<usize> {
        self.lock_order.iter().position(|c| c == class)
    }

    /// Reason an edge is allowlisted, if it is.
    pub fn allow_reason(&self, from: &str, to: &str) -> Option<&str> {
        self.lock_allow
            .get(&(from.to_string(), to.to_string()))
            .map(String::as_str)
    }

    /// Reason a `Type.field` relaxed atomic is allowlisted (exact entry
    /// first, then a `Type.*` wildcard).
    pub fn atomic_allow_reason(&self, ty: &str, field: &str) -> Option<&str> {
        self.atomic_allow
            .get(&format!("{ty}.{field}"))
            .or_else(|| self.atomic_allow.get(&format!("{ty}.*")))
            .map(String::as_str)
    }
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let b = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// Parse one `key = value` line. Keys may be bare or quoted.
fn parse_kv(line: &str, lno: u32) -> Result<(String, Value), ConfigError> {
    let (key_part, val_part) =
        split_on_eq(line).ok_or_else(|| err(lno, "expected `key = value`"))?;
    let key = key_part.trim();
    let key = if key.starts_with('"') {
        parse_string(key, lno)?.0
    } else {
        key.to_string()
    };
    let val = val_part.trim();
    let value = if let Some(inner) = val.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| err(lno, "arrays must close on the same line"))?;
        let mut items = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            let (item, consumed) = parse_string(rest, lno)?;
            items.push(item);
            rest = rest[consumed..].trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
            } else if !rest.is_empty() {
                return Err(err(lno, "expected `,` between array items"));
            }
        }
        Value::List(items)
    } else {
        Value::Str(parse_string(val, lno)?.0)
    };
    Ok((key, value))
}

/// Split on the first `=` that sits outside double quotes (keys like
/// `"shard->device"` may themselves be quoted).
fn split_on_eq(line: &str) -> Option<(&str, &str)> {
    let b = line.as_bytes();
    let mut in_str = false;
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'"' => in_str = !in_str,
            b'=' if !in_str => return Some((&line[..i], &line[i + 1..])),
            _ => {}
        }
    }
    None
}

/// Parse a leading double-quoted string; returns (contents, bytes consumed).
fn parse_string(s: &str, lno: u32) -> Result<(String, usize), ConfigError> {
    let b = s.as_bytes();
    if b.first() != Some(&b'"') {
        return Err(err(lno, format!("expected a quoted string at {s:?}")));
    }
    let mut out = String::new();
    let mut i = 1;
    while i < b.len() {
        match b[i] {
            b'\\' if i + 1 < b.len() => {
                out.push(b[i + 1] as char);
                i += 2;
            }
            b'"' => return Ok((out, i + 1)),
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    Err(err(lno, "unterminated string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[lock-order]
order = ["shard", "device"]  # trailing comment

[lock-patterns]
shard = ["shard"]

[lock-allow]
"shard->shard" = "upgrade # not a comment"

[feature-map]
lru = "LRU"

[atomic-allow]
"Counter.0" = "stats"
"Histogram.*" = "stats"
"#;

    #[test]
    fn parses_the_sample() {
        let c = LintConfig::parse(SAMPLE).unwrap();
        assert_eq!(c.lock_order, ["shard", "device"]);
        assert_eq!(c.lock_patterns["shard"], ["shard"]);
        assert_eq!(
            c.allow_reason("shard", "shard"),
            Some("upgrade # not a comment")
        );
        assert_eq!(c.feature_map["lru"], "LRU");
        assert_eq!(c.atomic_allow_reason("Counter", "0"), Some("stats"));
        assert_eq!(c.atomic_allow_reason("Histogram", "sum_ns"), Some("stats"));
        assert_eq!(c.atomic_allow_reason("Histogram", "0"), Some("stats"));
        assert_eq!(c.atomic_allow_reason("Frame", "pins"), None);
        assert_eq!(c.order_index("device"), Some(1));
        assert_eq!(c.order_index("meta"), None);
    }

    #[test]
    fn unknown_keys_are_hard_errors() {
        let e =
            LintConfig::parse("[lock-order]\norder = [\"a\"]\n[bogus]\nx = \"y\"\n").unwrap_err();
        assert!(e.to_string().contains("bogus"), "{e}");
    }

    #[test]
    fn missing_order_is_an_error() {
        assert!(LintConfig::parse("[feature-map]\nlru = \"LRU\"\n").is_err());
    }

    #[test]
    fn the_checked_in_config_parses() {
        // Compile-time include so the unit test does not depend on cwd.
        let text = include_str!("../../../lint.toml");
        let c = LintConfig::parse(text).unwrap();
        assert_eq!(c.lock_order, ["lock_table", "shard", "device", "meta"]);
        assert!(c.feature_map.contains_key("commit-group"));
        assert!(c.feature_map.contains_key("concurrency-multi-writer"));
        // The seqlock protocol fields carry reasoned allowlist entries;
        // `pins` was retired along with the field itself (version
        // validation subsumes pinning on the hit path), and the hashed
        // `PageTable` with its type (the page map that replaced it loads
        // Acquire and stores Release, so it needs no entry).
        assert!(c.atomic_allow_reason("SharedFrame", "version").is_some());
        assert!(c.atomic_allow_reason("PageTable", "slots").is_none());
        assert!(c.atomic_allow_reason("SharedFrame", "pins").is_none());
        // The former shard->shard upgrade allowlist entry is retired:
        // Pass A's edge-aware joins prove the release-then-reacquire
        // path holds one shard latch at a time.
        assert!(c.lock_allow.is_empty());
    }
}
