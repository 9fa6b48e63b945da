//! Determinism lint for the FEM-2 workspace.
//!
//! The simulator's central contract is that a run is a pure function of
//! its spec: content hashes key the result cache, the registry replays
//! verbatim on restart, and bench baselines diff cycle-exactly. That
//! contract dies quietly — one `Instant::now` in a sim path, one
//! `HashMap` iteration feeding an output, one wall-time field folded
//! into a content hash — so this crate scans the workspace source for
//! the known failure shapes and fails loudly instead.
//!
//! The scanner is deliberately line-based (no parser, no new
//! dependencies): each rule is a substring/word match against
//! comment-stripped source lines. That makes it fast and dumb; escape
//! hatches go in `lint-allow.toml` at the workspace root, where every
//! exemption carries a written reason.
//!
//! Rules:
//!
//! - `wall-clock` — `Instant::now` / `SystemTime` read the host clock.
//!   Allowed only where the allowlist says measuring real time is the
//!   point (bench walls, serve timeouts, budget deadlines).
//! - `hash-collection` — `HashMap` / `HashSet` iterate in seed order.
//!   Anything that feeds an output must use `BTreeMap` or a `Vec`;
//!   allowlisted uses must never iterate into observable state.
//! - `unsafe-code` — no `unsafe` anywhere, and no allowlist entry may
//!   exempt a file: the workspace is safe Rust, and every crate under
//!   `crates/` also says `forbid(unsafe_code)`.
//! - `wall-in-hash` — a `wall…`-named value on the same line as a
//!   `content_hash` call folds host timing into an identity hash. Never
//!   allowlisted in-tree; wall time is provenance, not identity.
//!
//! The pattern constants below are assembled with `concat!` so this
//! crate's own source does not trip its own scan.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};

/// `Instant::now` spelled so this file does not match itself.
const PAT_INSTANT_NOW: &str = concat!("Instant", "::", "now");
/// `SystemTime`, likewise split.
const PAT_SYSTEM_TIME: &str = concat!("System", "Time");
/// `HashMap`, likewise split.
const PAT_HASH_MAP: &str = concat!("Hash", "Map");
/// `HashSet`, likewise split.
const PAT_HASH_SET: &str = concat!("Hash", "Set");
/// The `unsafe` keyword, likewise split.
const PAT_UNSAFE: &str = concat!("un", "safe");
/// `content_hash`, likewise split.
const PAT_CONTENT_HASH: &str = concat!("content", "_", "hash");
/// Prefix of wall-time identifiers (`wall_ns`, `wall_ms`, ...).
const PAT_WALL: &str = concat!("wa", "ll");

/// One lint rule; `as_str` is the name used in findings and in
/// `lint-allow.toml` entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    WallClock,
    HashCollection,
    UnsafeCode,
    WallInHash,
}

impl Rule {
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::HashCollection => "hash-collection",
            Rule::UnsafeCode => concat!("un", "safe-code"),
            Rule::WallInHash => "wall-in-hash",
        }
    }
}

/// One violation: where, which rule, and the offending line.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    pub rule: Rule,
    /// The trimmed source line, for the report.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.as_str(),
            self.excerpt
        )
    }
}

/// One `[[allow]]` entry from `lint-allow.toml`.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    pub path: String,
    pub rule: String,
    pub reason: String,
}

/// The parsed allowlist. An empty list allows nothing.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse the `lint-allow.toml` dialect: `[[allow]]` headers followed
    /// by `key = "value"` lines; `#` comments and blank lines ignored.
    /// This is a hand-rolled subset parser, not a TOML implementation —
    /// exactly enough for the allowlist format and nothing more.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut current: Option<AllowEntry> = None;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(e) = current.take() {
                    entries.push(Self::finish(e, i)?);
                }
                current = Some(AllowEntry {
                    path: String::new(),
                    rule: String::new(),
                    reason: String::new(),
                });
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "lint-allow.toml:{}: expected key = \"value\"",
                    i + 1
                ));
            };
            let value = value.trim();
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("lint-allow.toml:{}: value must be quoted", i + 1))?;
            let entry = current
                .as_mut()
                .ok_or_else(|| format!("lint-allow.toml:{}: key before [[allow]]", i + 1))?;
            match key.trim() {
                "path" => entry.path = value.to_string(),
                "rule" => entry.rule = value.to_string(),
                "reason" => entry.reason = value.to_string(),
                other => {
                    return Err(format!("lint-allow.toml:{}: unknown key `{other}`", i + 1));
                }
            }
        }
        if let Some(e) = current.take() {
            entries.push(Self::finish(e, text.lines().count())?);
        }
        Ok(Allowlist { entries })
    }

    fn finish(e: AllowEntry, line: usize) -> Result<AllowEntry, String> {
        if e.path.is_empty() || e.rule.is_empty() || e.reason.is_empty() {
            return Err(format!(
                "lint-allow.toml: entry ending near line {line} needs path, rule, and reason"
            ));
        }
        if e.rule == Rule::UnsafeCode.as_str() {
            return Err(format!(
                "lint-allow.toml: entry ending near line {line}: {} takes no exemptions",
                e.rule
            ));
        }
        Ok(e)
    }

    /// Is `rule` exempted for `path`?
    pub fn allows(&self, path: &str, rule: Rule) -> bool {
        self.entries
            .iter()
            .any(|e| e.rule == rule.as_str() && e.path == path)
    }

    /// Entries whose path no longer matches any scanned file — stale
    /// exemptions the allowlist should drop.
    pub fn stale<'a>(&'a self, scanned: &[String]) -> Vec<&'a AllowEntry> {
        self.entries
            .iter()
            .filter(|e| !scanned.iter().any(|p| p == &e.path))
            .collect()
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does `hay` contain `word` with a non-identifier character (or edge)
/// on both sides?
fn has_word(hay: &str, word: &str) -> bool {
    find_word(hay, word, true)
}

/// Does `hay` contain an identifier that *starts* with `word` (boundary
/// on the left only)? Catches `wall_ns`, `wall_ms`, `walltime`, ...
fn has_word_prefix(hay: &str, word: &str) -> bool {
    find_word(hay, word, false)
}

fn find_word(hay: &str, word: &str, bound_right: bool) -> bool {
    let bytes = hay.as_bytes();
    let mut start = 0;
    while let Some(pos) = hay[start..].find(word) {
        let i = start + pos;
        let left_ok = i == 0 || !is_ident(bytes[i - 1]);
        let j = i + word.len();
        let right_ok = !bound_right || j >= bytes.len() || !is_ident(bytes[j]);
        if left_ok && right_ok {
            return true;
        }
        start = i + 1;
    }
    false
}

/// Strip a trailing `//` comment. Line-based and string-naive: a `//`
/// inside a string literal truncates the rest of the line, which only
/// ever makes the scan more permissive (and URLs in comments are the
/// common case, where truncation is exactly right).
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Scan one file's text. `path` must be workspace-relative with forward
/// slashes — it is matched against the allowlist.
pub fn scan_text(path: &str, text: &str, allow: &Allowlist) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |rule: Rule, lineno: usize, raw: &str| {
        if !allow.allows(path, rule) {
            findings.push(Finding {
                path: path.to_string(),
                line: (lineno + 1) as u32,
                rule,
                excerpt: raw.trim().to_string(),
            });
        }
    };
    for (i, raw) in text.lines().enumerate() {
        let code = strip_comment(raw);
        if code.trim().is_empty() {
            continue;
        }
        if code.contains(PAT_INSTANT_NOW) || has_word(code, PAT_SYSTEM_TIME) {
            push(Rule::WallClock, i, raw);
        }
        if has_word(code, PAT_HASH_MAP) || has_word(code, PAT_HASH_SET) {
            push(Rule::HashCollection, i, raw);
        }
        // `unsafe_code` (the forbid attribute) has an identifier
        // character after the keyword, so the word match skips it.
        if has_word(code, PAT_UNSAFE) {
            push(Rule::UnsafeCode, i, raw);
        }
        if code.contains(PAT_CONTENT_HASH) && has_word_prefix(code, PAT_WALL) {
            push(Rule::WallInHash, i, raw);
        }
    }
    findings
}

/// Recursively collect `.rs` files under `dir`, sorted for a
/// deterministic report order.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rs_files(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// The result of a workspace scan: findings plus the file census the
/// stale-entry check runs against.
pub struct ScanReport {
    pub findings: Vec<Finding>,
    pub files_scanned: Vec<String>,
    pub allowlist: Allowlist,
}

/// Scan every `.rs` file under `root`'s `crates/` and `tests/` trees
/// against the allowlist at `root/lint-allow.toml` (absent file = empty
/// allowlist).
pub fn scan_workspace(root: &Path) -> Result<ScanReport, String> {
    let allow_path = root.join("lint-allow.toml");
    let allowlist = match std::fs::read_to_string(&allow_path) {
        Ok(text) => Allowlist::parse(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Allowlist::default(),
        Err(e) => return Err(format!("read {}: {e}", allow_path.display())),
    };
    let mut files = Vec::new();
    for sub in ["crates", "tests"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            rs_files(&dir, &mut files)?;
        }
    }
    if files.is_empty() {
        return Err(format!(
            "no .rs files under {} — is this the workspace root?",
            root.display()
        ));
    }
    let mut findings = Vec::new();
    let mut scanned = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let text =
            std::fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
        findings.extend(scan_text(&rel, &text, &allowlist));
        scanned.push(rel);
    }
    Ok(ScanReport {
        findings,
        files_scanned: scanned,
        allowlist,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_wall_clock() -> String {
        format!("fn t() {{ let t0 = std::time::{PAT_INSTANT_NOW}(); }}\n")
    }

    #[test]
    fn unallowlisted_instant_now_is_a_finding() {
        let f = scan_text(
            "crates/core/src/des.rs",
            &fixture_wall_clock(),
            &Allowlist::default(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::WallClock);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn allowlist_exempts_exactly_its_path_and_rule() {
        let allow = Allowlist::parse(&format!(
            "[[allow]]\npath = \"crates/bench/src/harness.rs\"\nrule = \"{}\"\nreason = \"benches measure wall time\"\n",
            Rule::WallClock.as_str()
        ))
        .expect("parse");
        assert!(scan_text("crates/bench/src/harness.rs", &fixture_wall_clock(), &allow).is_empty());
        // Same rule, different file: still a finding.
        assert_eq!(
            scan_text("crates/core/src/des.rs", &fixture_wall_clock(), &allow).len(),
            1
        );
        // Same file, different rule: still a finding.
        let hash_line = format!("use std::collections::{PAT_HASH_MAP};\n");
        assert_eq!(
            scan_text("crates/bench/src/harness.rs", &hash_line, &allow).len(),
            1
        );
    }

    #[test]
    fn system_time_and_hash_set_match_as_words() {
        let sys = format!("let t = std::time::{PAT_SYSTEM_TIME}::now();\n");
        assert_eq!(
            scan_text("crates/x/src/a.rs", &sys, &Allowlist::default())[0].rule,
            Rule::WallClock
        );
        let set = format!("let mut seen: {PAT_HASH_SET}<u64> = Default::default();\n");
        assert_eq!(
            scan_text("crates/x/src/a.rs", &set, &Allowlist::default())[0].rule,
            Rule::HashCollection
        );
        // Longer identifiers do not match: a word boundary is required.
        let not_a_match = format!("struct {PAT_SYSTEM_TIME}stamp;\n");
        assert!(scan_text("crates/x/src/a.rs", &not_a_match, &Allowlist::default()).is_empty());
    }

    #[test]
    fn unsafe_flagged_everywhere() {
        let line = format!("{PAT_UNSAFE} {{ ptr.read() }}\n");
        for path in [
            "crates/core/src/des.rs",
            "crates/par/src/pool.rs",
            "crates/appvm/src/bin/fem2-console.rs",
            "tests/tests/verify.rs",
        ] {
            let f = scan_text(path, &line, &Allowlist::default());
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, Rule::UnsafeCode);
        }
        // And no allowlist entry can exempt a file from it.
        let exempt = format!(
            "[[allow]]\npath = \"crates/par/src/pool.rs\"\nrule = \"{}\"\nreason = \"r\"\n",
            Rule::UnsafeCode.as_str()
        );
        assert!(Allowlist::parse(&exempt).is_err());
        // The forbid attribute names `unsafe_code`, which is a longer
        // identifier — not the keyword.
        let forbid = format!("#![forbid({PAT_UNSAFE}_code)]\n");
        assert!(scan_text("crates/core/src/lib.rs", &forbid, &Allowlist::default()).is_empty());
    }

    #[test]
    fn wall_value_feeding_a_hash_call_is_flagged() {
        let bad = format!("let h = {PAT_CONTENT_HASH}(&(spec, {PAT_WALL}_ns));\n");
        let f = scan_text("crates/serve/src/job.rs", &bad, &Allowlist::default());
        assert!(f.iter().any(|f| f.rule == Rule::WallInHash), "{f:?}");
        // Either alone is fine (for this rule).
        let hash_only = format!("let h = {PAT_CONTENT_HASH}(&spec);\n");
        let wall_only = format!("let {PAT_WALL}_ns = 7;\n");
        let both = format!("{hash_only}{wall_only}");
        assert!(
            scan_text("crates/serve/src/job.rs", &both, &Allowlist::default())
                .iter()
                .all(|f| f.rule != Rule::WallInHash)
        );
    }

    #[test]
    fn comments_do_not_trip_rules() {
        let text = format!("// {PAT_INSTANT_NOW} would break determinism here\nlet x = 1;\n");
        assert!(scan_text("crates/x/src/a.rs", &text, &Allowlist::default()).is_empty());
    }

    #[test]
    fn allowlist_parser_rejects_incomplete_entries() {
        assert!(Allowlist::parse("[[allow]]\npath = \"a.rs\"\n").is_err());
        assert!(Allowlist::parse("path = \"a.rs\"\n").is_err());
        assert!(Allowlist::parse("[[allow]]\npath = unquoted\n").is_err());
        let ok = Allowlist::parse(
            "# comment\n[[allow]]\npath = \"a.rs\"\nrule = \"wall-clock\"\nreason = \"r\"\n",
        )
        .expect("well-formed");
        assert!(ok.allows("a.rs", Rule::WallClock));
        assert!(!ok.allows("a.rs", Rule::HashCollection));
    }

    #[test]
    fn stale_allowlist_entries_are_reported() {
        let allow = Allowlist::parse(
            "[[allow]]\npath = \"crates/gone.rs\"\nrule = \"wall-clock\"\nreason = \"r\"\n",
        )
        .expect("parse");
        let stale = allow.stale(&["crates/here.rs".to_string()]);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].path, "crates/gone.rs");
    }
}
