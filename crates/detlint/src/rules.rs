//! The named rule registry.
//!
//! Rules are registered by name: lookups by unknown names fail with an
//! error that enumerates the registered set, and the same names
//! are the currency of `allow(...)` pragmas and of findings. Three rules
//! are token scanners over one file; two (`invalid-pragma`,
//! `stale-allow`) are driven by the pragma table in the lint driver and
//! exist in the registry so their names are reserved, listable and
//! documented in one place.

use crate::lexer::{Token, TokenKind};

/// Per-file context a scan rule sees: tokens, the test mask, and the
/// file's contract classification derived from its workspace path.
pub struct FileView<'a> {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: &'a str,
    /// The lexed tokens.
    pub tokens: &'a [Token],
    /// `in_test[i]` — token `i` sits in `#[test]`/`#[cfg(test)]` code.
    pub in_test: &'a [bool],
    /// The file belongs to a deterministic crate (traces must be a pure
    /// function of config + seed).
    pub is_det: bool,
    /// The file belongs to a daemon crate (request paths must degrade to
    /// error responses, never panic).
    pub is_daemon: bool,
}

/// One raw (pre-suppression) finding: the line it fires on and its text.
pub struct RawFinding {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable explanation, actionable without opening the docs.
    pub message: String,
}

/// A registered lint rule.
pub trait LintRule {
    /// Registry name, as reported in findings.
    fn name(&self) -> &'static str;
    /// The key accepted inside `allow(...)` pragmas (a short alias; the
    /// full registry name is accepted too).
    fn pragma_key(&self) -> &'static str {
        self.name()
    }
    /// One-line catalogue description.
    fn summary(&self) -> &'static str;
    /// Token scan over one file. Registry-level rules return nothing
    /// here; the driver computes their findings from the pragma table.
    fn scan(&self, file: &FileView<'_>) -> Vec<RawFinding>;
}

/// `wall-clock-in-det`: `Instant::now()` / `SystemTime` in deterministic
/// crates. Wall-clock readings may only ever feed report-only fields
/// (latency percentiles, `wall_clock_ms`) — never traces — and every such
/// site must say so in an allow pragma.
struct WallClockInDet;

impl LintRule for WallClockInDet {
    fn name(&self) -> &'static str {
        "wall-clock-in-det"
    }
    fn pragma_key(&self) -> &'static str {
        "wall-clock"
    }
    fn summary(&self) -> &'static str {
        "Instant::now()/SystemTime in a deterministic crate: wall-clock is report-only and every site needs an audited allow pragma"
    }
    fn scan(&self, file: &FileView<'_>) -> Vec<RawFinding> {
        if !file.is_det {
            return Vec::new();
        }
        let mut out = Vec::new();
        let toks = file.tokens;
        for i in 0..toks.len() {
            if file.in_test[i] || toks[i].kind != TokenKind::Ident {
                continue;
            }
            if toks[i].text == "Instant"
                && matches!(toks.get(i + 1), Some(t) if t.kind == TokenKind::Punct(':'))
                && matches!(toks.get(i + 2), Some(t) if t.kind == TokenKind::Punct(':'))
                && matches!(toks.get(i + 3), Some(t) if t.text == "now")
            {
                out.push(RawFinding {
                    line: toks[i].line,
                    message: "Instant::now() in a deterministic crate; wall-clock may feed \
                              reports only, never traces — fix it or annotate \
                              `allow(wall-clock)` with the reason"
                        .to_string(),
                });
            } else if toks[i].text == "SystemTime" {
                out.push(RawFinding {
                    line: toks[i].line,
                    message: "SystemTime in a deterministic crate; wall-clock may feed \
                              reports only, never traces — fix it or annotate \
                              `allow(wall-clock)` with the reason"
                        .to_string(),
                });
            }
        }
        out
    }
}

/// `unordered-container`: `HashMap`/`HashSet` anywhere in a deterministic
/// crate. Their iteration order is seeded per process, so any value that
/// flows from one toward a trace breaks byte-determinism; deterministic
/// crates use `BTreeMap`/`BTreeSet` or carry a proof of order-insensitivity
/// in an allow pragma.
struct UnorderedContainer;

impl LintRule for UnorderedContainer {
    fn name(&self) -> &'static str {
        "unordered-container"
    }
    fn summary(&self) -> &'static str {
        "HashMap/HashSet in a deterministic crate: iteration order is unseeded, use BTreeMap/BTreeSet or prove order-insensitivity in a pragma"
    }
    fn scan(&self, file: &FileView<'_>) -> Vec<RawFinding> {
        if !file.is_det {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (i, tok) in file.tokens.iter().enumerate() {
            if file.in_test[i] || tok.kind != TokenKind::Ident {
                continue;
            }
            if tok.text == "HashMap" || tok.text == "HashSet" {
                out.push(RawFinding {
                    line: tok.line,
                    message: format!(
                        "{} in a deterministic crate; iteration order is not deterministic \
                         — use BTree{} or annotate `allow(unordered-container)` with an \
                         order-insensitivity argument",
                        tok.text,
                        tok.text.trim_start_matches("Hash"),
                    ),
                });
            }
        }
        out
    }
}

/// `panic-in-daemon`: `.unwrap()` / `.expect(` / `panic!` in a daemon
/// crate's non-test code. A daemon request path that panics takes the
/// whole fleet down with the one bad request; these must become error
/// responses (or carry a pragma explaining why the panic is unreachable).
struct PanicInDaemon;

impl LintRule for PanicInDaemon {
    fn name(&self) -> &'static str {
        "panic-in-daemon"
    }
    fn summary(&self) -> &'static str {
        ".unwrap()/.expect()/panic! in daemon non-test code: request paths must degrade to error responses, never abort the process"
    }
    fn scan(&self, file: &FileView<'_>) -> Vec<RawFinding> {
        if !file.is_daemon {
            return Vec::new();
        }
        let mut out = Vec::new();
        let toks = file.tokens;
        for i in 0..toks.len() {
            if file.in_test[i] {
                continue;
            }
            let method_call = |name: &str| {
                matches!(toks.get(i), Some(t) if t.kind == TokenKind::Punct('.'))
                    && matches!(toks.get(i + 1), Some(t) if t.kind == TokenKind::Ident && t.text == name)
                    && matches!(toks.get(i + 2), Some(t) if t.kind == TokenKind::Punct('('))
            };
            if method_call("unwrap") || method_call("expect") {
                out.push(RawFinding {
                    line: toks[i + 1].line,
                    message: format!(
                        ".{}() in daemon code; a panicking request path kills the whole \
                         daemon — return an error response instead, or annotate \
                         `allow(panic-in-daemon)` with an unreachability argument",
                        toks[i + 1].text
                    ),
                });
            } else if toks[i].kind == TokenKind::Ident
                && toks[i].text == "panic"
                && matches!(toks.get(i + 1), Some(t) if t.kind == TokenKind::Punct('!'))
            {
                out.push(RawFinding {
                    line: toks[i].line,
                    message: "panic! in daemon code; request paths must degrade to error \
                              responses — or annotate `allow(panic-in-daemon)` with an \
                              unreachability argument"
                        .to_string(),
                });
            }
        }
        out
    }
}

/// `invalid-pragma`: a comment that starts with the `detlint:` marker but
/// violates the pragma grammar (unknown rule name, missing `-- reason`).
/// Findings are produced by the driver; registered here so the name is
/// reserved and listable.
struct InvalidPragma;

impl LintRule for InvalidPragma {
    fn name(&self) -> &'static str {
        "invalid-pragma"
    }
    fn summary(&self) -> &'static str {
        "a detlint pragma that does not parse: unknown rule name or missing `-- <reason>` justification"
    }
    fn scan(&self, _file: &FileView<'_>) -> Vec<RawFinding> {
        Vec::new()
    }
}

/// `stale-allow`: an allow pragma whose rule no longer fires on its target
/// line. Produced by the driver after suppression bookkeeping; registered
/// here so the name is reserved and listable.
struct StaleAllow;

impl LintRule for StaleAllow {
    fn name(&self) -> &'static str {
        "stale-allow"
    }
    fn summary(&self) -> &'static str {
        "an allow pragma that suppresses nothing on its target line: the hazard is gone, so the annotation must go too"
    }
    fn scan(&self, _file: &FileView<'_>) -> Vec<RawFinding> {
        Vec::new()
    }
}

/// The registry, in catalogue order.
pub fn registry() -> &'static [&'static dyn LintRule] {
    const REGISTRY: [&dyn LintRule; 5] = [
        &WallClockInDet,
        &UnorderedContainer,
        &PanicInDaemon,
        &InvalidPragma,
        &StaleAllow,
    ];
    &REGISTRY
}

/// Looks a rule up by registry name or pragma key.
pub fn by_name(name: &str) -> Option<&'static dyn LintRule> {
    registry()
        .iter()
        .copied()
        .find(|r| r.name() == name || r.pragma_key() == name)
}

/// The error for an unregistered rule name, enumerating the valid set —
/// the same shape the fleet's policy registries use.
pub fn unknown_rule_error(name: &str) -> String {
    let keys: Vec<&str> = registry().iter().map(|r| r.pragma_key()).collect();
    format!(
        "unknown rule `{name}` (registered rules: {})",
        keys.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lookup_accepts_names_and_pragma_keys() {
        assert_eq!(
            by_name("wall-clock-in-det").unwrap().name(),
            "wall-clock-in-det"
        );
        assert_eq!(by_name("wall-clock").unwrap().name(), "wall-clock-in-det");
        assert_eq!(
            by_name("panic-in-daemon").unwrap().name(),
            "panic-in-daemon"
        );
        assert!(by_name("nonsense").is_none());
    }

    #[test]
    fn unknown_rule_error_enumerates_the_registered_set() {
        let err = unknown_rule_error("speling");
        assert!(err.contains("unknown rule `speling`"), "{err}");
        for key in [
            "wall-clock",
            "unordered-container",
            "panic-in-daemon",
            "stale-allow",
        ] {
            assert!(err.contains(key), "{err} should list {key}");
        }
    }
}
