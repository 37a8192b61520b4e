//! `optima-lint` — the workspace static-analysis pass.
//!
//! The repo's core promise — bit-identical reproduction of the paper's
//! figures at any thread count — rests on conventions that have each
//! regressed at least once when enforced only by review: `total_cmp`
//! instead of `partial_cmp`, seeded RNG streams instead of ambient
//! entropy, typed errors instead of panics, and allocation-free inner
//! kernels.  This crate turns those conventions into machine-checked rules
//! (see [`rules`]) over a hand-rolled token-level lexer ([`lexer`]), with
//! inline suppression directives ([`directives`]) and a checked-in
//! `lint.toml` ([`config`]).
//!
//! Entry points: [`lint_source`] for one file (used by the fixture tests),
//! [`run_workspace`] for the full tree (used by the `optima-lint` binary,
//! which CI and the self-audit test drive).

pub mod config;
pub mod directives;
pub mod error;
pub mod lexer;
pub mod report;
pub mod rules;

pub use config::{Config, Severity};
pub use error::LintError;

use config::path_matches;
use lexer::{LexedFile, TokenKind};
use std::path::{Path, PathBuf};

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// `R1`…`R4`, or [`rules::DIRECTIVE_RULE`].
    pub rule: String,
    pub severity: Severity,
    pub message: String,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    pub findings: Vec<Finding>,
    /// Findings suppressed by a justified `allow` directive.
    pub suppressed: usize,
}

/// Result of a workspace run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    pub suppressed: usize,
}

impl Outcome {
    /// `true` when the run should fail: any deny finding, or any finding at
    /// all in `--deny` mode.
    pub fn fails(&self, deny: bool) -> bool {
        self.findings
            .iter()
            .any(|f| deny || f.severity == Severity::Deny)
    }
}

/// Lints one file's source text.  `rel_path` is the workspace-relative
/// path used for the config's path allowlists and for reporting.
pub fn lint_source(rel_path: &str, source: &str, config: &Config) -> FileOutcome {
    let file = lexer::lex(source);
    let in_test = test_regions(&file);
    let parsed = directives::parse(&file);

    let enabled = |rule_id: &str, token_in_test: bool| {
        let rule_config = config.rule(rule_id);
        if rule_config.severity == Severity::Off {
            return false;
        }
        if token_in_test && !rule_config.include_tests {
            return false;
        }
        if !rule_config.paths.is_empty() && !path_matches(rel_path, &rule_config.paths) {
            return false;
        }
        !path_matches(rel_path, &rule_config.allow_paths)
    };
    let ctx = rules::ScanContext {
        in_test: &in_test,
        hot_ranges: &parsed.hot_ranges,
    };
    let raw = rules::scan(&file, &ctx, enabled);

    // Apply suppressions: an allow covers findings of its listed rules on
    // its target line; every (allow, rule) pair must suppress something.
    let mut outcome = FileOutcome::default();
    let mut used: Vec<Vec<bool>> = parsed
        .allows
        .iter()
        .map(|allow| vec![false; allow.rules.len()])
        .collect();
    for finding in raw {
        let mut suppressed = false;
        for (a, allow) in parsed.allows.iter().enumerate() {
            if allow.target_line != finding.line {
                continue;
            }
            for (rule_index, rule_id) in allow.rules.iter().enumerate() {
                if rule_id == finding.rule {
                    used[a][rule_index] = true;
                    suppressed = true;
                }
            }
        }
        if suppressed {
            outcome.suppressed += 1;
        } else {
            outcome.findings.push(Finding {
                file: rel_path.to_string(),
                line: finding.line,
                col: finding.col,
                rule: finding.rule.to_string(),
                severity: config.rule(finding.rule).severity,
                message: finding.message,
            });
        }
    }
    for (a, allow) in parsed.allows.iter().enumerate() {
        for (rule_index, rule_id) in allow.rules.iter().enumerate() {
            // A suppression for a disabled rule is not stale — turning a
            // rule off must not invalidate every annotation.
            let rule_off = config.rule(rule_id).severity == Severity::Off;
            if !used[a][rule_index] && !rule_off {
                outcome.findings.push(directive_finding(
                    rel_path,
                    allow.line,
                    allow.col,
                    format!(
                        "stale suppression: `allow({rule_id})` matches no {rule_id} finding on \
                         line {} — remove it (or move it next to the code it justifies)",
                        allow.target_line
                    ),
                ));
            }
        }
    }
    for (line, col, message) in parsed.malformed {
        outcome
            .findings
            .push(directive_finding(rel_path, line, col, message));
    }
    outcome
        .findings
        .sort_by_key(|f| (f.line, f.col, f.rule.clone()));
    outcome
}

fn directive_finding(rel_path: &str, line: u32, col: u32, message: String) -> Finding {
    Finding {
        file: rel_path.to_string(),
        line,
        col,
        rule: rules::DIRECTIVE_RULE.to_string(),
        severity: Severity::Deny,
        message,
    }
}

/// Per-token flag: inside a `#[cfg(test)]`-gated item or a `mod tests`
/// block.  Attributes containing the identifier `test` gate the next
/// braced item — except `cfg(not(test))`, which is production code.
fn test_regions(file: &LexedFile) -> Vec<bool> {
    let tokens = &file.tokens;
    let mut in_test = vec![false; tokens.len()];
    let mut depth = 0usize;
    let mut test_depths: Vec<usize> = Vec::new();
    let mut pending_test = false;
    let mut i = 0;
    while i < tokens.len() {
        let token = &tokens[i];
        if token.is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Scan the attribute to its matching `]`.
            let start = i + 2;
            let mut j = start;
            let mut bracket_depth = 1usize;
            while j < tokens.len() && bracket_depth > 0 {
                if tokens[j].is_punct('[') {
                    bracket_depth += 1;
                } else if tokens[j].is_punct(']') {
                    bracket_depth -= 1;
                }
                j += 1;
            }
            if attr_gates_test(&tokens[start..j.saturating_sub(1)]) {
                pending_test = true;
            }
            for slot in in_test.iter_mut().take(j).skip(i) {
                *slot = !test_depths.is_empty();
            }
            i = j;
            continue;
        }
        match &token.kind {
            TokenKind::Punct('{') => {
                depth += 1;
                if pending_test {
                    test_depths.push(depth);
                    pending_test = false;
                }
            }
            TokenKind::Punct('}') => {
                if test_depths.last() == Some(&depth) {
                    test_depths.pop();
                }
                depth = depth.saturating_sub(1);
            }
            TokenKind::Punct(';') => pending_test = false,
            TokenKind::Ident(name)
                if name == "mod" && tokens.get(i + 1).and_then(|t| t.ident()) == Some("tests") =>
            {
                pending_test = true;
            }
            _ => {}
        }
        in_test[i] = !test_depths.is_empty();
        i += 1;
    }
    in_test
}

/// `true` when an attribute's token body gates test-only code: contains the
/// identifier `test` not wrapped in `not(…)`.
fn attr_gates_test(attr: &[lexer::Token]) -> bool {
    attr.iter().enumerate().any(|(k, token)| {
        token.ident() == Some("test")
            && !(k >= 2 && attr[k - 1].is_punct('(') && attr[k - 2].ident() == Some("not"))
    })
}

/// Collects the workspace-relative paths of all `.rs` files in the scan
/// set, sorted for deterministic output.
pub fn collect_files(root: &Path, config: &Config) -> Result<Vec<PathBuf>, LintError> {
    let mut files = Vec::new();
    for include in &config.include {
        let base = if include == "." {
            root.to_path_buf()
        } else {
            root.join(include)
        };
        if base.is_dir() {
            walk(root, &base, &config.exclude, &mut files)?;
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn walk(
    root: &Path,
    dir: &Path,
    exclude: &[String],
    files: &mut Vec<PathBuf>,
) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir).map_err(|source| LintError::Io {
        path: dir.display().to_string(),
        source,
    })?;
    for entry in entries {
        let entry = entry.map_err(|source| LintError::Io {
            path: dir.display().to_string(),
            source,
        })?;
        let path = entry.path();
        let rel = relative_path(root, &path);
        if path_matches(&rel, exclude) || rel.split('/').any(|part| part.starts_with('.')) {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, exclude, files)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative forward-slash form of `path`.
fn relative_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints every `.rs` file of the workspace under `root` per `config`.
///
/// # Errors
///
/// [`LintError::Io`] when a directory or file cannot be read; findings are
/// *not* errors.
pub fn run_workspace(root: &Path, config: &Config) -> Result<Outcome, LintError> {
    let mut outcome = Outcome::default();
    for path in collect_files(root, config)? {
        let source = std::fs::read_to_string(&path).map_err(|source| LintError::Io {
            path: path.display().to_string(),
            source,
        })?;
        let rel = relative_path(root, &path);
        let file_outcome = lint_source(&rel, &source, config);
        outcome.findings.extend(file_outcome.findings);
        outcome.suppressed += file_outcome.suppressed;
        outcome.files_scanned += 1;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(source: &str) -> FileOutcome {
        lint_source("crates/x/src/lib.rs", source, &Config::default())
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_r3_but_not_r1() {
        let src = "\
#[cfg(test)]
mod tests {
    fn helper() {
        let v = maybe.unwrap();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
}
";
        let outcome = lint(src);
        let ids: Vec<&str> = outcome.findings.iter().map(|f| f.rule.as_str()).collect();
        // R3 (include_tests = false) is silent; R1 (include_tests = true)
        // still fires inside the test module.
        assert_eq!(ids, vec!["R1"]);
    }

    #[test]
    fn cfg_not_test_is_production_code() {
        let src = "#[cfg(not(test))]\nfn init() { let v = maybe.unwrap(); }\n";
        let outcome = lint(src);
        assert_eq!(outcome.findings.len(), 1);
        assert_eq!(outcome.findings[0].rule, "R3");
    }

    #[test]
    fn cfg_test_gated_function_is_exempt() {
        let src = "#[cfg(test)]\nfn helper() { let v = maybe.unwrap(); }\n";
        assert!(lint(src).findings.is_empty());
    }

    #[test]
    fn justified_allow_suppresses_and_counts() {
        let src = "\
// optima-lint: allow(R3) -- the slice is non-empty by construction
let last = values.last().unwrap();
";
        let outcome = lint(src);
        assert!(outcome.findings.is_empty(), "{:?}", outcome.findings);
        assert_eq!(outcome.suppressed, 1);
    }

    #[test]
    fn stale_allow_is_a_directive_finding() {
        let src = "// optima-lint: allow(R1) -- nothing here uses it\nlet x = 1;\n";
        let outcome = lint(src);
        assert_eq!(outcome.findings.len(), 1);
        assert_eq!(outcome.findings[0].rule, rules::DIRECTIVE_RULE);
        assert!(outcome.findings[0].message.contains("stale suppression"));
    }

    #[test]
    fn unjustified_allow_is_a_directive_finding_and_does_not_suppress() {
        let src = "let v = maybe.unwrap(); // optima-lint: allow(R3)\n";
        let outcome = lint(src);
        let ids: Vec<&str> = outcome.findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(ids.contains(&"R3"));
        assert!(ids.contains(&rules::DIRECTIVE_RULE));
    }

    #[test]
    fn severity_off_disables_a_rule_without_staling_its_allows() {
        let mut config = Config::default();
        config.rules.get_mut("R3").expect("R3 exists").severity = Severity::Off;
        let src = "\
// optima-lint: allow(R3) -- would suppress when the rule is on
let v = maybe.unwrap();
";
        let outcome = lint_source("crates/x/src/lib.rs", src, &config);
        assert!(outcome.findings.is_empty(), "{:?}", outcome.findings);
    }

    #[test]
    fn rule_paths_restrict_and_allow_paths_exempt() {
        let mut config = Config::default();
        config.rules.get_mut("R3").expect("R3 exists").paths = vec!["crates/imc/src".to_string()];
        config.rules.get_mut("R2").expect("R2 exists").allow_paths =
            vec!["crates/bench/".to_string()];
        let src = "fn f() { let v = x.unwrap(); let t = Instant::now(); }\n";
        let in_scope = lint_source("crates/imc/src/fom.rs", src, &config);
        let ids: Vec<&str> = in_scope.findings.iter().map(|f| f.rule.as_str()).collect();
        // Findings sort by span, and `.unwrap()` precedes `Instant::now()`.
        assert_eq!(ids, vec!["R3", "R2"]);
        let out_of_scope = lint_source("crates/bench/src/lib.rs", src, &config);
        assert!(out_of_scope.findings.is_empty());
    }

    #[test]
    fn outcome_failure_respects_severity_and_deny_mode() {
        let mut warn_outcome = Outcome::default();
        warn_outcome.findings.push(Finding {
            file: "f.rs".into(),
            line: 1,
            col: 1,
            rule: "R1".into(),
            severity: Severity::Warn,
            message: "m".into(),
        });
        assert!(!warn_outcome.fails(false));
        assert!(warn_outcome.fails(true));
    }
}
