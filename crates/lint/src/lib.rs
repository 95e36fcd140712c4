//! `tcpa-lint` — the workspace's own static-analysis pass.
//!
//! The paper's core promise is that tcpanaly's verdicts are
//! *reproducible*: the same trace always yields the same calibration and
//! fingerprint, and this workspace extends that to a byte-identical
//! census and `tcpa-metrics/v1` document across any `--jobs` setting.
//! The rules here prove the supporting invariants statically on every
//! commit — no unordered maps feeding output, no stray prints around the
//! census writer, no panics on salvage paths, no lossy casts in the
//! byte decoders, no threads that escape the corpus worker.
//!
//! Deliberately zero dependencies: a hand-rolled lexer
//! ([`lexer`]), token-sequence rules ([`rules`]), a `Lint.toml` subset
//! parser ([`config`]), justified inline allows ([`suppress`]), and
//! deterministic human/JSON reporters ([`report`]). Run it as
//! `cargo run -p tcpa-lint -- check`.

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
pub mod suppress;
pub mod walker;

use std::fs;
use std::io;
use std::path::Path;

pub use config::Config;
pub use report::LintReport;
pub use rules::{Finding, RULE_NAMES};

/// Lints one file's source, accumulating into `out`. `path` is the
/// workspace-relative `/`-separated path used for scoping and reporting.
pub fn check_source(path: &str, src: &str, config: &Config, out: &mut LintReport) {
    let lexed = lexer::lex(src);
    let tests = scope::detect(&lexed.tokens);
    let ctx = rules::FileCtx {
        path,
        tokens: &lexed.tokens,
        tests: &tests,
        file_is_test: scope::path_is_test(path),
    };
    let mut findings = rules::run_all(&ctx, |rule| config.scope(rule));
    let (allows, mut malformed) = suppress::parse(path, &lexed.comments, &lexed.tokens);
    findings.append(&mut malformed);
    report::apply_allows(findings, &allows, out);
    out.files_checked += 1;
}

/// Lints every `.rs` file under `root` (minus the config's walk
/// excludes) and returns the finalized, deterministically-ordered
/// report.
pub fn check_dir(root: &Path, config: &Config) -> io::Result<LintReport> {
    let mut out = LintReport::default();
    for rel in walker::rust_files(root, &config.walk_exclude)? {
        let bytes = fs::read(root.join(&rel))?;
        let src = String::from_utf8_lossy(&bytes);
        check_source(&rel, &src, config, &mut out);
    }
    out.finalize();
    Ok(out)
}

/// Loads `Lint.toml` from `root` and runs [`check_dir`]. This is the
/// whole CLI `check` subcommand, kept in the library so tests can run
/// the gate in-process.
pub fn check_workspace(root: &Path) -> Result<LintReport, String> {
    let config_path = root.join("Lint.toml");
    let src = fs::read_to_string(&config_path)
        .map_err(|e| format!("cannot read {}: {e}", config_path.display()))?;
    let config = Config::parse(&src, RULE_NAMES)?;
    check_dir(root, &config).map_err(|e| format!("walk failed under {}: {e}", root.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_source_applies_allows() {
        let config = Config::default();
        let mut report = LintReport::default();
        let src = "fn f() {\n    x.unwrap(); // tcpa-lint: allow(no-unwrap-in-analyzer) -- test scaffolding only\n    y.unwrap();\n}\n";
        check_source("m.rs", src, &config, &mut report);
        report.finalize();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 3);
        assert_eq!(report.allowed.len(), 1);
        assert_eq!(report.files_checked, 1);
    }

    #[test]
    fn malformed_suppression_is_a_finding() {
        let config = Config::default();
        let mut report = LintReport::default();
        check_source(
            "m.rs",
            "fn f() {} // tcpa-lint: allow(nope) -- x\n",
            &config,
            &mut report,
        );
        report.finalize();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, rules::MALFORMED_RULE);
    }
}
