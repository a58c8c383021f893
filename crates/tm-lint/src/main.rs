//! CLI for the workspace determinism linter.
//!
//! * `tm-lint` — lint the whole workspace per `tm-lint.toml` (found in the
//!   current directory, or the workspace root when run via
//!   `cargo run -p tm-lint`). Exits 1 on any un-allowed diagnostic.
//! * `tm-lint <file>…` — lint specific files with every rule denied
//!   (sim-core strictness), regardless of tier. Handy for fixtures and
//!   pre-commit spot checks.
//!
//! Always prints a machine-readable `TM_LINT_JSON` summary line last, so
//! CI and future BENCH_JSON tooling can track rule counts over time.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: tm-lint [<file.rs>…]\n  no args: lint the workspace per tm-lint.toml\n  files:   lint them with every rule denied");
        return ExitCode::SUCCESS;
    }

    let result = if args.is_empty() {
        workspace_root().and_then(|root| tm_lint::lint_workspace(&root))
    } else {
        let files: Vec<PathBuf> = args.iter().map(PathBuf::from).collect();
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        tm_lint::lint_files_strict(&cwd, &files)
    };

    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tm-lint: error: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &report.diagnostics {
        println!("{}", d.render());
    }
    println!(
        "tm-lint: {} files, {} diagnostics, {} allowed exceptions",
        report.files,
        report.diagnostics.len(),
        report.allowed_total()
    );
    println!("{}", report.summary_json());
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The directory holding `tm-lint.toml`: the current directory if it has
/// one (the normal `cargo run -p tm-lint` case runs from the workspace
/// root), else two levels above this crate's manifest.
fn workspace_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    if cwd.join("tm-lint.toml").is_file() {
        return Ok(cwd);
    }
    let from_manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if from_manifest.join("tm-lint.toml").is_file() {
        return Ok(from_manifest);
    }
    Err("tm-lint.toml not found in the current directory or the workspace root".to_string())
}
