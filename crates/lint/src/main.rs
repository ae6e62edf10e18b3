//! Command-line driver for `oasis-lint`.
//!
//! ```text
//! cargo run -p oasis-lint                 # lint the whole workspace
//! cargo run -p oasis-lint -- --format=json
//! cargo run -p oasis-lint -- crates/host/src/hypervisor.rs
//! cargo run -p oasis-lint -- --list-rules
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error. The per-file
//! phase runs on `OASIS_JOBS` workers (default: available parallelism);
//! findings are byte-identical for any worker count.

use std::path::PathBuf;
use std::process::ExitCode;

use oasis_lint::engine::{analyze_files, analyze_workspace, find_workspace_root, Report};
use oasis_lint::rules::RULES;
use oasis_sim::pool::WorkerPool;

enum Format {
    Human,
    Json,
}

struct Args {
    format: Format,
    root: Option<PathBuf>,
    paths: Vec<String>,
    list_rules: bool,
}

const USAGE: &str =
    "usage: oasis-lint [--root <dir>] [--format=human|json] [--list-rules] [paths...]

Lints every .rs file in the workspace (or just the given paths, relative
to the workspace root) against the determinism, panic-hygiene and
unit-safety rules, then runs the workspace call-graph determinism taint
analysis. Suppress a finding in place with:

    // oasis-lint: allow(<rule>, \"<reason>\")

or justify a contained taint dependency on a whole function with:

    // oasis-lint: boundary(<rule>, \"<reason>\")

OASIS_JOBS sets the worker count (default: available parallelism);
output is identical for any value.
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { format: Format::Human, root: None, paths: Vec::new(), list_rules: false };
    let set_format = |args: &mut Args, v: &str| {
        args.format = match v {
            "human" => Format::Human,
            "json" => Format::Json,
            other => return Err(format!("bad --format value {other:?}")),
        };
        Ok(())
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--list-rules" => args.list_rules = true,
            "--format" => match it.next() {
                Some(v) => set_format(&mut args, &v)?,
                None => return Err("--format needs a value".to_string()),
            },
            "--root" => match it.next() {
                Some(p) => args.root = Some(PathBuf::from(p)),
                None => return Err("--root needs a directory".to_string()),
            },
            _ if a.starts_with("--format=") => set_format(&mut args, &a["--format=".len()..])?,
            _ if a.starts_with("--root=") => {
                args.root = Some(PathBuf::from(&a["--root=".len()..]));
            }
            _ if a.starts_with('-') => return Err(format!("unknown flag {a:?}")),
            _ => args.paths.push(a),
        }
    }
    Ok(args)
}

fn run() -> Result<Report, String> {
    let args = parse_args()?;
    if args.list_rules {
        for r in RULES {
            println!("{:<18} {}", r.id, r.summary.split_whitespace().collect::<Vec<_>>().join(" "));
        }
        return Ok(Report::default());
    }
    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_workspace_root(&cwd).ok_or_else(|| {
                "no workspace root found (no ancestor Cargo.toml with [workspace]); pass --root"
                    .to_string()
            })?
        }
    };
    let pool = WorkerPool::from_env();
    let report = if args.paths.is_empty() {
        analyze_workspace(&root, &pool).map_err(|e| format!("walking {}: {e}", root.display()))?
    } else {
        let files = args.paths.iter().map(|p| root.join(p)).collect();
        analyze_files(&root, files, &pool).map_err(|e| format!("reading files: {e}"))?
    };
    match args.format {
        Format::Json => print!("{}", report.to_json()),
        Format::Human => {
            for f in &report.findings {
                println!("{f}");
            }
            eprintln!(
                "oasis-lint: {} finding{} in {} file{} checked",
                report.findings.len(),
                if report.findings.len() == 1 { "" } else { "s" },
                report.checked_files,
                if report.checked_files == 1 { "" } else { "s" },
            );
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    match run() {
        Ok(report) if report.findings.is_empty() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{USAGE}");
            } else {
                eprintln!("oasis-lint: {msg}");
            }
            ExitCode::from(2)
        }
    }
}
