//! Prints `EXPERIMENTS.md`: the preamble, then one section per
//! experiment, or with `--only <id>` that experiment's section alone.
//! Each section prints through a [`Reporter`] named after its
//! experiment, so `OASIS_BENCH_TRACE` tags its mirrored lines `[<id>]`.

use oasis_bench::experiments::{Experiment, ALL, PREAMBLE};
use oasis_bench::Reporter;
use std::process::ExitCode;

/// Picks the experiments the arguments ask for, and the run count.
fn setup(args: &[String]) -> Result<(Vec<&'static Experiment>, u64), String> {
    let selected = match args {
        [] => ALL.iter().collect(),
        [flag, id] if flag == "--only" => match ALL.iter().find(|e| e.id == id) {
            Some(e) => vec![e],
            None => {
                let ids: Vec<&str> = ALL.iter().map(|e| e.id).collect();
                return Err(format!("unknown experiment {id:?}; valid ids: {}", ids.join(", ")));
            }
        },
        _ => return Err("usage: experiments [--only <id>]".to_string()),
    };
    let runs = oasis_bench::runs().map_err(|e| e.to_string())?;
    Ok((selected, runs))
}

fn print(reporter: &Reporter, text: &str) {
    text.lines().for_each(|line| reporter.line(line));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (selected, runs) = match setup(&args) {
        Ok(setup) => setup,
        Err(message) => {
            eprintln!("experiments: {message}");
            return ExitCode::from(2);
        }
    };
    if args.is_empty() {
        print(&Reporter::new("experiments"), PREAMBLE);
    }
    for experiment in selected {
        let reporter = Reporter::new(experiment.id);
        if args.is_empty() {
            reporter.line("");
        }
        print(&reporter, &experiment.section(runs));
    }
    ExitCode::SUCCESS
}
