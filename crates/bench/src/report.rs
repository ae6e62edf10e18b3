//! The shared experiment reporter.
//!
//! Every binary in `src/bin/` routes its output through a [`Reporter`]
//! instead of bare `println!`: lines still reach stdout unchanged, but
//! each one is mirrored as a structured [`Event::Note`] into a
//! telemetry sink. Set `OASIS_BENCH_TRACE=/path/to/file.jsonl` to
//! capture the stream; the file is appended to so `all_experiments`
//! accumulates one trace.

use oasis_telemetry::{Event, JsonlSink, Level, Telemetry};
use std::path::Path;

/// Prints experiment output and mirrors it into a telemetry sink.
pub struct Reporter {
    experiment: String,
    telemetry: Telemetry,
}

impl Reporter {
    /// Creates a reporter for the named experiment.
    ///
    /// When `OASIS_BENCH_TRACE` is set, events are appended to that
    /// JSONL file; otherwise telemetry is disabled and only stdout is
    /// written.
    pub fn new(experiment: &str) -> Reporter {
        let telemetry = match std::env::var_os("OASIS_BENCH_TRACE") {
            Some(path) => {
                let tel = Telemetry::new(Level::Info);
                match JsonlSink::append(Path::new(&path)) {
                    Ok(sink) => tel.attach(Box::new(sink)),
                    Err(err) => {
                        eprintln!("warning: cannot open OASIS_BENCH_TRACE {path:?}: {err}")
                    }
                }
                tel
            }
            None => Telemetry::disabled(),
        };
        Reporter::with_telemetry(experiment, telemetry)
    }

    /// Creates a reporter feeding an explicit telemetry bus (tests).
    pub fn with_telemetry(experiment: &str, telemetry: Telemetry) -> Reporter {
        Reporter { experiment: experiment.to_string(), telemetry }
    }

    /// Prints the standard experiment banner.
    pub fn banner(&self, id: &str, title: &str) {
        self.line(&format!("== {id}: {title}"));
    }

    /// Prints one line to stdout and mirrors it as a note event.
    pub fn line(&self, text: &str) {
        println!("{text}");
        if self.telemetry.is_enabled() && !text.is_empty() {
            self.telemetry.emit(Event::Note { text: format!("[{}] {text}", self.experiment) });
        }
    }

    /// Prints a pre-rendered multi-line block (e.g. a terminal chart)
    /// verbatim and mirrors each non-empty line as a note event.
    pub fn block(&self, text: &str) {
        print!("{text}");
        if self.telemetry.is_enabled() {
            for line in text.lines().filter(|l| !l.is_empty()) {
                self.telemetry.emit(Event::Note { text: format!("[{}] {line}", self.experiment) });
            }
        }
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        self.telemetry.flush();
    }
}

/// Prints a formatted line through a [`Reporter`] (drop-in for
/// `println!`): `outln!(r)` for a blank line, `outln!(r, "fmt", args..)`
/// otherwise.
#[macro_export]
macro_rules! outln {
    ($r:expr) => {
        $r.line("")
    };
    ($r:expr, $($arg:tt)*) => {
        $r.line(&format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_telemetry::RingSink;

    #[test]
    fn lines_and_samples_reach_the_sink() {
        let tel = Telemetry::new(Level::Info);
        let ring = RingSink::new(16);
        tel.attach(Box::new(ring.clone()));
        let r = Reporter::with_telemetry("table1", tel);
        r.banner("table1", "energy per policy");
        outln!(r, "row {}", 1);
        outln!(r);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2); // blank line is not mirrored
        assert_eq!(
            snap[0].event,
            Event::Note { text: "[table1] == table1: energy per policy".into() }
        );
        assert_eq!(snap[1].event, Event::Note { text: "[table1] row 1".into() });
    }
}
