//! The shared experiment reporter.
//!
//! The `experiments` binary routes its output through a [`Reporter`]
//! per experiment instead of bare `println!`: lines still reach stdout
//! unchanged, but each one is mirrored as a structured [`Event::Note`],
//! tagged with the experiment id, into a telemetry sink. Set
//! `OASIS_BENCH_TRACE=/path/to/file.jsonl` to capture the stream; the
//! file is appended to, so one run accumulates every experiment's
//! lines in one trace.

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

    /// Prints one line to stdout and mirrors it as a note event.
    pub fn line(&self, text: &str) {
        println!("{text}");
        if self.telemetry.is_enabled() && !text.is_empty() {
            self.telemetry.emit(Event::Note { text: format!("[{}] {text}", self.experiment) });
        }
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        if let Err(err) = self.telemetry.flush() {
            eprintln!("warning: cannot write OASIS_BENCH_TRACE: {err}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_telemetry::BufferSink;

    #[test]
    fn lines_and_samples_reach_the_sink() {
        let tel = Telemetry::new(Level::Info);
        let buf = BufferSink::new();
        tel.attach(Box::new(buf.clone()));
        let r = Reporter::with_telemetry("table1", tel);
        r.line("== table1: energy per policy");
        r.line("row 1");
        r.line("");
        let snap = buf.drain();
        assert_eq!(snap.len(), 2); // blank line is not mirrored
        assert_eq!(
            snap[0].event,
            Event::Note { text: "[table1] == table1: energy per policy".into() }
        );
        assert_eq!(snap[1].event, Event::Note { text: "[table1] row 1".into() });
    }
}
