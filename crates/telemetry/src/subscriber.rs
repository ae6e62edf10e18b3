//! Event sinks.
//!
//! A [`Subscriber`] receives every [`EventRecord`] that passes the bus's
//! level filter. Two implementations ship with the crate: a JSONL file
//! writer for offline analysis, and an in-memory buffer ([`BufferSink`])
//! that tests read and that parallel workers use to hand their event
//! streams back to the collecting thread in deterministic order.

use crate::event::EventRecord;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Receives events that passed the level filter.
pub trait Subscriber: Send {
    /// Handles one event record.
    fn record(&mut self, rec: &EventRecord);

    /// Flushes any buffered output; called when the bus is flushed or the
    /// owning `Telemetry` handle is dropped. Reports any write error the
    /// sink has met so far.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Writes one JSON object per line to an arbitrary writer.
pub struct JsonlSink<W: Write + Send> {
    writer: W,
    /// The first write error. Later records are dropped, and every flush
    /// reports it.
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates a sink writing to a fresh file at `path` (truncating any
    /// existing file).
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }

    /// Creates a sink appending to `path`, so several processes or runs
    /// can share one trace file.
    pub fn append(path: &Path) -> io::Result<Self> {
        let file = File::options().create(true).append(true).open(path)?;
        Ok(JsonlSink::new(BufWriter::new(file)))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps an existing writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, error: None }
    }
}

impl<W: Write + Send> Subscriber for JsonlSink<W> {
    fn record(&mut self, rec: &EventRecord) {
        if self.error.is_some() {
            return;
        }
        let line = rec.to_json();
        if let Err(e) = writeln!(self.writer, "{line}") {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
        match &self.error {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }
}

/// An unbounded buffer for per-worker event capture and cross-thread
/// handoff.
///
/// Parallel experiment runs cannot share one file sink: workers would
/// interleave their streams in scheduling order, destroying the
/// byte-identical-per-seed guarantee. Instead each worker attaches a
/// `BufferSink` to its run-local bus, returns it with the run's result,
/// and the collecting thread — which sees results in input order —
/// [`replays`](BufferSink::replay_into) the buffers into the shared sink
/// one after another, reproducing the sequential stream exactly.
///
/// The registered sink half and any reader handles share the same
/// storage, so a test can attach a buffer, run a simulation and drain
/// what was emitted. The handle is `Send + Sync` so it can cross the
/// worker-pool boundary.
#[derive(Clone, Default)]
pub struct BufferSink {
    buf: Arc<Mutex<Vec<EventRecord>>>,
}

impl BufferSink {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BufferSink::default()
    }

    /// Takes every buffered record, oldest first, leaving the buffer
    /// empty.
    pub fn drain(&self) -> Vec<EventRecord> {
        std::mem::take(&mut *self.buf.lock().unwrap())
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap().len()
    }

    /// True when nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the buffer into `sink` in capture order.
    pub fn replay_into(&self, sink: &mut dyn Subscriber) {
        for rec in self.drain() {
            sink.record(&rec);
        }
    }
}

impl Subscriber for BufferSink {
    fn record(&mut self, rec: &EventRecord) {
        self.buf.lock().unwrap().push(rec.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use oasis_sim::SimTime;

    fn rec(seq: u64) -> EventRecord {
        EventRecord {
            time: SimTime::from_secs(seq),
            seq,
            event: Event::HostSuspended { host: seq as u32 },
        }
    }

    #[test]
    fn buffer_replay_reconstructs_the_sequential_stream() {
        // Two "workers" capture into private buffers; replaying them in
        // input order through one JSONL sink yields the same bytes as a
        // single sequential writer would have produced.
        let workers: Vec<BufferSink> = (0..2).map(|_| BufferSink::new()).collect();
        for (w, buf) in workers.iter().enumerate() {
            let mut sink = buf.clone();
            for i in 0..3 {
                sink.record(&rec((w * 3 + i) as u64));
            }
        }
        let mut merged = JsonlSink::new(Vec::new());
        for buf in &workers {
            buf.replay_into(&mut merged);
        }
        let mut sequential = JsonlSink::new(Vec::new());
        for seq in 0..6 {
            sequential.record(&rec(seq));
        }
        assert_eq!(merged.writer, sequential.writer);
        assert!(workers.iter().all(|b| b.is_empty()), "replay drains the buffers");
    }

    #[test]
    fn telemetry_and_buffers_cross_threads() {
        // The handoff story depends on these bounds holding; assert them
        // at compile time so a regression is a build failure, not a race.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Telemetry>();
        assert_send_sync::<BufferSink>();
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&rec(0));
        sink.record(&rec(1));
        sink.flush().unwrap();
        let text = String::from_utf8(sink.writer).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            crate::json::parse(line).expect("each line is valid JSON");
        }
    }

    #[test]
    fn jsonl_flush_reports_the_first_write_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Full);
        sink.record(&rec(0));
        sink.record(&rec(1));
        for _ in 0..2 {
            let err = sink.flush().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull);
            assert_eq!(err.to_string(), "disk full");
        }
    }
}
