//! Sink behavior under parallelism: `BufferSink` replay ordering when
//! per-worker buses run on a real `WorkerPool` with more than one job
//! (the `OASIS_JOBS` fan-out path).

use oasis_sim::pool::WorkerPool;
use oasis_sim::SimTime;
use oasis_telemetry::{BufferSink, Event, Level, Subscriber, Telemetry};

fn bus_with(sink: Box<dyn Subscriber>) -> Telemetry {
    let tel = Telemetry::new(Level::Debug);
    tel.attach(sink);
    tel
}

/// One worker's run: its own bus, its own buffer, a deterministic
/// stream derived from the seed.
fn worker_run(seed: u64) -> BufferSink {
    let buf = BufferSink::new();
    let tel = bus_with(Box::new(buf.clone()));
    for i in 0..50u64 {
        let t = SimTime::from_secs(seed * 1_000 + i);
        tel.emit_at(t, Event::IntervalStarted { interval: i as u32, active: seed as u32 });
        if i % 7 == 0 {
            tel.emit_at(t, Event::WolRetry { host: seed as u32, attempt: (i % 3) as u32 + 1 });
        }
    }
    tel.flush().unwrap();
    buf
}

#[test]
fn buffer_replay_is_input_ordered_across_pool_sizes() {
    let seeds: Vec<u64> = (0..16).collect();
    let streams_for = |jobs: usize| -> Vec<String> {
        let buffers = WorkerPool::new(jobs).map(seeds.clone(), worker_run);
        // Replay in input order through one collecting buffer, exactly
        // like the experiment sweep's collector thread does.
        let merged = BufferSink::new();
        {
            let mut sink: Box<dyn Subscriber> = Box::new(merged.clone());
            for buf in &buffers {
                buf.replay_into(sink.as_mut());
            }
        }
        assert!(buffers.iter().all(BufferSink::is_empty), "replay drains the workers");
        merged.drain().iter().map(|r| r.to_json()).collect()
    };
    let sequential = streams_for(1);
    assert_eq!(sequential.len(), 16 * (50 + 8));
    for jobs in [2, 4, 11] {
        assert_eq!(streams_for(jobs), sequential, "jobs={jobs} replays byte-identically");
    }
    // The merged stream is grouped by input index: every record of seed
    // k precedes every record of seed k+1 regardless of which worker
    // finished first.
    let mut last_seed = 0u64;
    for line in &sequential {
        let active = line.split("\"active\":").nth(1).map(|s| s.trim_end_matches('}'));
        if let Some(active) = active {
            let seed: u64 = active.parse().unwrap();
            assert!(seed >= last_seed, "seed blocks stay contiguous");
            last_seed = seed;
        }
    }
}
