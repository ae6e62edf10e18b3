//! Pinned bytes of the day loop.
//!
//! Each case runs a day (or a week) and pins a 64-bit FNV-1a digest of
//! every observable byte it produces: the full debug-level JSONL
//! telemetry stream and the `Debug` rendering of the report. A change to
//! the interval walker, the planner, the energy books, fault recovery or
//! the telemetry vocabulary that moves a single simulated byte fails
//! here.
//!
//! Regenerating after an *intentional* behaviour change: run the ignored
//! `print_day_digests` test with `--nocapture` and paste the printed
//! values over the constants.

use std::io::Write;
use std::sync::{Arc, Mutex};

use oasis_cluster::experiments::run_week;
use oasis_cluster::{ClusterConfig, ClusterSim};
use oasis_core::PolicyKind;
use oasis_faults::{Fault, FaultClass, FaultSchedule};
use oasis_sim::{SimDuration, SimTime};
use oasis_telemetry::{JsonlSink, Level, Telemetry};

/// Seed-1 paper day: `(telemetry stream, report)`.
const PAPER_DAY: (u64, u64) = (0x16e886cb362dee31, 0xbb4eaf1bc8147ddc);
/// Seeds 1 and 2 of the smoke-scale faulted day: `(stream, report)`.
const FAULTED_DAYS: [(u64, u64); 2] =
    [(0x8f3600f93365caf9, 0x47905a9978dbbeb0), (0x7e925ea83195a01a, 0xf08157ea1bf21194)];
/// Report of the seed-1 smoke-scale week.
const WEEK: u64 = 0x7ad7ab4673a17c81;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A `Write` handle over a shared buffer, so the test can read back what
/// the boxed sink wrote.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A fault day touching every recovery path the simulator models.
fn fault_schedule() -> FaultSchedule {
    let mut faults = Vec::new();
    for h in 0..6 {
        faults.push(Fault {
            kind: FaultClass::WakeFailure,
            host: Some(h),
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(86_400),
            severity: 0.0,
        });
    }
    faults.push(Fault {
        kind: FaultClass::MemServerCrash,
        host: Some(0),
        start: SimTime::from_secs(21_600),
        duration: SimDuration::from_secs(10_800),
        severity: 0.0,
    });
    faults.push(Fault {
        kind: FaultClass::LinkDegraded,
        host: None,
        start: SimTime::from_secs(36_000),
        duration: SimDuration::from_secs(3_600),
        severity: 4.0,
    });
    FaultSchedule::new(faults)
}

/// Smoke-scale rack with lossy wake-ups.
fn smoke_config(seed: u64, faults: FaultSchedule) -> ClusterConfig {
    ClusterConfig::builder()
        .policy(PolicyKind::FullToPartial)
        .home_hosts(6)
        .consolidation_hosts(2)
        .vms_per_host(10)
        .seed(seed)
        .wol_loss_rate(0.3)
        .faults(faults)
        .build()
        .expect("valid configuration")
}

/// Runs one day with a debug-level JSONL sink attached; returns the
/// digests of the telemetry stream and of the report.
fn day_digests(cfg: ClusterConfig) -> (u64, u64) {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new(Level::Debug);
    telemetry.attach(Box::new(JsonlSink::new(buf.clone())));
    let mut sim = ClusterSim::new(cfg);
    sim.attach_telemetry(telemetry);
    let report = sim.run_day();
    let stream = buf.0.lock().unwrap().clone();
    assert!(!stream.is_empty());
    (fnv1a(&stream), fnv1a(format!("{report:?}").as_bytes()))
}

fn paper_day() -> (u64, u64) {
    day_digests(ClusterConfig::builder().seed(1).build().expect("valid configuration"))
}

fn faulted_day(seed: u64) -> (u64, u64) {
    day_digests(smoke_config(seed, fault_schedule()))
}

fn week() -> u64 {
    let report = run_week(&smoke_config(1, FaultSchedule::none()));
    assert_eq!(report.days.len(), 7);
    fnv1a(format!("{report:?}").as_bytes())
}

#[test]
fn paper_day_bytes_are_pinned() {
    assert_eq!(paper_day(), PAPER_DAY);
}

#[test]
fn faulted_day_bytes_are_pinned() {
    for (seed, expect) in [1u64, 2].into_iter().zip(FAULTED_DAYS) {
        assert_eq!(faulted_day(seed), expect, "seed {seed}");
    }
}

#[test]
fn week_bytes_are_pinned() {
    assert_eq!(week(), WEEK);
}

#[test]
#[ignore = "generator: prints the pinned digests"]
fn print_day_digests() {
    let hex = |(a, b): (u64, u64)| format!("({a:#018x}, {b:#018x})");
    println!("const PAPER_DAY: (u64, u64) = {};", hex(paper_day()));
    println!(
        "const FAULTED_DAYS: [(u64, u64); 2] = [{}, {}];",
        hex(faulted_day(1)),
        hex(faulted_day(2))
    );
    println!("const WEEK: u64 = {:#018x};", week());
}
