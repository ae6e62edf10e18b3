//! §2's motivation and §4's prototype: idle memory access, sleeping
//! opportunities, the migration mechanisms, the energy profiles and
//! desktop workloads, then one desktop VM in the functional two-host lab
//! (Figures 5 and 6, §4.4.3's traffic) and its ablations.

use super::{Row, Tolerance};
use crate::secs;
use oasis_host::sleep_sim::simulate_host_sleep;
use oasis_mem::ByteSize;
use oasis_migration::lab::{ConsolidatedIdleReport, LabOptions, MicroLab, PartialReport};
use oasis_migration::partial::PartialMigration;
use oasis_migration::postcopy;
use oasis_migration::precopy::{self, PrecopyConfig};
use oasis_migration::reintegration::ReintegrationOutcome;
use oasis_net::{LinkSpec, TrafficClass};
use oasis_power::{HostEnergyProfile, MemoryServerProfile, PowerState};
use oasis_sim::stats::{Cdf, Summary};
use oasis_sim::{SimDuration, SimRng, SimTime};
use oasis_vm::apps::{catalog, Application, DesktopWorkload};
use oasis_vm::workload::WorkloadClass;

pub(super) fn fig01(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Figure 1: idle memory access patterns (cumulative unique MiB)");
    let alloc = ByteSize::gib(4);
    outln!(out, "{:>6}  {:>10}  {:>10}  {:>10}", "min", "desktop", "web", "database");
    for mins in (0..=60).step_by(5) {
        let t = SimDuration::from_mins(mins);
        let row: Vec<f64> = WorkloadClass::ALL
            .iter()
            .map(|c| c.idle_model().unique_touched(t, alloc).as_mib_f64())
            .collect();
        outln!(out, "{mins:>6}  {:>10.1}  {:>10.1}  {:>10.1}", row[0], row[1], row[2]);
    }
    let hour = SimDuration::from_hours(1);
    for class in WorkloadClass::ALL {
        let touched = class.idle_model().unique_touched(hour, alloc);
        let (mib, share) =
            (touched.as_mib_f64(), touched.as_bytes() as f64 / alloc.as_bytes() as f64);
        outln!(out, "{class:<9} 1h total: {mib:>7.1} MiB ({:.2}% of allocation)", 100.0 * share);
    }
    outln!(out, "paper:    desktop 188.2 MiB, web 37.6 MiB, database 30.6 MiB");
    out
}

/// Simulates superposed request processes; returns arrival gaps (secs).
fn gaps(mix: &[(WorkloadClass, usize)], hours: f64, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::new(seed);
    let horizon = hours * 3_600.0;
    let mut arrivals: Vec<f64> = Vec::new();
    for &(class, count) in mix {
        let model = class.idle_model();
        for vm in 0..count {
            let mut vm_rng = rng.fork(vm as u64);
            let mut t = SimTime::ZERO;
            loop {
                t = model.next_request(t, &mut vm_rng);
                if t.as_secs_f64() > horizon {
                    break;
                }
                arrivals.push(t.as_secs_f64());
            }
        }
    }
    arrivals.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    arrivals.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Quiet time before the host decides the burst is over and suspends.
const IDLE_TIMER_SECS: f64 = 10.0;

fn gap_row(out: &mut String, label: &str, gaps: &[f64], transition_secs: f64) {
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let mut cdf = Cdf::new();
    for &g in gaps {
        cdf.record(g);
    }
    // The host cannot foresee gap lengths: it waits out an idle timer,
    // then suspends, and must resume before serving the next request.
    // Only the remainder of the gap is actual sleep.
    let usable: f64 = gaps.iter().map(|g| (g - IDLE_TIMER_SECS - transition_secs).max(0.0)).sum();
    let total: f64 = gaps.iter().sum();
    outln!(
        out,
        "{label:<28} mean gap {:>8.1}s  p50 {:>7.1}s  p90 {:>7.1}s  sleepable {:>5.1}%",
        mean,
        cdf.quantile(0.5).unwrap_or(0.0),
        cdf.quantile(0.9).unwrap_or(0.0),
        100.0 * usable / total,
    );
}

pub(super) fn fig02(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Figure 2: server sleeping opportunities, 1 VM vs 10 VMs");
    let transition = HostEnergyProfile::table1().transition_round_trip().as_secs_f64();
    outln!(out, "server transition round trip: {transition:.1}s");

    let one = gaps(&[(WorkloadClass::Database, 1)], 12.0, 42);
    let ten = gaps(&[(WorkloadClass::Database, 5), (WorkloadClass::WebServer, 5)], 12.0, 42);
    gap_row(&mut out, "1 database VM", &one, transition);
    gap_row(&mut out, "10 VMs (5 web + 5 db)", &ten, transition);

    // The event-driven version: the full ACPI state machine reacting to
    // the request processes (suspend/resume chains, idle timer), per §2.
    outln!(out);
    outln!(out, "event-driven host simulation (12 h, 10 s idle timer):");
    let horizon = SimDuration::from_hours(12);
    let timer = SimDuration::from_secs(10);
    let one = simulate_host_sleep(&[WorkloadClass::Database], horizon, timer, 42);
    let mix: Vec<WorkloadClass> =
        [WorkloadClass::Database; 5].into_iter().chain([WorkloadClass::WebServer; 5]).collect();
    let ten = simulate_host_sleep(&mix, horizon, timer, 42);
    for (label, r) in [("1 database VM", one), ("10 VMs (5 web + 5 db)", ten)] {
        outln!(
            out,
            "{label:<28} asleep {:>5.1}%  in-transit {:>5.1}%  mean draw {:>6.1} W",
            100.0 * r.sleep_fraction,
            100.0 * r.transition_fraction,
            r.mean_watts,
        );
    }
    outln!(out, "paper: 3.9 min vs 5.8 s mean inter-arrival; 10 co-located VMs");
    outln!(out, "       leave the host almost no chance to sleep.");
    out
}

pub(super) fn table1(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Table 1: energy profiles and S3 transition times");
    let host = HostEnergyProfile::table1();
    let ms = MemoryServerProfile::prototype();
    outln!(out, "{:<14} {:<12} {:>8} {:>10}", "Device", "State", "Time(s)", "Power(W)");
    let rows: Vec<(&str, &str, Option<f64>, f64)> = vec![
        ("Custom host", "Idle", None, host.watts(PowerState::Powered, 0)),
        ("", "20 VMs", None, host.watts(PowerState::Powered, 20)),
        ("", "Suspend", Some(host.suspend_time.as_secs_f64()), host.suspend_watts),
        ("", "Resume", Some(host.resume_time.as_secs_f64()), host.resume_watts),
        ("", "Sleep (S3)", None, host.sleep_watts),
        ("Memory server", "Idle", None, 27.8),
        ("SAS drive", "Idle", None, 14.4),
    ];
    for (device, state, time, power) in rows {
        let t = time.map_or("N/A".to_string(), |t| format!("{t:.1}"));
        outln!(out, "{device:<14} {state:<12} {t:>8} {power:>10.1}");
    }
    outln!(out);
    let (asleep, idle) = (host.sleep_watts + ms.active_watts, host.idle_watts);
    outln!(out, "combined sleeping home + memory server: {asleep:.1} W (vs {idle:.1} W idle host)");
    let upload_mib_s = ms.upload_bytes_per_sec / (1024.0 * 1024.0);
    outln!(out, "memory server upload path: {upload_mib_s:.0} MiB/s sequential SAS writes");
    out
}

pub(super) fn table2(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Table 2: desktop workloads");
    for workload in [DesktopWorkload::workload1(), DesktopWorkload::workload2()] {
        outln!(out, "{}:", workload.name);
        for (app, count) in &workload.apps {
            let (name, pages, bytes) =
                (app.name, app.startup_pages, app.startup_bytes().to_string());
            outln!(out, "  {count}x {name:<24} {pages:>8} startup pages  ({bytes:>9})");
        }
        let (bytes, pages) = (workload.total_bytes(), workload.total_pages());
        let dirty = workload.hourly_dirty_pages();
        outln!(out, "  total footprint: {bytes} ({pages} pages), background dirty {dirty} pages/h");
    }
    out
}

pub(super) fn migration_compare(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== §2: migration mechanisms compared (4 GiB VM)");
    let memory = ByteSize::gib(4);
    let ms = MemoryServerProfile::prototype();

    for (link_name, link) in [("GigE", LinkSpec::gige()), ("10GigE", LinkSpec::ten_gige())] {
        outln!(out, "--- {link_name} ---");
        outln!(out, "mechanism                    duration   downtime  bytes moved");
        for (label, dirty_mib_s) in [("idle VM", 0.5), ("active VM", 15.0), ("hot VM", 60.0)] {
            let rate = dirty_mib_s * 1024.0 * 1024.0;
            let mut row = |name: &str, took: SimDuration, down: SimDuration, moved: ByteSize| {
                let (took, down, gib) =
                    (took.as_secs_f64(), down.as_secs_f64(), moved.as_gib_f64());
                outln!(out, "{name:<10} ({label:<9})    {took:>9.1}s {down:>9.2}s {gib:>9.1} GiB");
            };
            let pre = precopy::migrate(memory, rate, link, &PrecopyConfig::default());
            row("pre-copy", pre.duration, pre.downtime, pre.bytes_sent);
            let post = postcopy::migrate(memory, rate / 4_096.0, link);
            row("post-copy", post.duration, post.downtime, post.bytes_sent);
        }
        // Partial migration applies to idle VMs only (§3.1).
        let partial = PartialMigration::with_upload(ByteSize::from_mib_f64(1_305.6)).run(&ms, link);
        let (took, gib) = (partial.total.as_secs_f64(), partial.network_bytes.as_gib_f64());
        outln!(
            out,
            "partial    (idle VM  )    {took:>9.1}s {took:>9.2}s {gib:>9.3} GiB (+1.3 GiB SAS)"
        );
    }
    outln!(out);
    outln!(out, "the hybrid: pre-copy keeps active VMs fast; partial moves idle");
    outln!(out, "VMs in seconds with two orders of magnitude less network data.");
    out
}

/// A lab with a VM primed by Workload 1 and idle for five minutes.
fn primed_lab(seed: u64, options: LabOptions) -> MicroLab {
    let mut lab = MicroLab::with_options(seed, options);
    lab.prime_os();
    lab.run_workload(&DesktopWorkload::workload1());
    lab.idle_wait(SimDuration::from_mins(5));
    lab
}

/// What one §4.4 consolidation cycle measured: from a [`primed_lab`],
/// a partial migration, 20 minutes consolidated, reintegration, then
/// Workload 2, five idle minutes and a second partial migration.
pub(super) struct Cycle {
    /// The full pre-copy migration the partial one replaces.
    full: SimDuration,
    first: PartialReport,
    pub(super) idle: ConsolidatedIdleReport,
    reint: ReintegrationOutcome,
    /// Descriptor and SAS-upload traffic by the end of reintegration (MiB).
    descriptor_mib: f64,
    sas_mib: f64,
    second: PartialReport,
}

pub(super) fn cycle(seed: u64, options: LabOptions) -> Cycle {
    let mut lab = primed_lab(seed, options);
    let full = lab.full_migrate_baseline().duration;
    let first = lab.partial_migrate();
    let idle = lab.consolidated_idle(SimDuration::from_mins(20));
    let reint = lab.reintegrate();
    let descriptor_mib = lab.traffic.total(TrafficClass::PartialDescriptor).as_mib_f64();
    let sas_mib = lab.traffic.total(TrafficClass::MemServerUpload).as_mib_f64();
    lab.run_workload(&DesktopWorkload::workload2());
    lab.idle_wait(SimDuration::from_mins(5));
    let second = lab.partial_migrate();
    Cycle { full, first, idle, reint, descriptor_mib, sas_mib, second }
}

/// The paper's three runs: the [`cycle`]s of seeds 1–3.
fn three_cycles() -> Vec<Cycle> {
    (1..=3).map(|seed| cycle(seed, LabOptions::default())).collect()
}

fn mean(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
    let mut summary = Summary::new();
    for c in cycles {
        summary.record(f(c));
    }
    summary.mean()
}

/// Figure 5's paper-vs-measured rows (seconds), averaged over three runs.
pub fn fig05_claims() -> [Row; 6] {
    let cycles = three_cycles();
    let row = |label, paper, tolerance, f: fn(&Cycle) -> SimDuration| Row {
        label,
        measured: mean(&cycles, |c| f(c).as_secs_f64()),
        paper,
        tolerance,
    };
    let within_10 = Tolerance::Relative(0.10);
    [
        row("full (pre-copy live) migration", 41.0, within_10, |c| c.full),
        row("partial migration #1 (total)", 15.7, within_10, |c| c.first.outcome.total),
        row("  memory upload #1", 10.2, within_10, |c| c.first.outcome.upload_time),
        row("partial migration #2 (total)", 7.2, within_10, |c| c.second.outcome.total),
        row("  memory upload #2 (differential)", 2.2, Tolerance::Deviation, |c| {
            c.second.outcome.upload_time
        }),
        row("reintegration", 3.7, within_10, |c| c.reint.total),
    ]
}

pub(super) fn fig05(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Figure 5: consolidation latencies for one VM (avg of 3 runs)");
    outln!(out, "{:<34} {:>9} {:>9}", "operation", "measured", "paper");
    for row in fig05_claims() {
        outln!(out, "{:<34} {:>9} {:>9}", row.label, secs(row.measured), secs(row.paper));
    }
    out
}

/// §4.4.3's three network volumes (MiB) against the paper's error bars,
/// and the off-network SAS upload, averaged over three runs.
fn net_micro_measure() -> ([Row; 3], f64) {
    let cycles = three_cycles();
    let row = |label, paper, bar, f: fn(&Cycle) -> f64| Row {
        label,
        measured: mean(&cycles, f),
        paper,
        tolerance: Tolerance::PlusMinus(bar),
    };
    let rows = [
        row("VM descriptor", 16.0, 0.5, |c| c.descriptor_mib),
        row("on-demand page fetches", 56.9, 7.9, |c| c.idle.fetched.as_mib_f64()),
        row("reintegrated dirty state", 175.3, 49.3, |c| c.reint.network_bytes.as_mib_f64()),
    ];
    (rows, mean(&cycles, |c| c.sas_mib))
}

/// §4.4.3's paper-vs-measured rows (MiB).
pub fn net_micro_claims() -> [Row; 3] {
    net_micro_measure().0
}

pub(super) fn net_micro(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== §4.4.3: network traffic of one consolidation cycle (3 runs)");
    let (rows, sas) = net_micro_measure();
    outln!(out, "{:<30} {:>14} {:>16}", "transfer", "measured", "paper");
    for row in rows {
        let Tolerance::PlusMinus(bar) = row.tolerance else { unreachable!("error-bar rows") };
        let paper = format!("{:.1} ± {bar:.1}", row.paper);
        outln!(out, "{:<30} {:>10.1} MiB {paper:>16}", row.label, row.measured);
    }
    outln!(out, "{:<30} {:>10.1} MiB {:>16}", "SAS upload (off-network)", sas, "n/a");
    out
}

const FIG06_APPS: [(&str, Application); 6] = [
    ("Terminal", catalog::TERMINAL),
    ("Pidgin IM", catalog::PIDGIN),
    ("Evince PDF", catalog::EVINCE_PDF),
    ("Thunderbird", catalog::THUNDERBIRD),
    ("Firefox site", catalog::FIREFOX_SITE),
    ("LibreOffice doc", catalog::LIBREOFFICE_DOC),
];

/// Start-up seconds of each [`FIG06_APPS`] entry in a warm full VM and
/// then in a freshly consolidated partial VM, and Figure 6's claims.
fn fig06_measure() -> (Vec<f64>, Vec<f64>, [Row; 2]) {
    let mut lab = primed_lab(7, LabOptions::default());
    let startups = |lab: &mut MicroLab| -> Vec<f64> {
        FIG06_APPS.iter().map(|(_, app)| lab.app_startup_latency(app).as_secs_f64()).collect()
    };
    let full = startups(&mut lab);
    lab.partial_migrate();
    let partial = startups(&mut lab);
    let worst = full.iter().zip(&partial).map(|(f, p)| p / f).fold(0.0, f64::max);
    let row = |label, measured, paper| Row {
        label,
        measured,
        paper,
        tolerance: Tolerance::Relative(0.10),
    };
    let rows = [
        row("LibreOffice doc partial-VM start-up (s)", partial[5], 168.0),
        row("largest partial/full ratio", worst, 111.0),
    ];
    (full, partial, rows)
}

/// Figure 6's paper-vs-measured rows.
pub fn fig06_claims() -> [Row; 2] {
    fig06_measure().2
}

pub(super) fn fig06(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Figure 6: application start-up latency");
    let (full, partial, [libreoffice, ratio]) = fig06_measure();
    outln!(out, "{:<18} {:>9} {:>11} {:>8}", "application", "full VM", "partial VM", "ratio");
    for ((name, _), (full, partial)) in FIG06_APPS.iter().zip(full.iter().zip(&partial)) {
        outln!(out, "{name:<18} {full:>8.1}s {partial:>10.1}s {:>7.0}x", partial / full);
    }
    let (ratio, libreoffice) = (ratio.paper, libreoffice.paper);
    outln!(
        out,
        "paper: partial-VM starts up to {ratio:.0}x slower; LibreOffice {libreoffice:.0} s."
    );
    outln!(out, "       Pre-fetching the remaining VM state takes ~41 s, which is");
    outln!(out, "       why activated partial VMs are converted to full VMs.");
    out
}

pub(super) fn ablation_upload(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Ablation: memory-upload optimizations (§4.3)");
    let variants: [(&str, LabOptions); 4] = [
        ("compression + differential", LabOptions::default()),
        ("compression only", LabOptions { differential_upload: false, ..LabOptions::default() }),
        ("differential only", LabOptions { compression: false, ..LabOptions::default() }),
        (
            "neither",
            LabOptions { compression: false, differential_upload: false, ..LabOptions::default() },
        ),
    ];
    outln!(out, "{:<28} {:>12} {:>12}", "variant", "1st partial", "2nd partial");
    for (label, options) in variants {
        let c = cycle(1, options);
        let [first, second] = [c.first, c.second].map(|p| secs(p.outcome.total.as_secs_f64()));
        outln!(out, "{label:<28} {first:>12} {second:>12}");
    }
    outln!(out, "paper ships with both on: 15.7 s then 7.2 s.");
    out
}

pub(super) fn ablation_overwrite(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Ablation: overwrite obviation at reintegration (§4.4.3)");
    outln!(out, "{:<16} {:>12} {:>10}", "variant", "dirty sent", "latency");
    for (label, on) in [("obviation on", true), ("obviation off", false)] {
        let r = cycle(1, LabOptions { overwrite_obviation: on, ..LabOptions::default() }).reint;
        let (mib, latency) = (r.network_bytes.as_mib_f64(), secs(r.total.as_secs_f64()));
        outln!(out, "{label:<16} {mib:>8.1} MiB {latency:>10}");
    }
    outln!(out, "paper: new allocations and recycled buffers are never sent.");
    out
}
