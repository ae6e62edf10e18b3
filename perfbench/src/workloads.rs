//! The four workloads: what one unit is, how a run's unit list is drawn
//! from the workload seed, and how one unit runs and is checked.
//!
//! Every unit seed comes from a fixed pool whose digests are pinned in
//! `data/pins.txt`. A run simulates the whole pool a fixed number of
//! times, in an order shuffled by a `SimRng` seeded with the workload
//! seed: every run does identical simulated work, the same seed always
//! runs it in the same order, and the number of units depends only on
//! `--seconds`, never on how fast they ran.

use oasis_bench::timing::wall;
use oasis_cluster::experiments::{run_datacenter_on, run_one_at, Scale, CONS_SWEEP};
use oasis_cluster::shard::PlannerScope;
use oasis_cluster::{ClusterConfig, ClusterSim, DatacenterReport, SimReport};
use oasis_core::PolicyKind;
use oasis_migration::lab::{ConsolidatedIdleReport, MicroLab, PartialReport};
use oasis_migration::reintegration::ReintegrationOutcome;
use oasis_migration::PrecopyOutcome;
use oasis_sim::pool::WorkerPool;
use oasis_sim::{SimDuration, SimRng};
use oasis_trace::DayKind;
use oasis_vm::apps::DesktopWorkload;

use crate::alloc;
use crate::check::{self, Delays, Digest, Pins};
use crate::spans::{maybe, Recorder};

/// Trace-corpus seed shared by every `paper_day` unit, so units run on
/// a warm corpus (ROADMAP item 5's "warm paper day") and only setup
/// pays for generating it.
pub const PAPER_TRACE_SEED: u64 = 1;

/// The datacenter day measured here: 500 sparse racks, timezone-staggered.
pub const DC_SCALE: Scale = Scale { racks: 500, ..Scale::DATACENTER };

/// Policy seeds per `fig8_sweep` sweep: `figure8`'s five runs.
pub const SWEEP_RUNS: usize = 5;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One §5.1 FulltoPartial weekday, 30 × 30 VMs + 4 consolidation hosts.
    PaperDay,
    /// Figure 8 cells (policy × consolidation hosts × seed) on two workers.
    Fig8Sweep,
    /// One 500-rack sharded datacenter day with the global planner.
    DcDay,
    /// The `oasis micro` §4 flow on a fresh lab.
    MicroLab,
}

impl Kind {
    /// All workloads, in report order.
    pub const ALL: [Kind; 4] = [Kind::PaperDay, Kind::Fig8Sweep, Kind::DcDay, Kind::MicroLab];

    /// The workload's name on the command line and in the pins.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperDay => "paper_day",
            Kind::Fig8Sweep => "fig8_sweep",
            Kind::DcDay => "dc_day",
            Kind::MicroLab => "micro_lab",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Worker threads the workload fans its units over.
    pub fn workers(self) -> usize {
        match self {
            Kind::Fig8Sweep => 2,
            _ => 1,
        }
    }

    /// Size of the seed pool. Every run simulates the whole pool, so
    /// every run does identical simulated work; the workload seed only
    /// orders it.
    pub fn pool_size(self) -> u64 {
        match self {
            Kind::PaperDay => 64,
            Kind::Fig8Sweep => 50,
            Kind::DcDay => 20,
            Kind::MicroLab => 50,
        }
    }

    /// Host seconds one pass over the pool took on a 2-vCPU Xeon. A run
    /// makes `--seconds` ÷ this many passes (at least one): a constant,
    /// so the amount of work never depends on measured speed.
    fn pass_seconds(self) -> f64 {
        match self {
            Kind::PaperDay => 1.25,
            Kind::Fig8Sweep | Kind::DcDay | Kind::MicroLab => 9.0,
        }
    }

    /// Units run back to back as one batch on the workload's workers:
    /// a whole sweep for `fig8_sweep`, one unit otherwise.
    pub fn batch_len(self) -> usize {
        match self {
            Kind::Fig8Sweep => PolicyKind::FIGURE8.len() * CONS_SWEEP.len() * SWEEP_RUNS,
            _ => 1,
        }
    }

    /// Every unit the pins cover, in pin-file order.
    pub fn pool_units(self) -> Vec<Unit> {
        let seeds = 1..=self.pool_size();
        match self {
            Kind::PaperDay => seeds.map(Unit::Day).collect(),
            Kind::Fig8Sweep => seeds.flat_map(|s| cells(&[s])).collect(),
            Kind::DcDay => seeds.map(Unit::Dc).collect(),
            Kind::MicroLab => seeds.map(Unit::Lab).collect(),
        }
    }

    /// The run's unit list for `seed` and `seconds`: whole passes over
    /// the pool, each in an order shuffled by `seed`.
    pub fn units(self, seed: u64, seconds: u64) -> Vec<Unit> {
        let passes = ((seconds as f64 / self.pass_seconds()).round() as usize).max(1);
        let mut rng = SimRng::new(seed ^ 0xBE7C_4000);
        let mut out = Vec::new();
        for _ in 0..passes {
            let mut seeds: Vec<u64> = (1..=self.pool_size()).collect();
            rng.shuffle(&mut seeds);
            match self {
                Kind::Fig8Sweep => {
                    seeds.chunks(SWEEP_RUNS).for_each(|sweep| out.extend(cells(sweep)))
                }
                Kind::PaperDay => out.extend(seeds.into_iter().map(Unit::Day)),
                Kind::DcDay => out.extend(seeds.into_iter().map(Unit::Dc)),
                Kind::MicroLab => out.extend(seeds.into_iter().map(Unit::Lab)),
            }
        }
        out
    }
}

/// `figure8_at`'s order: policy, then consolidation hosts, then seed.
pub fn cells(seeds: &[u64]) -> Vec<Unit> {
    let mut out = Vec::new();
    for policy in PolicyKind::FIGURE8 {
        for cons in CONS_SWEEP {
            for &s in seeds {
                out.push(Unit::Cell(policy, cons, s));
            }
        }
    }
    out
}

/// One unit of work.
#[derive(Clone, Copy, Debug)]
pub enum Unit {
    /// A `paper_day` day, by seed.
    Day(u64),
    /// A `fig8_sweep` cell.
    Cell(PolicyKind, u32, u64),
    /// A `dc_day` datacenter day, by seed.
    Dc(u64),
    /// A `micro_lab` flow, by seed.
    Lab(u64),
}

impl Unit {
    /// The unit's key in the pins.
    pub fn key(&self) -> String {
        match self {
            Unit::Day(s) | Unit::Dc(s) | Unit::Lab(s) => s.to_string(),
            Unit::Cell(p, c, s) => format!("{p}/{c}/{s}"),
        }
    }

    /// The workload the unit belongs to.
    pub fn kind(&self) -> Kind {
        match self {
            Unit::Day(_) => Kind::PaperDay,
            Unit::Cell(..) => Kind::Fig8Sweep,
            Unit::Dc(_) => Kind::DcDay,
            Unit::Lab(_) => Kind::MicroLab,
        }
    }
}

/// What one unit simulated, reduced to what the benchmark reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Simulated energy savings (fraction); `None` for the lab.
    pub savings: Option<f64>,
    /// Simulated bytes that crossed a network.
    pub network_bytes: u64,
    /// Resume delays (cluster) or the reintegration time (lab), seconds.
    pub delays: Delays,
    /// Failed checks.
    pub problems: Vec<String>,
}

/// Where a unit's spans go, if anywhere.
#[derive(Clone, Copy)]
pub struct Trace<'a> {
    /// The recorder; `None` in untraced runs.
    pub rec: Option<&'a Recorder>,
    /// Parent span of the unit's calls.
    pub parent: u32,
    /// Unit id stamped on the spans.
    pub unit: u32,
}

impl<'a> Trace<'a> {
    /// No tracing.
    pub const OFF: Trace<'static> = Trace { rec: None, parent: 0, unit: 0 };

    /// Times `f` as a call into a layer.
    pub fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        maybe(self.rec, name, self.parent, self.unit, |_| f())
    }
}

/// The `paper_day` configuration for `seed`.
pub fn paper_config(seed: u64) -> ClusterConfig {
    ClusterConfig::builder()
        .policy(PolicyKind::FullToPartial)
        .day(DayKind::Weekday)
        .home_hosts(Scale::PAPER.home_hosts)
        .vms_per_host(Scale::PAPER.vms_per_host)
        .consolidation_hosts(4)
        .trace_seed(PAPER_TRACE_SEED)
        .seed(seed)
        .build()
        .expect("valid §5.1 configuration")
}

/// A day's simulation with `ClusterSim::new` and `run_day` timed as two
/// calls; also returns the allocations and bytes `run_day` made.
pub fn simulate_day(cfg: ClusterConfig, t: Trace) -> (SimReport, (u64, u64)) {
    let sim = t.timed("cluster.new", || ClusterSim::new(cfg));
    let before = alloc::thread_allocs();
    let report = t.timed("cluster.run_day", || sim.run_day());
    let after = alloc::thread_allocs();
    (report, (after.0 - before.0, after.1 - before.1))
}

/// Reduces a cluster day to its outcome and checks it.
pub fn day_outcome(mut report: SimReport) -> Outcome {
    let delays = check::delays_of(&mut report);
    Outcome {
        digest: check::report_digest(&report, &delays),
        savings: Some(report.energy_savings),
        network_bytes: report.network_bytes().as_bytes(),
        problems: check::report_problems(&report),
        delays,
    }
}

/// What a unit's calls returned, before any check.
pub enum Raw {
    /// A `paper_day` day or a `fig8_sweep` cell.
    Day(Box<SimReport>),
    /// A `dc_day` datacenter day.
    Dc(DatacenterReport),
    /// A `micro_lab` flow.
    Lab(Box<LabRun>),
}

/// Runs one unit's calls into the simulator.
pub fn execute(unit: Unit, racks: &WorkerPool, t: Trace) -> Raw {
    match unit {
        Unit::Day(seed) => Raw::Day(Box::new(simulate_day(paper_config(seed), t).0)),
        Unit::Cell(policy, cons, seed) => Raw::Day(Box::new(t.timed("cluster.run_one_at", || {
            run_one_at(Scale::PAPER, policy, DayKind::Weekday, cons, seed)
        }))),
        Unit::Dc(seed) => Raw::Dc(t.timed("shard.run_datacenter_on", || {
            run_datacenter_on(racks, DC_SCALE, PlannerScope::Global, seed)
        })),
        Unit::Lab(seed) => Raw::Lab(Box::new(lab_flow(seed, t))),
    }
}

/// Checks a unit's outputs, against its pinned digest when `pins` is
/// given.
pub fn check_unit(unit: Unit, raw: Raw, pins: Option<&Pins>) -> Outcome {
    let mut out = match raw {
        Raw::Day(report) => day_outcome(*report),
        Raw::Dc(dc) => dc_outcome(dc),
        Raw::Lab(run) => lab_outcome(&run),
    };
    if let Some(pins) = pins {
        out.problems.extend(pins.mismatch(unit.kind().name(), &unit.key(), out.digest));
    }
    out
}

/// Reduces a datacenter day: every rack is checked, and the digest folds
/// the rack digests in rack order with the epoch planner's grants.
pub fn dc_outcome(dc: DatacenterReport) -> Outcome {
    let mut out = Outcome { savings: Some(dc.energy_savings), ..Outcome::default() };
    let mut d = Digest::new()
        .float(dc.total_kwh)
        .float(dc.baseline_kwh)
        .word(dc.rebalance_grants)
        .word(dc.rebalance_bytes);
    out.network_bytes = dc.network_bytes();
    for (r, report) in dc.rack_reports.into_iter().enumerate() {
        let rack = day_outcome(report);
        d = d.word(rack.digest);
        out.problems.extend(rack.problems.into_iter().map(|p| format!("rack {r}: {p}")));
        check::pool(&mut out.delays, &rack.delays);
    }
    out.digest = d.value();
    out
}

/// Everything one micro-lab flow reported.
pub struct LabRun {
    lab: MicroLab,
    full: PrecopyOutcome,
    first: PartialReport,
    idle: ConsolidatedIdleReport,
    reint: ReintegrationOutcome,
    second: PartialReport,
}

impl LabRun {
    /// The consolidated idle period's remote faults, fetched bytes and
    /// dirty pages.
    pub fn idle_counts(&self) -> [u64; 3] {
        [self.idle.faults, self.idle.fetched.as_bytes(), self.idle.dirty_pages]
    }
}

/// The full `oasis micro` flow for one seed on a fresh lab, each lab
/// method timed as its own call.
pub fn lab_flow(seed: u64, t: Trace) -> LabRun {
    let mut lab = t.timed("migration.lab_new", || MicroLab::new(seed));
    t.timed("migration.prime_os", || lab.prime_os());
    t.timed("migration.run_workload", || lab.run_workload(&DesktopWorkload::workload1()));
    t.timed("migration.idle_wait", || lab.idle_wait(SimDuration::from_mins(5)));
    let full = t.timed("migration.full_migrate", || lab.full_migrate_baseline());
    let first = t.timed("migration.partial_migrate", || lab.partial_migrate());
    let idle = t
        .timed("migration.consolidated_idle", || lab.consolidated_idle(SimDuration::from_mins(20)));
    let reint = t.timed("migration.reintegrate", || lab.reintegrate());
    t.timed("migration.run_workload", || lab.run_workload(&DesktopWorkload::workload2()));
    t.timed("migration.idle_wait", || lab.idle_wait(SimDuration::from_mins(5)));
    let second = t.timed("migration.partial_migrate_diff", || lab.partial_migrate());
    LabRun { lab, full, first, idle, reint, second }
}

/// Reduces a lab flow: the second upload must be differential and the
/// first must not, and the digest folds every report.
pub fn lab_outcome(run: &LabRun) -> Outcome {
    let LabRun { lab, full, first, idle, reint, second } = run;
    let mut problems = Vec::new();
    if first.differential || !second.differential {
        problems.push(format!(
            "upload kinds: first differential={}, second differential={}",
            first.differential, second.differential
        ));
    }
    let network = lab.traffic.network_total();
    let mut d = Digest::new()
        .word(full.bytes_sent.as_bytes())
        .float(full.duration.as_secs_f64())
        .float(full.downtime.as_secs_f64())
        .word(u64::from(full.rounds))
        .word(idle.faults)
        .word(idle.fetched.as_bytes())
        .word(idle.dirty_pages)
        .word(reint.network_bytes.as_bytes())
        .word(reint.obviated_pages)
        .float(reint.total.as_secs_f64())
        .word(network.as_bytes())
        .float(lab.now().as_secs_f64());
    for p in [first, second] {
        d = d
            .word(p.uploaded_pages)
            .float(p.outcome.total.as_secs_f64())
            .float(p.outcome.upload_time.as_secs_f64());
    }
    let mut delays = Delays::new();
    delays.insert(reint.total.as_secs_f64().to_bits(), 1);
    Outcome {
        digest: d.value(),
        savings: None,
        network_bytes: network.as_bytes(),
        delays,
        problems,
    }
}

/// Runs `batch` on `pool`. Each unit's calls are timed on its worker,
/// then its outputs are checked outside that timing. Returns the
/// outcomes with their unit wall seconds, and the batch's wall seconds.
pub fn run_batch(
    pool: &WorkerPool,
    batch: &[Unit],
    racks: &WorkerPool,
    pins: &Pins,
    rec: Option<&Recorder>,
    parent: u32,
    first_unit: u32,
) -> (Vec<(Outcome, f64)>, f64) {
    let items: Vec<(u32, Unit)> = (first_unit..).zip(batch.iter().copied()).collect();
    wall(|| {
        pool.map(items, |(uid, unit)| {
            let (raw, secs) = wall(|| {
                maybe(rec, "bench.unit", parent, uid, |root| {
                    execute(unit, racks, Trace { rec, parent: root, unit: uid })
                })
            });
            let out = maybe(rec, "bench.check", parent, uid, |_| check_unit(unit, raw, Some(pins)));
            (out, secs)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_keys(units: &[Unit]) -> Vec<String> {
        let mut keys: Vec<String> = units.iter().map(Unit::key).collect();
        keys.sort();
        keys
    }

    #[test]
    fn every_seed_runs_the_same_units_in_its_own_order() {
        for kind in Kind::ALL {
            let a = kind.units(1, 10);
            let b = kind.units(2, 10);
            let passes = a.len() / kind.pool_units().len();
            let pool = sorted_keys(&kind.pool_units().repeat(passes));
            assert_eq!(sorted_keys(&a), pool, "{}", kind.name());
            assert_eq!(sorted_keys(&b), pool, "{}", kind.name());
            let order = |u: &[Unit]| u.iter().map(Unit::key).collect::<Vec<_>>();
            assert_ne!(order(&a), order(&b), "{}: the seed must order the units", kind.name());
            assert_eq!(order(&a), order(&kind.units(1, 10)), "{}", kind.name());
        }
    }

    #[test]
    fn every_pooled_unit_has_a_pin() {
        let pins = Pins::load();
        for kind in Kind::ALL {
            for unit in kind.pool_units() {
                let missing = pins.mismatch(kind.name(), &unit.key(), 0);
                assert!(
                    missing.as_ref().is_none_or(|m| !m.ends_with("no pinned digest")),
                    "{missing:?}"
                );
            }
        }
    }
}
