//! Canned experiment configurations for every table and figure of §5.
//!
//! Each function reproduces one evaluation artifact and returns plain data
//! that `oasis-bench`'s `experiments` binary prints as rows/series. The paper's
//! defaults — 30 home hosts, 4 consolidation hosts, 900 VMs, 5 averaged
//! runs — are baked in but scale down for quick runs via the `runs`
//! parameters and [`Scale`].
//!
//! ## Parallel execution
//!
//! Every run inside an experiment is an independent seeded day-simulation,
//! so each sweep fans its `run_one` calls across a
//! [`oasis_sim::pool::WorkerPool`] (sized by `--jobs`/`OASIS_JOBS`, default
//! = available parallelism). Results are collected in input order and
//! aggregated in exactly the sequence the sequential loops used, so the
//! output is byte-identical to a `--jobs 1` run — the equivalence suite in
//! `tests/parallel_equivalence.rs` pins this down.

use oasis_core::PolicyKind;
use oasis_power::MemoryServerProfile;
use oasis_sim::pool::WorkerPool;
use oasis_sim::stats::mean_and_std;
use oasis_trace::DayKind;

use crate::config::ClusterConfig;
use crate::results::SimReport;
use crate::shard::{DatacenterConfig, DatacenterReport, PlannerScope};
use crate::sim::ClusterSim;

/// Cluster scale an experiment runs at.
///
/// [`Scale::PAPER`] is §5.1's rack; [`Scale::SMOKE`] is the reduced rack
/// `--scale smoke` and the CI smoke jobs use so a sweep finishes in seconds;
/// [`Scale::DATACENTER`] is the sharded multi-rack tier (one simulated
/// rack per [`crate::shard`] shard).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Number of home (compute) hosts per rack.
    pub home_hosts: u32,
    /// VMs packed per home host.
    pub vms_per_host: u32,
    /// Racks simulated (1 = the paper's single-rack setup; the day is
    /// sharded per rack above that).
    pub racks: u32,
}

impl Scale {
    /// The paper's §5.1 deployment: 30 home hosts × 30 VMs, one rack.
    pub const PAPER: Scale = Scale { home_hosts: 30, vms_per_host: 30, racks: 1 };

    /// A reduced rack for smoke runs: 6 home hosts × 10 VMs.
    pub const SMOKE: Scale = Scale { home_hosts: 6, vms_per_host: 10, racks: 1 };

    /// The datacenter tier: 5,000 micro-racks of 4 home + 1
    /// consolidation host (25,000 hosts) packing 10 VMs per home
    /// (200,000 VMs). Racks are far sparser than the paper's (40 VMs vs
    /// 900) so whole racks actually quiesce overnight, and trace offsets
    /// stagger by timezone (one hour per rack, round-robin over 24
    /// zones), so the consolidation wave sweeps across the fleet and
    /// the epoch planner has simultaneous donors and borrowers to
    /// match.
    pub const DATACENTER: Scale = Scale { home_hosts: 4, vms_per_host: 10, racks: 5_000 };

    /// Consolidation hosts per rack conventionally paired with this
    /// scale (the paper's 4 for single-rack tiers, 1 for the sparse
    /// datacenter micro-racks).
    pub fn default_cons(&self) -> u32 {
        if self.racks > 1 {
            1
        } else {
            4
        }
    }

    /// Host memory conventionally paired with this scale: datacenter
    /// racks run 32 GiB hosts so a rack's 40 idle working sets genuinely
    /// load its consolidation host (utilization swings ~0.1 → 1.0 with
    /// the timezone wave, which is what gives the epoch planner's
    /// donor/borrower thresholds something to discriminate); single-rack
    /// tiers keep the paper's 128 GiB.
    pub fn host_memory(&self) -> oasis_mem::ByteSize {
        if self.racks > 1 {
            oasis_mem::ByteSize::gib(32)
        } else {
            oasis_mem::ByteSize::gib(128)
        }
    }

    /// Total VMs across all racks.
    pub fn total_vms(&self) -> u32 {
        self.racks * self.home_hosts * self.vms_per_host
    }
}

/// The consolidation-host sweep shared by Figures 8 and 11.
pub const CONS_SWEEP: [u32; 6] = [2, 4, 6, 8, 10, 12];

/// Aggregate of a simulated week (five weekdays + two weekend days).
#[derive(Clone, Debug)]
pub struct WeekReport {
    /// The seven daily reports, Monday-first.
    pub days: Vec<SimReport>,
    /// Energy savings over the whole week.
    pub savings: f64,
    /// Baseline energy for the week (kWh).
    pub baseline_kwh: f64,
    /// Managed energy for the week (kWh).
    pub total_kwh: f64,
}

/// Simulates a full week: five weekdays then two weekend days, each with
/// an independently sampled user population.
pub fn run_week(base: &ClusterConfig) -> WeekReport {
    run_week_on(&WorkerPool::from_env(), base)
}

/// [`run_week`] on an explicit worker pool: the seven days are seeded
/// independently, so they fan across the pool and are reassembled
/// Monday-first.
pub fn run_week_on(pool: &WorkerPool, base: &ClusterConfig) -> WeekReport {
    let cfgs: Vec<ClusterConfig> = (0..7u64)
        .map(|dow| {
            let day = if dow < 5 { DayKind::Weekday } else { DayKind::Weekend };
            let mut cfg = base.clone();
            cfg.day = day;
            cfg.seed = base.seed.wrapping_mul(7).wrapping_add(dow + 1);
            cfg
        })
        .collect();
    let days = pool.map(cfgs, |cfg| ClusterSim::new(cfg).run_day());
    let baseline_kwh: f64 = days.iter().map(|d| d.baseline_kwh).sum();
    let total_kwh: f64 = days.iter().map(|d| d.total_kwh).sum();
    WeekReport { days, savings: 1.0 - total_kwh / baseline_kwh, baseline_kwh, total_kwh }
}

/// One Figure 8 data point: mean ± std of energy savings over runs.
#[derive(Clone, Debug, PartialEq)]
pub struct SavingsPoint {
    /// Policy evaluated.
    pub policy: PolicyKind,
    /// Day kind.
    pub day: DayKind,
    /// Number of consolidation hosts.
    pub consolidation_hosts: u32,
    /// Mean energy savings over the runs.
    pub mean: f64,
    /// Sample standard deviation over the runs (the error bars).
    pub std_dev: f64,
}

/// Runs one simulated day with the given overrides at paper scale.
pub fn run_one(policy: PolicyKind, day: DayKind, consolidation_hosts: u32, seed: u64) -> SimReport {
    run_one_at(Scale::PAPER, policy, day, consolidation_hosts, seed)
}

/// Runs one simulated day at an explicit [`Scale`].
pub fn run_one_at(
    scale: Scale,
    policy: PolicyKind,
    day: DayKind,
    consolidation_hosts: u32,
    seed: u64,
) -> SimReport {
    let cfg = ClusterConfig::builder()
        .policy(policy)
        .day(day)
        .home_hosts(scale.home_hosts)
        .vms_per_host(scale.vms_per_host)
        .consolidation_hosts(consolidation_hosts)
        .seed(seed)
        .build()
        .expect("valid §5.1 configuration");
    ClusterSim::new(cfg).run_day()
}

/// Figure 7: active VMs and powered hosts over a day (30 home + 4
/// consolidation hosts, FulltoPartial).
pub fn figure7(day: DayKind, seed: u64) -> SimReport {
    run_one(PolicyKind::FullToPartial, day, 4, seed)
}

/// Figure 8: energy savings per policy as consolidation hosts vary, with
/// `runs` repetitions per point.
pub fn figure8(day: DayKind, runs: u64) -> Vec<SavingsPoint> {
    figure8_at(&WorkerPool::from_env(), Scale::PAPER, day, runs)
}

/// [`figure8`] on an explicit pool and scale. Every (policy, host-count,
/// seed) cell is one independent simulation; the whole sweep fans out
/// flat and is re-chunked per point afterwards, so the mean/std
/// aggregation consumes runs in the same order as the sequential loop.
pub fn figure8_at(pool: &WorkerPool, scale: Scale, day: DayKind, runs: u64) -> Vec<SavingsPoint> {
    let mut tasks = Vec::new();
    for policy in PolicyKind::FIGURE8 {
        for cons in CONS_SWEEP {
            for r in 0..runs {
                tasks.push((policy, cons, 1 + r));
            }
        }
    }
    let savings = pool.map(tasks, |(p, c, seed)| run_one_at(scale, p, day, c, seed).energy_savings);
    let mut points = Vec::new();
    let mut cells = savings.chunks(runs.max(1) as usize);
    for policy in PolicyKind::FIGURE8 {
        for cons in CONS_SWEEP {
            let vals = cells.next().expect("one cell per (policy, cons) pair");
            let (mean, std_dev) = mean_and_std(vals);
            points.push(SavingsPoint { policy, day, consolidation_hosts: cons, mean, std_dev });
        }
    }
    points
}

/// Figure 9: consolidation-ratio CDFs for Default vs FulltoPartial (and
/// NewHome, which the paper shows overlapping FulltoPartial).
pub fn figure9(day: DayKind, seed: u64) -> Vec<(PolicyKind, SimReport)> {
    let policies = [PolicyKind::Default, PolicyKind::FullToPartial, PolicyKind::NewHome];
    WorkerPool::from_env().map(policies.to_vec(), |p| (p, run_one(p, day, 4, seed)))
}

/// Figure 10: weekday transfer breakdown per policy.
pub fn figure10(seed: u64) -> Vec<(PolicyKind, SimReport)> {
    WorkerPool::from_env()
        .map(PolicyKind::FIGURE8.to_vec(), |p| (p, run_one(p, DayKind::Weekday, 4, seed)))
}

/// Figure 11: idle→active delay distributions for 2–12 consolidation
/// hosts under FulltoPartial.
pub fn figure11(day: DayKind, seed: u64) -> Vec<(u32, SimReport)> {
    WorkerPool::from_env()
        .map(CONS_SWEEP.to_vec(), |c| (c, run_one(PolicyKind::FullToPartial, day, c, seed)))
}

/// Table 3: energy savings under alternative memory-server power budgets.
pub fn table3(runs: u64) -> Vec<(f64, f64, f64)> {
    table3_at(&WorkerPool::from_env(), Scale::PAPER, runs)
}

/// [`table3`] on an explicit pool and scale. Returns rows of
/// (memserver watts, weekday savings, weekend savings).
pub fn table3_at(pool: &WorkerPool, scale: Scale, runs: u64) -> Vec<(f64, f64, f64)> {
    let budgets = MemoryServerProfile::table3_budgets();
    let mut tasks = Vec::new();
    for ms in &budgets {
        for day in [DayKind::Weekday, DayKind::Weekend] {
            for r in 0..runs {
                tasks.push((*ms, day, 1 + r));
            }
        }
    }
    let savings = pool.map(tasks, |(ms, day, seed)| {
        let cfg = ClusterConfig::builder()
            .policy(PolicyKind::FullToPartial)
            .day(day)
            .home_hosts(scale.home_hosts)
            .vms_per_host(scale.vms_per_host)
            .consolidation_hosts(4)
            .memserver(ms)
            .seed(seed)
            .build()
            .expect("valid configuration");
        ClusterSim::new(cfg).run_day().energy_savings
    });
    let mut cells = savings.chunks(runs.max(1) as usize);
    budgets
        .into_iter()
        .map(|ms| {
            let weekday = mean_and_std(cells.next().expect("weekday cell")).0;
            let weekend = mean_and_std(cells.next().expect("weekend cell")).0;
            (ms.active_watts, weekday, weekend)
        })
        .collect()
}

/// Figure 12: cluster-size sensitivity, keeping 900 VMs total.
///
/// Home-host counts follow the paper's x-axis (`homes+cons` combos with
/// 30/45/50/60/90 VMs per host); hosts are given enough DRAM for the
/// denser packings.
pub fn figure12(day: DayKind, runs: u64) -> Vec<(u32, u32, u32, f64, f64)> {
    figure12_on(&WorkerPool::from_env(), day, runs)
}

/// [`figure12`] on an explicit pool. Returns rows of
/// (home hosts, consolidation hosts, vms/host, mean savings, std).
pub fn figure12_on(pool: &WorkerPool, day: DayKind, runs: u64) -> Vec<(u32, u32, u32, f64, f64)> {
    let combos: Vec<(u32, u32)> = vec![(30, 30), (20, 45), (18, 50), (15, 60), (10, 90)];
    let mut tasks = Vec::new();
    for &(homes, vms_per_host) in &combos {
        for cons in [2u32, 3, 4] {
            for r in 0..runs {
                tasks.push((homes, vms_per_host, cons, 1 + r));
            }
        }
    }
    let savings = pool.map(tasks, |(homes, vms_per_host, cons, seed)| {
        let cfg = ClusterConfig::builder()
            .policy(PolicyKind::FullToPartial)
            .day(day)
            .home_hosts(homes)
            .vms_per_host(vms_per_host)
            .consolidation_hosts(cons)
            // Dense packings need bigger hosts (4 GiB × 90 VMs).
            .host_memory(oasis_mem::ByteSize::gib(
                (u64::from(vms_per_host) * 4).next_multiple_of(64).max(128),
            ))
            .seed(seed)
            .build()
            .expect("valid configuration");
        ClusterSim::new(cfg).run_day().energy_savings
    });
    let mut cells = savings.chunks(runs.max(1) as usize);
    let mut out = Vec::new();
    for (homes, vms_per_host) in combos {
        for cons in [2u32, 3, 4] {
            let (mean, std_dev) = mean_and_std(cells.next().expect("one cell per combo"));
            out.push((homes, cons, vms_per_host, mean, std_dev));
        }
    }
    out
}

/// Runs one sharded datacenter day at `scale` under the paper's default
/// FulltoPartial policy on `pool`.
pub fn run_datacenter_on(
    pool: &WorkerPool,
    scale: Scale,
    planner: PlannerScope,
    seed: u64,
) -> DatacenterReport {
    let dc = DatacenterConfig::at(scale, PolicyKind::FullToPartial, DayKind::Weekday, seed)
        .planner(planner);
    crate::shard::run_datacenter_day(pool, &dc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, fast cluster for smoke tests.
    fn small(policy: PolicyKind, day: DayKind, seed: u64) -> SimReport {
        let cfg = ClusterConfig::builder()
            .home_hosts(6)
            .consolidation_hosts(2)
            .vms_per_host(10)
            .policy(policy)
            .day(day)
            .seed(seed)
            .build()
            .unwrap();
        ClusterSim::new(cfg).run_day()
    }

    #[test]
    fn fulltopartial_saves_energy_on_a_small_cluster() {
        let r = small(PolicyKind::FullToPartial, DayKind::Weekday, 3);
        assert!(r.energy_savings > 0.05, "savings {}", r.energy_savings);
        assert!(r.energy_savings < 0.7, "savings {}", r.energy_savings);
        assert!(r.migrations.partial > 0);
    }

    #[test]
    fn always_on_saves_nothing() {
        let r = small(PolicyKind::AlwaysOn, DayKind::Weekday, 3);
        // The managed cluster equals the baseline except the sleeping
        // consolidation hosts' S3 draw (2 hosts × 12.9 W ≈ −4 % at this
        // small scale, well under 2 % at the paper's 30-host scale).
        assert!(r.energy_savings.abs() < 0.06, "savings {}", r.energy_savings);
        assert_eq!(r.migrations.partial, 0);
        assert_eq!(r.migrations.full, 0);
    }

    #[test]
    fn weekend_beats_weekday() {
        let wd = small(PolicyKind::FullToPartial, DayKind::Weekday, 3);
        let we = small(PolicyKind::FullToPartial, DayKind::Weekend, 3);
        assert!(
            we.energy_savings > wd.energy_savings,
            "weekend {} vs weekday {}",
            we.energy_savings,
            wd.energy_savings
        );
    }

    #[test]
    fn policy_ordering_matches_figure8() {
        let only = small(PolicyKind::OnlyPartial, DayKind::Weekday, 5);
        let ftp = small(PolicyKind::FullToPartial, DayKind::Weekday, 5);
        assert!(
            ftp.energy_savings > only.energy_savings,
            "FulltoPartial {} vs OnlyPartial {}",
            ftp.energy_savings,
            only.energy_savings
        );
    }

    #[test]
    fn report_shape() {
        let r = small(PolicyKind::FullToPartial, DayKind::Weekday, 1);
        assert_eq!(r.active_vms_series.len(), 288);
        assert_eq!(r.powered_hosts_series.len(), 288);
        assert!(r.baseline_kwh > 0.0);
        assert!(r.total_kwh > 0.0);
        assert!(!r.transition_delays.is_empty());
    }

    #[test]
    fn week_blends_weekday_and_weekend_savings() {
        let cfg = ClusterConfig::builder()
            .home_hosts(6)
            .consolidation_hosts(2)
            .vms_per_host(10)
            .policy(PolicyKind::FullToPartial)
            .seed(3)
            .build()
            .unwrap();
        let week = run_week(&cfg);
        assert_eq!(week.days.len(), 7);
        assert_eq!(week.days.iter().filter(|d| d.day == DayKind::Weekend).count(), 2);
        let wd_mean: f64 = week.days[..5].iter().map(|d| d.energy_savings).sum::<f64>() / 5.0;
        let we_mean: f64 = week.days[5..].iter().map(|d| d.energy_savings).sum::<f64>() / 2.0;
        assert!(week.savings > wd_mean.min(we_mean));
        assert!(week.savings < wd_mean.max(we_mean));
        assert!(
            (week.baseline_kwh - week.days.iter().map(|d| d.baseline_kwh).sum::<f64>()).abs()
                < 1e-9
        );
    }

    #[test]
    fn server_mix_moves_less_data_for_similar_savings() {
        use oasis_vm::workload::WorkloadClass;
        let base = ClusterConfig::builder()
            .home_hosts(6)
            .consolidation_hosts(2)
            .vms_per_host(10)
            .policy(PolicyKind::FullToPartial)
            .seed(4);
        let vdi = ClusterSim::new(base.clone().build().unwrap()).run_day();
        let farm = ClusterSim::new(
            base.workload_mix(vec![
                (WorkloadClass::WebServer, 0.5),
                (WorkloadClass::Database, 0.5),
            ])
            .build()
            .unwrap(),
        )
        .run_day();
        // §5.6: similar savings, far smaller memory images.
        assert!((farm.energy_savings - vdi.energy_savings).abs() < 0.08);
        let vdi_sas = vdi.traffic.total(oasis_net::TrafficClass::MemServerUpload);
        let farm_sas = farm.traffic.total(oasis_net::TrafficClass::MemServerUpload);
        assert!(farm_sas < vdi_sas.mul_f64(0.5), "{farm_sas} !< half of {vdi_sas}");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = small(PolicyKind::FullToPartial, DayKind::Weekday, 9);
        let b = small(PolicyKind::FullToPartial, DayKind::Weekday, 9);
        assert_eq!(a.energy_savings, b.energy_savings);
        assert_eq!(a.migrations, b.migrations);
        let c = small(PolicyKind::FullToPartial, DayKind::Weekday, 10);
        assert_ne!(a.energy_savings, c.energy_savings);
    }

    #[test]
    fn figure8_at_smoke_scale_produces_the_full_grid() {
        let points = figure8_at(&WorkerPool::new(2), Scale::SMOKE, DayKind::Weekday, 2);
        assert_eq!(points.len(), PolicyKind::FIGURE8.len() * CONS_SWEEP.len());
        // Rows iterate policies outer, host counts inner — the order the
        // fig08 binary prints.
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.consolidation_hosts, CONS_SWEEP[i % CONS_SWEEP.len()]);
            assert_eq!(p.policy, PolicyKind::FIGURE8[i / CONS_SWEEP.len()]);
        }
    }
}
