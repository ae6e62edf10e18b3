//! The datacenter tier: rack-sharded parallel simulation.
//!
//! A [`run_datacenter_day`] run shards the cluster per rack. Each rack is a
//! complete [`ClusterSim`] — its own residency and host indices, energy
//! and quiescence ledgers, manager and RNG streams — stepped
//! concurrently across the caller's [`oasis_sim::pool::WorkerPool`] in
//! *epochs* of [`EPOCH_INTERVALS`] trace intervals. Epoch boundaries are
//! deterministic cross-rack barriers: every rack reaches the boundary
//! before any rack continues, and between barriers the *epoch planner*
//! runs on the driver thread over a merged read-only view of all racks:
//!
//! * [`PlannerScope::Global`] assembles one [`RackLoad`] per rack (in
//!   rack order) and applies [`plan_rebalance`]'s capacity grants —
//!   consolidation headroom flows from timezone-cold racks to hot ones;
//! * [`PlannerScope::Local`] never crosses rack lines — the
//!   decentralized baseline (Ashraf et al.'s rack-local mapping), at
//!   zero rebalance traffic.
//!
//! ## Determinism
//!
//! The result is byte-identical across worker counts:
//!
//! * racks never share mutable state mid-epoch — each owns its sim, and
//!   the pool returns racks in input (= rack) order;
//! * the epoch planner is a pure function of the per-rack loads, which
//!   are themselves functions of rack state at the barrier; grants are
//!   applied on the driver thread in grant order;
//! * with one rack there are no barriers and no epoch planner: the
//!   sharded day degenerates to the monolithic day loop, statement for
//!   statement — `tests/shard_equivalence.rs` pins both properties.

use oasis_core::rebalance::{plan_rebalance, RackLoad};
use oasis_core::PolicyKind;
use oasis_sim::pool::WorkerPool;
use oasis_sim::SimTime;
use oasis_telemetry::{ProfileScope, Telemetry};
use oasis_trace::{DayKind, INTERVALS_PER_DAY};

use crate::config::ClusterConfig;
use crate::experiments::Scale;
use crate::results::SimReport;
use crate::sim::ClusterSim;

/// Trace intervals between cross-rack epoch barriers (24 × 5 min = two
/// simulated hours; 12 barriers per day).
pub const EPOCH_INTERVALS: usize = 24;

/// SLA threshold for the planner scorecard: an idle→active transition
/// slower than this counts as a violation (resume latency users notice).
pub const SLA_THRESHOLD_SECS: f64 = 10.0;

/// Which planner runs at the epoch barriers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlannerScope {
    /// Merge per-rack loads at every barrier and rebalance consolidation
    /// capacity across racks.
    #[default]
    Global,
    /// Rack-local planning only; barriers synchronize but decide nothing.
    Local,
}

impl PlannerScope {
    /// Parses the CLI's `--planner` operand.
    pub fn parse(s: &str) -> Option<PlannerScope> {
        match s {
            "global" => Some(PlannerScope::Global),
            "local" => Some(PlannerScope::Local),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            PlannerScope::Global => "global",
            PlannerScope::Local => "local",
        }
    }
}

impl std::fmt::Display for PlannerScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration of one datacenter day: a per-rack template plus the
/// rack count and epoch-planner policy.
#[derive(Clone, Debug)]
pub struct DatacenterConfig {
    /// Rack 0's configuration; racks 1.. derive from it (see
    /// [`rack_config`]).
    pub base: ClusterConfig,
    /// Number of racks.
    pub racks: u32,
    /// Epoch-barrier planner policy.
    pub planner: PlannerScope,
}

impl DatacenterConfig {
    /// Builds the datacenter configuration conventionally paired with
    /// `scale`: `scale.racks` racks of the scale's rack shape.
    pub fn at(scale: Scale, policy: PolicyKind, day: DayKind, seed: u64) -> DatacenterConfig {
        let base = ClusterConfig::builder()
            .policy(policy)
            .day(day)
            .home_hosts(scale.home_hosts)
            .vms_per_host(scale.vms_per_host)
            .consolidation_hosts(scale.default_cons())
            .host_memory(scale.host_memory())
            .seed(seed)
            .build()
            .expect("valid datacenter rack configuration");
        DatacenterConfig { base, racks: scale.racks.max(1), planner: PlannerScope::default() }
    }

    /// Replaces the planner policy.
    pub fn planner(mut self, planner: PlannerScope) -> DatacenterConfig {
        self.planner = planner;
        self
    }
}

/// Derives rack `rack`'s configuration from the rack-0 template.
///
/// Rack 0 *is* the template, verbatim — this is what collapses the
/// sharded `racks = 1` day onto the monolithic simulator. Later racks
/// keep the template's shape but get an independent run seed, share the
/// template's trace corpus (one memoized library for the whole
/// datacenter), and stagger their trace offsets by timezone: zones are
/// assigned round-robin (`rack mod 24`, one hour of rotation each), so
/// any fleet of two racks or more already spans timezones and overnight
/// quiescence sweeps across the datacenter instead of hitting every
/// rack at once.
pub fn rack_config(base: &ClusterConfig, rack: u32) -> ClusterConfig {
    let mut cfg = base.clone();
    if rack > 0 {
        cfg.seed = base.seed ^ u64::from(rack).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        cfg.trace_seed = Some(base.trace_seed.unwrap_or(base.seed));
        // 12 intervals = 1 simulated hour.
        cfg.trace_rotation = (rack % 24) * 12;
    }
    cfg
}

/// One rack mid-day: the sim plus everything the monolithic day loop
/// kept on its stack, parked so the rack can pause at epoch barriers.
/// Its wall-clock cost, when wanted, is the `run_day` scope of the
/// profile tree on the telemetry the rack was built with.
struct RackDay {
    rack: u32,
    sim: ClusterSim,
    /// The day loop's planning cadence (`next_plan` local of the
    /// monolithic loop).
    next_plan: SimTime,
    /// The rack's `run_day` profiler scope, held open across barriers.
    day_scope: ProfileScope,
}

// Racks travel through `WorkerPool::map` between epochs.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<RackDay>();
};

impl RackDay {
    /// Builds the rack and opens its day, mirroring the monolithic
    /// prologue: construct, attach telemetry, open the `run_day` scope.
    fn begin(rack: u32, cfg: ClusterConfig, tel: Telemetry) -> RackDay {
        let mut sim = ClusterSim::new(cfg);
        sim.attach_telemetry(tel);
        let day_scope = sim.telemetry.profile("run_day");
        RackDay { rack, sim, next_plan: SimTime::ZERO, day_scope }
    }

    /// Steps intervals `lo..hi` — one epoch's worth between barriers.
    fn step_range(&mut self, lo: usize, hi: usize) {
        for interval in lo..hi {
            self.sim.step_interval(interval, &mut self.next_plan);
        }
        // A parked rack holds no planner buffers between barriers.
        self.sim.manager.release_buffers();
    }

    /// The rack's consolidation-side load summary for the epoch planner.
    fn load(&self) -> RackLoad {
        RackLoad {
            rack: self.rack,
            cons_hosts: self.sim.cons_host_count(),
            cons_capacity: self.sim.cons_capacity(),
            base_capacity: self.sim.cfg.effective_capacity(),
            cons_demand: self.sim.cons_demand(),
        }
    }

    /// Closes the rack's day: ends the day scope and assembles the
    /// report — the monolithic epilogue.
    fn finish(self) -> SimReport {
        self.day_scope.end();
        self.sim.finish_report()
    }
}

/// The outcome of one sharded datacenter day.
#[derive(Clone, Debug)]
pub struct DatacenterReport {
    /// Racks simulated.
    pub racks: u32,
    /// Epoch planner that ran.
    pub planner: PlannerScope,
    /// Total hosts across all racks.
    pub hosts: u32,
    /// Total VMs across all racks.
    pub vms: u32,
    /// Summed unmanaged baseline energy (kWh), in rack order.
    pub baseline_kwh: f64,
    /// Summed managed energy (kWh), in rack order.
    pub total_kwh: f64,
    /// `1 − total/baseline` over the whole datacenter.
    pub energy_savings: f64,
    /// Capacity grants the epoch planner issued (0 under `Local`).
    pub rebalance_grants: u64,
    /// Modelled bytes moved by those grants (the memory-server pages
    /// backing the transferred headroom): `quantum × cons_hosts` each.
    pub rebalance_bytes: u64,
    /// Per-rack day reports, in rack order.
    pub rack_reports: Vec<SimReport>,
}

impl DatacenterReport {
    /// Total SLA violations (transitions slower than `threshold_secs`)
    /// across all racks.
    pub fn sla_violations(&mut self, threshold_secs: f64) -> u64 {
        self.rack_reports.iter_mut().map(|r| r.sla_violations(threshold_secs)).sum()
    }

    /// Total bytes that crossed any network: per-rack traffic plus the
    /// epoch planner's rebalance transfers.
    pub fn network_bytes(&self) -> u64 {
        let racks: u64 = self.rack_reports.iter().map(|r| r.network_bytes().as_bytes()).sum();
        racks.saturating_add(self.rebalance_bytes)
    }
}

/// Runs one sharded datacenter day on `pool` with telemetry disabled.
pub fn run_datacenter_day(pool: &WorkerPool, dc: &DatacenterConfig) -> DatacenterReport {
    run_datacenter_day_with(pool, dc, &|_| Telemetry::disabled())
}

/// [`run_datacenter_day`] with a per-rack telemetry factory (rack index
/// in, bus out) — the golden-telemetry equivalence tests and the CLI's
/// per-rack digest attach sinks this way.
pub fn run_datacenter_day_with(
    pool: &WorkerPool,
    dc: &DatacenterConfig,
    telemetry_for: &(dyn Fn(u32) -> Telemetry + Sync),
) -> DatacenterReport {
    let racks = dc.racks.max(1);
    let seeds: Vec<(u32, ClusterConfig)> =
        (0..racks).map(|r| (r, rack_config(&dc.base, r))).collect();
    // Construction fans out too: each rack's build is a pure function
    // of its derived config.
    let mut fleet: Vec<RackDay> =
        pool.map(seeds, |(r, cfg)| RackDay::begin(r, cfg, telemetry_for(r)));

    let mut rebalance_grants = 0u64;
    let mut rebalance_bytes = 0u64;
    let mut epoch_start = 0usize;
    while epoch_start < INTERVALS_PER_DAY {
        let epoch_end = (epoch_start + EPOCH_INTERVALS).min(INTERVALS_PER_DAY);
        // The barrier: every rack finishes the epoch before any state
        // crosses rack lines. `map` returns racks in rack order.
        fleet = pool.map(fleet, |mut rack| {
            rack.step_range(epoch_start, epoch_end);
            rack
        });
        // The epoch planner, on the driver thread, over the merged
        // read-only loads. Skipped entirely for a single rack (nothing
        // to trade with) and at the day's end (no interval left to
        // observe a grant).
        if dc.planner == PlannerScope::Global && fleet.len() > 1 && epoch_end < INTERVALS_PER_DAY {
            let loads: Vec<RackLoad> = fleet.iter().map(RackDay::load).collect();
            for grant in plan_rebalance(&loads) {
                let donor = &fleet[grant.donor as usize];
                let borrower = &fleet[grant.borrower as usize];
                let donor_cap = donor.sim.cons_capacity().saturating_sub(grant.quantum);
                let borrower_cap = borrower.sim.cons_capacity() + grant.quantum;
                let cons = u64::from(borrower.sim.cons_host_count());
                fleet[grant.donor as usize].sim.set_cons_capacity(donor_cap);
                fleet[grant.borrower as usize].sim.set_cons_capacity(borrower_cap);
                rebalance_grants += 1;
                rebalance_bytes =
                    rebalance_bytes.saturating_add(grant.quantum.as_bytes().saturating_mul(cons));
            }
        }
        epoch_start = epoch_end;
    }

    // Finish serially in rack order: `finish_report` flushes telemetry
    // sinks, which byte-identity across job counts requires to happen
    // in a deterministic order.
    let rack_reports: Vec<SimReport> = fleet.into_iter().map(RackDay::finish).collect();

    let baseline_kwh: f64 = rack_reports.iter().map(|r| r.baseline_kwh).sum();
    let total_kwh: f64 = rack_reports.iter().map(|r| r.total_kwh).sum();
    let hosts: u32 = rack_reports.iter().map(|r| r.home_hosts + r.consolidation_hosts).sum();
    let vms: u32 = rack_reports.iter().map(|r| r.vms).sum();
    DatacenterReport {
        racks,
        planner: dc.planner,
        hosts,
        vms,
        baseline_kwh,
        total_kwh,
        energy_savings: oasis_power::meter::savings_fraction(baseline_kwh, total_kwh),
        rebalance_grants,
        rebalance_bytes,
        rack_reports,
    }
}

/// One row of the global-vs-local planner scorecard.
#[derive(Clone, Debug)]
pub struct ScorecardRow {
    /// Planner policy scored.
    pub planner: PlannerScope,
    /// Datacenter energy (kWh).
    pub total_kwh: f64,
    /// `1 − total/baseline`.
    pub energy_savings: f64,
    /// Transitions slower than [`SLA_THRESHOLD_SECS`].
    pub sla_violations: u64,
    /// Bytes that crossed any network, including rebalance transfers.
    pub migration_bytes: u64,
    /// Capacity grants the epoch planner issued.
    pub rebalance_grants: u64,
}

impl ScorecardRow {
    /// One fixed-order table line (the sweep binary and golden test
    /// print this verbatim).
    pub fn table_line(&self) -> String {
        format!(
            "{planner:<8} kwh={kwh:>10.3} savings={savings:>6.2}% sla_violations={sla:>6} \
             migration_bytes={bytes:>16} grants={grants}",
            planner = self.planner.as_str(),
            kwh = self.total_kwh,
            savings = self.energy_savings * 100.0,
            sla = self.sla_violations,
            bytes = self.migration_bytes,
            grants = self.rebalance_grants,
        )
    }
}

/// ROADMAP item 3's scorecard: runs the same datacenter day under the
/// global and local epoch planners and scores both on energy, SLA
/// violations and migration bytes. One sweep entry point, two rows,
/// fixed order — seeded, so the smoke-scale output is golden-testable.
pub fn planner_scorecard(pool: &WorkerPool, dc: &DatacenterConfig) -> Vec<ScorecardRow> {
    [PlannerScope::Global, PlannerScope::Local]
        .into_iter()
        .map(|planner| {
            let cfg = dc.clone().planner(planner);
            let mut report = run_datacenter_day(pool, &cfg);
            ScorecardRow {
                planner,
                total_kwh: report.total_kwh,
                energy_savings: report.energy_savings,
                sla_violations: report.sla_violations(SLA_THRESHOLD_SECS),
                migration_bytes: report.network_bytes(),
                rebalance_grants: report.rebalance_grants,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_dc(racks: u32, planner: PlannerScope) -> DatacenterConfig {
        let scale = Scale { home_hosts: 6, vms_per_host: 10, racks };
        DatacenterConfig::at(scale, PolicyKind::FullToPartial, DayKind::Weekday, 1).planner(planner)
    }

    #[test]
    fn rack_zero_is_the_template_verbatim() {
        let dc = smoke_dc(4, PlannerScope::Global);
        assert_eq!(rack_config(&dc.base, 0), dc.base);
        let r1 = rack_config(&dc.base, 1);
        assert_ne!(r1.seed, dc.base.seed);
        assert_eq!(r1.trace_seed, Some(dc.base.seed), "racks share one trace corpus");
    }

    #[test]
    fn timezone_stagger_wraps_across_the_fleet() {
        let dc = smoke_dc(480, PlannerScope::Global);
        assert_eq!(rack_config(&dc.base, 1).trace_rotation, 12, "one hour per zone");
        assert_eq!(rack_config(&dc.base, 23).trace_rotation, 23 * 12);
        assert_eq!(rack_config(&dc.base, 24).trace_rotation, 0, "zones wrap at 24");
        assert_eq!(rack_config(&dc.base, 479).trace_rotation, 23 * 12);
    }

    #[test]
    fn datacenter_day_totals_sum_the_racks() {
        let pool = WorkerPool::new(2);
        let report = run_datacenter_day(&pool, &smoke_dc(3, PlannerScope::Global));
        assert_eq!(report.racks, 3);
        assert_eq!(report.rack_reports.len(), 3);
        assert_eq!(report.hosts, 3 * (6 + 1));
        assert_eq!(report.vms, 3 * 60);
        let base: f64 = report.rack_reports.iter().map(|r| r.baseline_kwh).sum();
        assert_eq!(report.baseline_kwh, base);
        assert!(report.energy_savings > 0.0, "savings {}", report.energy_savings);
    }

    #[test]
    fn local_planner_never_trades_capacity() {
        let pool = WorkerPool::sequential();
        let report = run_datacenter_day(&pool, &smoke_dc(3, PlannerScope::Local));
        assert_eq!(report.rebalance_grants, 0);
        assert_eq!(report.rebalance_bytes, 0);
    }

    #[test]
    fn scorecard_has_fixed_global_then_local_order() {
        let pool = WorkerPool::sequential();
        let rows = planner_scorecard(&pool, &smoke_dc(2, PlannerScope::Global));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].planner, PlannerScope::Global);
        assert_eq!(rows[1].planner, PlannerScope::Local);
        for row in &rows {
            assert!(row.table_line().starts_with(row.planner.as_str()));
        }
    }

    /// The smoke-scale scorecard, golden: any drift in the planner, the
    /// rebalance thresholds, or the energy model shows up as a diff here.
    #[test]
    fn smoke_scorecard_is_golden() {
        let dc = smoke_dc(6, PlannerScope::Global);
        let rows = planner_scorecard(&WorkerPool::new(2), &dc);
        let lines: Vec<String> = rows.iter().map(ScorecardRow::table_line).collect();
        assert_eq!(
            lines,
            [
                "global   kwh=    76.256 savings= 16.51% sla_violations=     2 \
                 migration_bytes=  13869690424874 grants=3",
                "local    kwh=    76.042 savings= 16.75% sla_violations=     2 \
                 migration_bytes=  13904254943134 grants=0",
            ]
        );
    }

    #[test]
    fn planner_scope_parses_cli_spellings() {
        assert_eq!(PlannerScope::parse("global"), Some(PlannerScope::Global));
        assert_eq!(PlannerScope::parse("local"), Some(PlannerScope::Local));
        assert_eq!(PlannerScope::parse("Global"), None);
    }
}
