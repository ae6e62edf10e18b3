//! Per-layer probes for the traced run.
//!
//! Each probe times calls into one layer's public functions from here,
//! inside spans, on inputs drawn from the run's seed. Every traced run
//! runs every probe, whatever its workload, so each per-layer number is
//! reported on every workload; the workload's own traced units are
//! measured separately (see `main.rs`).

use oasis_cluster::experiments::{run_datacenter_on, Scale};
use oasis_cluster::shard::{rack_config, DatacenterConfig, PlannerScope};
use oasis_cluster::ClusterConfig;
use oasis_core::manager::ManagerConfig;
use oasis_core::{
    plan_rebalance, ClusterManager, ClusterView, HostRole, HostView, PolicyKind, RackLoad, VmView,
};
use oasis_mem::compress::PageMix;
use oasis_mem::{
    compress, decompress, ByteSize, IdleWssDistribution, PageNum, PageTable, PAGE_SIZE,
};
use oasis_sim::pool::WorkerPool;
use oasis_sim::SimRng;
use oasis_trace::{sample_user_days, shared_library, DayKind, INTERVALS_PER_DAY};
use oasis_vm::{HostId, VmId, VmState};

use crate::alloc;
use crate::check::Pins;
use crate::spans::{Recorder, Span};
use crate::stats::quantile;
use crate::workloads::{
    cells, day_outcome, dc_outcome, lab_flow, lab_outcome, paper_config, run_batch, simulate_day,
    Kind, Trace, Unit, DC_SCALE, PAPER_TRACE_SEED,
};

/// Unit ids of probe calls start here, above any workload unit id.
pub const PROBE_UNIT_BASE: u32 = 1 << 24;

/// A measured per-layer number.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Runs the probes, collecting metrics and failed checks.
pub struct Probes<'a> {
    rec: &'a Recorder,
    pins: &'a Pins,
    rng: SimRng,
    next_unit: u32,
    /// Metrics measured so far.
    pub metrics: Vec<Metric>,
    /// Probe outputs checked.
    pub attempted: u64,
    /// Probe outputs that failed their check.
    pub failed: u64,
    /// Failed checks.
    pub problems: Vec<String>,
}

impl<'a> Probes<'a> {
    /// Probes drawing their inputs from `seed`.
    pub fn new(rec: &'a Recorder, pins: &'a Pins, seed: u64) -> Probes<'a> {
        Probes {
            rec,
            pins,
            rng: SimRng::new(seed ^ 0x9_0BE5),
            next_unit: PROBE_UNIT_BASE,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Runs every probe.
    pub fn run_probes(&mut self) {
        self.probe_trace();
        self.probe_cluster_days();
        self.probe_figure8();
        self.probe_planner();
        self.probe_rebalance();
        self.probe_shard();
        self.probe_lab();
        self.probe_mem();
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    fn unit(&mut self) -> u32 {
        self.next_unit += 1;
        self.next_unit
    }

    /// `n` distinct seeds from `kind`'s pinned pool.
    fn pool_seeds(&mut self, kind: Kind, n: usize) -> Vec<u64> {
        let mut seeds: Vec<u64> = (1..=kind.pool_size()).collect();
        self.rng.shuffle(&mut seeds);
        seeds.truncate(n);
        seeds
    }

    /// Counts one checked output and keeps what failed.
    fn verdict(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        self.failed += u64::from(!problems.is_empty());
        self.problems.extend(problems);
    }

    /// Checks one output against its pinned digest.
    fn check(&mut self, workload: &str, key: &str, digest: u64, mut problems: Vec<String>) {
        problems.extend(self.pins.mismatch(workload, key, digest));
        self.verdict(problems);
    }

    /// `trace.library_ms`: a cold `shared_library` corpus build.
    fn probe_trace(&mut self) {
        let mut ms = Vec::new();
        for _ in 0..5 {
            oasis_trace::clear_trace_cache();
            let seed = self.rng.next_u64();
            let unit = self.unit();
            let (_, secs) =
                self.rec.measure("trace.shared_library", 0, unit, |_| shared_library(22, 17, seed));
            ms.push(secs * 1e3);
        }
        self.put("trace.library_ms", quantile(&ms, 0.5), "ms");
    }

    /// `cluster.*`: `ClusterSim::new` and `run_day` on paper days.
    fn probe_cluster_days(&mut self) {
        let seeds = self.pool_seeds(Kind::PaperDay, 5);
        // One untimed day warms the shared corpus, as set-up does, so
        // `ClusterSim::new` is timed on a warm corpus.
        simulate_day(paper_config(seeds[0]), Trace::OFF);
        let units: Vec<u32> = seeds.iter().map(|_| self.unit()).collect();
        let mut allocs = Vec::new();
        let mut counts = [0u64; 5];
        let mut checked = Vec::new();
        let spans = self.rec.capture(|| {
            for (&s, &unit) in seeds.iter().zip(&units) {
                let t = Trace { rec: Some(self.rec), parent: 0, unit };
                let (report, a) = simulate_day(paper_config(s), t);
                allocs.push(a);
                let m = &report.migrations;
                let powered: f64 = report.powered_hosts_series.points().iter().map(|p| p.1).sum();
                for (c, v) in counts.iter_mut().zip([
                    m.full,
                    m.partial,
                    m.exchanges,
                    report.decisions.total(),
                    powered.round() as u64,
                ]) {
                    *c += v;
                }
                checked.push((s, day_outcome(report)));
            }
        });
        for (s, o) in checked {
            self.check("paper_day", &s.to_string(), o.digest, o.problems);
        }
        let new_ms = span_ms(&spans, "cluster.new");
        let run_ms = span_ms(&spans, "cluster.run_day");
        let run_p50 = quantile(&run_ms, 0.5);
        let vm_intervals = f64::from(Scale::PAPER.total_vms()) * INTERVALS_PER_DAY as f64;
        self.put("cluster.new_ms_p50", quantile(&new_ms, 0.5), "ms");
        self.put("cluster.run_day_ms_p50", run_p50, "ms");
        self.put("cluster.ns_per_vm_interval.dense", run_p50 * 1e6 / vm_intervals, "ns");
        let n = allocs.len() as f64;
        self.put(
            "cluster.allocs_per_day",
            allocs.iter().map(|a| a.0).sum::<u64>() as f64 / n,
            "count",
        );
        let bytes = allocs.iter().map(|a| a.1).sum::<u64>() as f64 / n;
        self.put("cluster.alloc_mib_per_day", ByteSize::bytes(bytes as u64).as_mib_f64(), "MiB");
        for (name, c) in [
            "cluster.migrations_full",
            "cluster.migrations_partial",
            "cluster.exchanges",
            "cluster.decisions_total",
            "cluster.powered_host_intervals",
        ]
        .into_iter()
        .zip(counts)
        {
            self.put(name, c as f64, "count");
        }
    }

    /// `cluster.run_day_ms_p50.<policy>` and `pool.*`: Figure 8 cells on
    /// one worker, then the same cells on two.
    fn probe_figure8(&mut self) {
        let units = cells(&self.pool_seeds(Kind::Fig8Sweep, 2));
        let racks = WorkerPool::new(1);
        let first = self.next_unit + 1;
        self.next_unit += 2 * units.len() as u32;
        let second = first + units.len() as u32;
        let ((one, _), _) = self.rec.measure("pool.map", 0, first, |sweep| {
            run_batch(&WorkerPool::new(1), &units, &racks, self.pins, Some(self.rec), sweep, first)
        });
        let ((two, two_wall), _) = self.rec.measure("pool.map", 0, second, |sweep| {
            run_batch(&WorkerPool::new(2), &units, &racks, self.pins, Some(self.rec), sweep, second)
        });
        for (i, unit) in units.iter().enumerate() {
            let (a, b) = (&one[i].0, &two[i].0);
            self.verdict(a.problems.clone());
            let mut problems = b.problems.clone();
            if a.digest != b.digest {
                problems.push(format!("fig8 {}: 1 and 2 workers differ", unit.key()));
            }
            self.verdict(problems);
        }
        for policy in PolicyKind::FIGURE8 {
            let ms: Vec<f64> = units
                .iter()
                .zip(&one)
                .filter(|(u, _)| matches!(u, Unit::Cell(p, ..) if *p == policy))
                .map(|(_, o)| o.1 * 1e3)
                .collect();
            self.put(format!("cluster.run_day_ms_p50.{policy}"), quantile(&ms, 0.5), "ms");
        }
        let one_ms: Vec<f64> = one.iter().map(|o| o.1).collect();
        let two_ms: Vec<f64> = two.iter().map(|o| o.1).collect();
        self.put("pool.efficiency", two_ms.iter().sum::<f64>() / (2.0 * two_wall), "fraction");
        self.put("pool.cell_inflation", quantile(&two_ms, 0.5) / quantile(&one_ms, 0.5), "ratio");
    }

    /// `core.plan_*`: one planning round on each of 24 hourly §5.1 views
    /// (every VM at home) built from user days a seed samples from one
    /// seeded corpus.
    fn probe_planner(&mut self) {
        let library = shared_library(22, 17, PAPER_TRACE_SEED);
        let wss = IdleWssDistribution::jettison();
        let mut us = Vec::new();
        let mut actions = 0u64;
        for s in self.pool_seeds(Kind::PaperDay, 5) {
            let cfg = paper_config(s);
            let mut rng = SimRng::new(s ^ 0x9_1A77);
            let vms = cfg.total_vms() as usize;
            let users = sample_user_days(&library, DayKind::Weekday, vms, &mut rng);
            let partial: Vec<ByteSize> =
                (0..vms).map(|_| wss.sample(&mut rng, cfg.vm_allocation)).collect();
            let mut manager = ClusterManager::new(ManagerConfig::default(), s);
            let unit = self.unit();
            for hour in 0..24 {
                let view = hourly_view(&cfg, &users, &partial, hour * INTERVALS_PER_DAY / 24);
                let (plan, secs) = self.rec.measure("core.plan", 0, unit, |_| manager.plan(&view));
                us.push(secs * 1e6);
                actions += plan.len() as u64;
            }
        }
        self.put("core.plan_us_p50", quantile(&us, 0.5), "us");
        self.put("core.plan_us_p90", quantile(&us, 0.9), "us");
        self.put("core.plan_actions", actions as f64, "count");
    }

    /// `core.rebalance_*`: the epoch planner on a 500-rack load vector.
    fn probe_rebalance(&mut self) {
        let capacity = ByteSize::gib(32);
        let loads: Vec<RackLoad> = (0..DC_SCALE.racks)
            .map(|rack| RackLoad {
                rack,
                cons_hosts: 1,
                cons_capacity: capacity,
                base_capacity: capacity,
                cons_demand: capacity.mul_f64(self.rng.range_f64(0.0, 1.2)),
            })
            .collect();
        let unit = self.unit();
        let mut us = Vec::new();
        let mut grants = 0;
        for _ in 0..200 {
            let (g, secs) =
                self.rec.measure("core.plan_rebalance", 0, unit, |_| plan_rebalance(&loads));
            us.push(secs * 1e6);
            grants = g.len();
        }
        self.put("core.rebalance_us", quantile(&us, 0.5), "us");
        self.put("core.rebalance_grants", grants as f64, "count");
    }

    /// `shard.*`: every rack of two datacenter days run alone, then the
    /// sharded day with the local and with the global planner.
    fn probe_shard(&mut self) {
        let racks = WorkerPool::new(1);
        let vms = DC_SCALE.total_vms() as f64;
        let mut rack_ms = Vec::new();
        let (mut overhead, mut global_extra, mut heap, mut run_day_ns) = (0.0, 0.0, 0.0, 0.0);
        let seeds = self.pool_seeds(Kind::DcDay, 2);
        for &s in &seeds {
            let dc = DatacenterConfig::at(DC_SCALE, PolicyKind::FullToPartial, DayKind::Weekday, s);
            let mut alone = Vec::new();
            let unit = self.unit();
            let spans = self.rec.capture(|| {
                for r in 0..dc.racks {
                    let cfg = rack_config(&dc.base, r);
                    let (report, secs) = self.rec.measure("shard.rack_day", 0, unit, |id| {
                        simulate_day(cfg, Trace { rec: Some(self.rec), parent: id, unit }).0
                    });
                    rack_ms.push(secs * 1e3);
                    alone.push((day_outcome(report).digest, secs));
                }
            });
            let racks_secs: f64 = alone.iter().map(|a| a.1).sum();
            run_day_ns += span_ms(&spans, "cluster.run_day").iter().sum::<f64>() * 1e6
                / (vms * INTERVALS_PER_DAY as f64);

            let unit = self.unit();
            let (local, local_secs) = self.rec.measure("shard.run_datacenter_on", 0, unit, |_| {
                run_datacenter_on(&racks, DC_SCALE, PlannerScope::Local, s)
            });
            for (r, report) in local.rack_reports.into_iter().enumerate() {
                let same = day_outcome(report).digest == alone[r].0;
                let msg = || format!("dc {s} rack {r}: local day differs from the rack alone");
                self.verdict((!same).then(msg).into_iter().collect());
            }
            let before = alloc::live_bytes();
            alloc::reset_peak();
            let unit = self.unit();
            let (global, global_secs) =
                self.rec.measure("shard.run_datacenter_on", 0, unit, |_| {
                    run_datacenter_on(&racks, DC_SCALE, PlannerScope::Global, s)
                });
            heap += alloc::peak_bytes().saturating_sub(before) as f64;
            let o = dc_outcome(global);
            self.check("dc_day", &s.to_string(), o.digest, o.problems);
            overhead += (local_secs - racks_secs) * 1e3;
            global_extra += (global_secs - local_secs) * 1e3;
        }
        let n = seeds.len() as f64;
        self.put("cluster.ns_per_vm_interval.sparse", run_day_ns / n, "ns");
        self.put("shard.rack_day_ms_p50", quantile(&rack_ms, 0.5), "ms");
        self.put("shard.rack_day_ms_p99", quantile(&rack_ms, 0.99), "ms");
        self.put("shard.driver_overhead_ms", overhead / n, "ms");
        self.put("shard.global_planner_ms", global_extra / n, "ms");
        self.put("shard.heap_bytes_per_vm", heap / n / vms, "B");
    }

    /// `migration.*`: the micro-lab flow, one span per lab method.
    fn probe_lab(&mut self) {
        let mut counts = [0u64; 3];
        let mut checked = Vec::new();
        let seeds = self.pool_seeds(Kind::MicroLab, 5);
        let units: Vec<u32> = seeds.iter().map(|_| self.unit()).collect();
        let spans = self.rec.capture(|| {
            for (&s, &unit) in seeds.iter().zip(&units) {
                let t = Trace { rec: Some(self.rec), parent: 0, unit };
                let run = lab_flow(s, t);
                for (a, b) in counts.iter_mut().zip(run.idle_counts()) {
                    *a += b;
                }
                checked.push((s, run));
            }
        });
        for (s, run) in checked {
            let o = lab_outcome(&run);
            self.check("micro_lab", &s.to_string(), o.digest, o.problems);
        }
        for (metric, span) in [
            ("migration.lab_new_ms", "migration.lab_new"),
            ("migration.prime_os_ms", "migration.prime_os"),
            ("migration.run_workload_ms", "migration.run_workload"),
            ("migration.idle_wait_ms", "migration.idle_wait"),
            ("migration.full_migrate_ms", "migration.full_migrate"),
            ("migration.partial_migrate_ms", "migration.partial_migrate"),
            ("migration.partial_migrate_diff_ms", "migration.partial_migrate_diff"),
            ("migration.consolidated_idle_ms", "migration.consolidated_idle"),
            ("migration.reintegrate_ms", "migration.reintegrate"),
        ] {
            self.put(metric, quantile(&span_ms(&spans, span), 0.5), "ms");
        }
        self.put("migration.idle_faults", counts[0] as f64, "count");
        self.put("migration.fetched_mib", ByteSize::bytes(counts[1]).as_mib_f64(), "MiB");
        self.put("migration.dirty_pages", counts[2] as f64, "count");
    }

    /// `mem.*`: the page compressor on desktop-mix pages, and page-table
    /// touches over a 4 GiB VM in seeded order.
    fn probe_mem(&mut self) {
        let mix = PageMix::desktop();
        let pages: Vec<Vec<u8>> = (0..2048)
            .map(|_| {
                let class = mix.sample(&mut self.rng);
                class.synthesize(self.rng.next_u64())
            })
            .collect();
        let raw = ByteSize::bytes(pages.iter().map(|p| p.len() as u64).sum());
        let unit = self.unit();
        let (mut c_secs, mut d_secs) = (Vec::new(), Vec::new());
        let mut packed = Vec::new();
        for _ in 0..3 {
            let (p, secs) = self.rec.measure("mem.compress", 0, unit, |_| {
                pages.iter().map(|p| compress(p)).collect::<Vec<_>>()
            });
            c_secs.push(secs);
            packed = p;
            let (back, secs) = self.rec.measure("mem.decompress", 0, unit, |_| {
                packed.iter().map(|c| decompress(c)).collect::<Vec<_>>()
            });
            d_secs.push(secs);
            let lossy = back.iter().zip(&pages).any(|(b, p)| b.as_ref().ok() != Some(p));
            self.verdict(
                lossy
                    .then(|| "mem: decompress did not restore a page".into())
                    .into_iter()
                    .collect(),
            );
        }
        let packed_bytes: u64 = packed.iter().map(|c| c.len() as u64).sum();
        self.put("mem.compress_mib_per_s", raw.as_mib_f64() / quantile(&c_secs, 0.5), "MiB/s");
        self.put("mem.decompress_mib_per_s", raw.as_mib_f64() / quantile(&d_secs, 0.5), "MiB/s");
        self.put("mem.compress_ratio", packed_bytes as f64 / raw.as_bytes() as f64, "ratio");

        let n = ByteSize::gib(4).pages(PAGE_SIZE);
        let mut order: Vec<u64> = (0..n).collect();
        self.rng.shuffle(&mut order);
        let writes: Vec<bool> = (0..n).map(|_| self.rng.chance(0.3)).collect();
        let mut table = PageTable::new_resident(n);
        let unit = self.unit();
        let (errors, secs) = self.rec.measure("mem.page_touch", 0, unit, |_| {
            order.iter().zip(&writes).filter(|(&p, &w)| table.touch(PageNum(p), w).is_err()).count()
        });
        self.verdict(
            (errors > 0)
                .then(|| format!("mem: {errors} page touches failed"))
                .into_iter()
                .collect(),
        );
        self.put("mem.page_touch_ns", secs * 1e9 / n as f64, "ns");
    }
}

/// Millisecond durations of the spans named `name`.
fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.secs() * 1e3).collect()
}

/// The §5.1 rack at interval `at` of the day: every VM at home, active
/// or idle as its sampled user day says.
fn hourly_view(
    cfg: &ClusterConfig,
    users: &[oasis_trace::UserDay],
    partial: &[ByteSize],
    at: usize,
) -> ClusterView {
    let capacity = cfg.effective_capacity();
    let homes = cfg.home_hosts;
    let hosts = (0..homes + cfg.consolidation_hosts)
        .map(|h| HostView {
            id: HostId(h),
            role: if h < homes { HostRole::Compute } else { HostRole::Consolidation },
            powered: h < homes,
            vacatable: true,
            capacity,
        })
        .collect();
    let vms = users
        .iter()
        .zip(partial)
        .enumerate()
        .map(|(v, (day, &partial_demand))| {
            let home = HostId(v as u32 / cfg.vms_per_host);
            VmView {
                id: VmId(v as u32),
                home,
                location: home,
                state: if day.is_active(at) { VmState::Active } else { VmState::Idle },
                allocation: cfg.vm_allocation,
                demand: cfg.vm_allocation,
                partial_demand,
                partial: false,
            }
        })
        .collect();
    let mut view = ClusterView { hosts, vms, host_demand: Vec::new() };
    view.rebuild_host_demand();
    view
}
