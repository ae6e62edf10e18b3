//! The scenario library's golden regression suite.
//!
//! Every registered scenario's [`ScenarioReport`] digest is pinned
//! byte-for-byte per seed, and (for the sharded scenario) the same
//! bytes must come out of any worker count. A planner, accounting, fault-recovery,
//! or shard-driver change that shifts observable behaviour fails here
//! by name — with the `guards` line saying what was being protected.
//!
//! Regenerating after an *intentional* behaviour change: run the
//! ignored `print_golden_digests` test with `--nocapture` and paste the
//! printed table over `GOLDEN`.
//!
//! The suite also carries the property battery (satellite: integrity,
//! ledger re-sum, generation-split exactness) and the homogeneous
//! collapse differential test.

use oasis_cluster::scenarios::{self, run_scenario_on, SLA_THRESHOLD_SECS};
use oasis_cluster::sim::ClusterSim;
use oasis_sim::pool::WorkerPool;

const SEEDS: [u64; 3] = [1, 2, 3];

/// The pinned digests: `(scenario, seed, digest bytes)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, &str)] = &[
    // GENERATED — run `print_golden_digests` to refresh.
    ("mixed_fleet", 1, "scenario=mixed_fleet seed=1 racks=1 hosts=8 vms=60 baseline_kwh=15.402641 total_kwh=10.032958 savings=34.86% sla_violations=10 migration_bytes=3258287414156 faults=0 recoveries=0 reboots=0 gen[table1]=9717612900mj/3hosts gen[lowpower]=15448489100mj/3hosts gen[legacy]=10952546980mj/2hosts"),
    ("mixed_fleet", 2, "scenario=mixed_fleet seed=2 racks=1 hosts=8 vms=60 baseline_kwh=15.381433 total_kwh=10.009696 savings=34.92% sla_violations=15 migration_bytes=3015148096701 faults=0 recoveries=0 reboots=0 gen[table1]=9725185980mj/3hosts gen[lowpower]=15361616950mj/3hosts gen[legacy]=10948101300mj/2hosts"),
    ("mixed_fleet", 3, "scenario=mixed_fleet seed=3 racks=1 hosts=8 vms=60 baseline_kwh=15.413427 total_kwh=10.025270 savings=34.96% sla_violations=12 migration_bytes=2951429026818 faults=0 recoveries=0 reboots=0 gen[table1]=9712344380mj/3hosts gen[lowpower]=15442445650mj/3hosts gen[legacy]=10936182520mj/2hosts"),
    ("green_refresh", 1, "scenario=green_refresh seed=1 racks=1 hosts=8 vms=60 baseline_kwh=12.450236 total_kwh=9.547648 savings=23.31% sla_violations=10 migration_bytes=3268116618585 faults=0 recoveries=0 reboots=0 gen[table1]=14597344230mj/4hosts gen[lowpower]=19774189190mj/4hosts"),
    ("green_refresh", 2, "scenario=green_refresh seed=2 racks=1 hosts=8 vms=60 baseline_kwh=12.414196 total_kwh=9.514956 savings=23.35% sla_violations=15 migration_bytes=3025338616770 faults=0 recoveries=0 reboots=0 gen[table1]=14548678030mj/4hosts gen[lowpower]=19705164940mj/4hosts"),
    ("green_refresh", 3, "scenario=green_refresh seed=3 racks=1 hosts=8 vms=60 baseline_kwh=12.442195 total_kwh=9.537266 savings=23.35% sla_violations=12 migration_bytes=2958502245421 faults=0 recoveries=0 reboots=0 gen[table1]=14557535270mj/4hosts gen[lowpower]=19776622740mj/4hosts"),
    ("flash_crowd", 1, "scenario=flash_crowd seed=1 racks=1 hosts=8 vms=60 baseline_kwh=15.309866 total_kwh=11.170306 savings=27.04% sla_violations=30 migration_bytes=3109398549670 faults=0 recoveries=0 reboots=0 gen[uniform]=40213100500mj/8hosts"),
    ("flash_crowd", 2, "scenario=flash_crowd seed=2 racks=1 hosts=8 vms=60 baseline_kwh=15.286215 total_kwh=11.056027 savings=27.67% sla_violations=42 migration_bytes=3121587525602 faults=0 recoveries=0 reboots=0 gen[uniform]=39801697460mj/8hosts"),
    ("flash_crowd", 3, "scenario=flash_crowd seed=3 racks=1 hosts=8 vms=60 baseline_kwh=15.303619 total_kwh=11.073525 savings=27.64% sla_violations=36 migration_bytes=2909566987140 faults=0 recoveries=0 reboots=0 gen[uniform]=39864688940mj/8hosts"),
    ("regional_outage", 1, "scenario=regional_outage seed=1 racks=1 hosts=8 vms=60 baseline_kwh=15.222252 total_kwh=10.885025 savings=28.49% sla_violations=10 migration_bytes=3136188486863 faults=4 recoveries=12 reboots=0 gen[uniform]=39186089860mj/8hosts"),
    ("regional_outage", 2, "scenario=regional_outage seed=2 racks=1 hosts=8 vms=60 baseline_kwh=15.191610 total_kwh=10.846141 savings=28.60% sla_violations=13 migration_bytes=2964836202949 faults=4 recoveries=12 reboots=0 gen[uniform]=39046109300mj/8hosts"),
    ("regional_outage", 3, "scenario=regional_outage seed=3 racks=1 hosts=8 vms=60 baseline_kwh=15.225376 total_kwh=10.874127 savings=28.58% sla_violations=11 migration_bytes=2851002548275 faults=4 recoveries=13 reboots=0 gen[uniform]=39146857480mj/8hosts"),
    ("patch_window", 1, "scenario=patch_window seed=1 racks=1 hosts=8 vms=60 baseline_kwh=15.222252 total_kwh=11.079829 savings=27.21% sla_violations=12 migration_bytes=3258287414156 faults=0 recoveries=0 reboots=8 gen[uniform]=39887383580mj/8hosts"),
    ("patch_window", 2, "scenario=patch_window seed=2 racks=1 hosts=8 vms=60 baseline_kwh=15.191610 total_kwh=11.037259 savings=27.35% sla_violations=17 migration_bytes=3015148096701 faults=0 recoveries=0 reboots=8 gen[uniform]=39734133020mj/8hosts"),
    ("patch_window", 3, "scenario=patch_window seed=3 racks=1 hosts=8 vms=60 baseline_kwh=15.225376 total_kwh=11.067742 savings=27.31% sla_violations=13 migration_bytes=2951429026818 faults=0 recoveries=0 reboots=8 gen[uniform]=39843870320mj/8hosts"),
    ("follow_the_sun", 1, "scenario=follow_the_sun seed=1 racks=3 hosts=24 vms=180 baseline_kwh=45.690409 total_kwh=33.178065 savings=27.39% sla_violations=32 migration_bytes=9287754240532 faults=0 recoveries=0 reboots=0 gen[uniform]=119441034640mj/24hosts"),
    ("follow_the_sun", 2, "scenario=follow_the_sun seed=2 racks=3 hosts=24 vms=180 baseline_kwh=45.588366 total_kwh=33.067955 savings=27.46% sla_violations=33 migration_bytes=9098018826994 faults=0 recoveries=0 reboots=0 gen[uniform]=119044638840mj/24hosts"),
    ("follow_the_sun", 3, "scenario=follow_the_sun seed=3 racks=3 hosts=24 vms=180 baseline_kwh=45.654411 total_kwh=33.133680 savings=27.43% sla_violations=34 migration_bytes=9095954683557 faults=0 recoveries=0 reboots=0 gen[uniform]=119281248560mj/24hosts"),
];

fn golden_for(name: &str, seed: u64) -> &'static str {
    GOLDEN
        .iter()
        .find(|(n, s, _)| *n == name && *s == seed)
        .unwrap_or_else(|| panic!("no golden digest for {name} seed {seed}"))
        .2
}

/// Locks one scenario's digest for every seed against the pinned bytes.
fn lock_scenario(name: &str) {
    let spec = scenarios::find(name).expect("scenario registered");
    let pool = WorkerPool::new(2);
    for seed in SEEDS {
        let report = run_scenario_on(&pool, &spec, seed).expect("scenario runs");
        assert_eq!(
            report.digest(),
            golden_for(name, seed),
            "{name} seed {seed} drifted\n  guards: {}",
            spec.guards
        );
    }
}

#[test]
fn mixed_fleet_digest_is_golden() {
    lock_scenario("mixed_fleet");
}

#[test]
fn green_refresh_digest_is_golden() {
    lock_scenario("green_refresh");
}

#[test]
fn flash_crowd_digest_is_golden() {
    lock_scenario("flash_crowd");
}

#[test]
fn regional_outage_digest_is_golden() {
    lock_scenario("regional_outage");
}

#[test]
fn patch_window_digest_is_golden() {
    lock_scenario("patch_window");
}

#[test]
fn follow_the_sun_digest_is_golden() {
    lock_scenario("follow_the_sun");
}

/// Worker counts must not leak into the sharded scenario's bytes: the
/// same digest comes out of a serial pool and a parallel one.
#[test]
fn follow_the_sun_is_jobs_invariant() {
    let spec = scenarios::find("follow_the_sun").unwrap();
    for seed in SEEDS {
        let expect = golden_for("follow_the_sun", seed);
        for jobs in [1, 2, 4] {
            let pool = WorkerPool::new(jobs);
            let report = run_scenario_on(&pool, &spec, seed).unwrap();
            assert_eq!(report.digest(), expect, "jobs={jobs} changed the bytes at seed {seed}");
        }
    }
}

/// Satellite: a scenario with a single host generation and a single VM
/// class must reproduce the plain homogeneous `run_day` report
/// byte-for-byte — the scenario plumbing collapses away.
#[test]
fn homogeneous_scenario_collapses_to_plain_run_day() {
    let spec = oasis_cluster::ScenarioSpec::smoke("collapse_probe", "scenario plumbing is free");
    for seed in SEEDS {
        let scenario_report = ClusterSim::new(spec.cluster_config(seed).unwrap()).run_day();
        let plain = ClusterSim::new(
            oasis_cluster::ClusterConfig::builder()
                .home_hosts(spec.home_hosts)
                .consolidation_hosts(spec.consolidation_hosts)
                .vms_per_host(spec.vms_per_host)
                .policy(spec.policy)
                .day(spec.day)
                .host_memory(spec.host_memory)
                .seed(seed)
                .build()
                .unwrap(),
        )
        .run_day();
        assert_eq!(
            format!("{scenario_report:?}"),
            format!("{plain:?}"),
            "seed {seed}: scenario config is not a no-op over the plain day"
        );
    }
}

/// Satellite property battery, every scenario × seeds 1–3:
/// 1. the final placements pass every structural integrity check;
/// 2. the integer-millijoule ledger re-sums to the float meter within
///    1e-6 kWh;
/// 3. the per-generation split sums exactly to the fleet ledger total
///    and covers every host.
#[test]
fn scenario_properties_hold_for_every_seed() {
    let pool = WorkerPool::new(2);
    for spec in scenarios::all() {
        for seed in SEEDS {
            let digest = run_scenario_on(&pool, &spec, seed).unwrap();
            // Exactness of the split: integer sums, no remainder lost.
            let ledger_total: u64 = digest.generations.iter().map(|g| g.total_mj).sum();
            assert_eq!(
                digest.generations.iter().map(|g| g.hosts).sum::<u32>(),
                digest.hosts,
                "{}: generation split must cover every host",
                spec.name
            );

            // Per-rack checks need the full reports.
            let mut fleet_mj = 0u64;
            let racks = spec.racks.max(1);
            for rack in 0..racks {
                let mut cfg = spec.cluster_config(seed).unwrap();
                if racks > 1 {
                    cfg = oasis_cluster::rack_config(&cfg, rack);
                }
                let mut report = ClusterSim::new(cfg).run_day();
                assert_eq!(
                    report.integrity_violations(),
                    Vec::<String>::new(),
                    "{} seed {seed} rack {rack}: integrity violated",
                    spec.name
                );
                let ledger_kwh =
                    report.energy.total_mj() as f64 / 1_000.0 / oasis_power::meter::JOULES_PER_KWH;
                assert!(
                    (ledger_kwh - report.total_kwh).abs() < 1e-6,
                    "{} seed {seed} rack {rack}: ledger {ledger_kwh} vs meter {}",
                    spec.name,
                    report.total_kwh
                );
                fleet_mj += report.energy.total_mj();
                let _ = report.sla_violations(SLA_THRESHOLD_SECS);
            }
            assert_eq!(
                ledger_total, fleet_mj,
                "{} seed {seed}: generation split does not re-sum to the fleet ledger",
                spec.name
            );
        }
    }
}

/// Regenerates the `GOLDEN` table. `cargo test -p oasis-cluster --test
/// scenario_golden -- --ignored --nocapture print_golden_digests`.
#[test]
#[ignore]
fn print_golden_digests() {
    let pool = WorkerPool::new(2);
    for spec in scenarios::all() {
        for seed in SEEDS {
            let report = run_scenario_on(&pool, &spec, seed).unwrap();
            println!("    (\"{}\", {}, \"{}\"),", spec.name, seed, report.digest());
        }
    }
}
