//! §5's simulation of the 900-VM rack (Figures 7–12, Table 3), and
//! studies beyond the paper on the same rack: baselines, a whole week,
//! fault injection, other server populations and the manager's knobs.

use super::lab::cycle;
use crate::chart::{cdf_plot, column_chart, downsample};
use crate::{pct, pct_pm};
use oasis_cluster::experiments::{
    figure10, figure11, figure12, figure7, figure8, figure9, run_one, run_week, CONS_SWEEP,
};
use oasis_cluster::{ClusterConfig, ClusterConfigBuilder, ClusterSim, SimReport};
use oasis_core::{PlacementStrategy, PolicyKind};
use oasis_migration::lab::LabOptions;
use oasis_net::TrafficClass;
use oasis_sim::SimDuration;
use oasis_trace::DayKind;
use oasis_vm::workload::WorkloadClass;

pub(super) fn fig07(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Figure 7: active VMs and powered hosts over a day (FulltoPartial)");
    for day in [DayKind::Weekday, DayKind::Weekend] {
        let r = figure7(day, 1);
        outln!(out, "--- {:?} ---", day);
        outln!(out, "{:>8} {:>11} {:>14}", "time", "active VMs", "powered hosts");
        let active = r.active_vms_series.points();
        let powered = r.powered_hosts_series.points();
        for i in (0..active.len()).step_by(6) {
            let (t, a) = active[i];
            let (_, p) = powered[i];
            outln!(out, "{:>8} {a:>11.0} {p:>14.0}", t.to_string());
        }
        let (peak, vms) = (r.active_vms_series.max().unwrap_or(0.0), r.vms);
        let low = powered.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
        let held = 100.0 * peak / f64::from(vms);
        outln!(
            out,
            "peak active: {peak:.0} of {vms} VMs ({held:.0}%); min powered hosts: {low:.0}"
        );
        for (series, height, label) in [(active, 8, "active VMs"), (powered, 6, "powered hosts")] {
            let values: Vec<f64> = series.iter().map(|&(_, v)| v).collect();
            let label = format!("{label} (00:00 → 24:00)");
            outln!(out);
            out.push_str(&column_chart(&downsample(&values, 72), height, &label));
        }
    }
    outln!(out, "paper: peak 411 active VMs (46%), diurnal pattern with the");
    outln!(out, "       trough at 06:30; at minimum all 900 VMs fit 3 hosts.");
    out
}

pub(super) fn fig08(runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Figure 8: energy savings vs consolidation hosts");
    outln!(out, "({runs} runs per point; set OASIS_RUNS to change)");
    for day in [DayKind::Weekday, DayKind::Weekend] {
        outln!(out, "--- {day:?} ---");
        let points = figure8(day, runs);
        let mut header = format!("{:<16}", "policy \\ cons#");
        for cons in CONS_SWEEP {
            header.push_str(&format!("{cons:>14}"));
        }
        outln!(out, "{header}");
        let mut current = None;
        let mut row = String::new();
        for p in points {
            if current != Some(p.policy) {
                if current.is_some() {
                    outln!(out, "{row}");
                }
                row = format!("{:<16}", p.policy.to_string());
                current = Some(p.policy);
            }
            row.push_str(&format!("{:>14}", pct_pm(p.mean, p.std_dev)));
        }
        outln!(out, "{row}");
    }
    outln!(out, "paper: FulltoPartial reaches 28% (weekday) / 43% (weekend) at 4");
    outln!(out, "       consolidation hosts; OnlyPartial ~6%; Default marginal;");
    outln!(out, "       NewHome adds nothing over FulltoPartial.");
    out
}

pub(super) fn fig09(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Figure 9: CDF of VMs per consolidation host (weekday)");
    let mut results = figure9(DayKind::Weekday, 1);
    outln!(out, "policy              p10    p25    p50    p75    p90    max");
    for (policy, report) in &mut results {
        let mut row = format!("{:<16}", policy.to_string());
        for p in [0.10, 0.25, 0.50, 0.75, 0.90, 1.0] {
            let q = report.consolidation_ratio.quantile(p).unwrap_or(0.0);
            row.push_str(&format!(" {q:>6.0}"));
        }
        outln!(out, "{row}");
    }
    outln!(out);
    outln!(out, "full curves (20 points each):");
    for (policy, report) in &mut results {
        let curve = report.consolidation_ratio.curve(20);
        let mut row = format!("{:<16}", policy.to_string());
        for (v, _) in curve {
            row.push_str(&format!(" {v:>4.0}"));
        }
        outln!(out, "{row}");
    }
    outln!(out);
    for (policy, report) in &mut results {
        outln!(out, "{policy} CDF (x: VMs per host, y: fraction of samples):");
        let curve = report.consolidation_ratio.curve(40);
        out.push_str(&cdf_plot(&curve, 60, 8));
    }
    outln!(out, "paper: median 60 (Default) -> 93 (FulltoPartial); NewHome overlaps.");
    out
}

pub(super) fn fig10(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Figure 10: weekday data transfer breakdown (GiB)");
    outln!(out, "policy                full     descr     fetch     reint   net total       SAS");
    for (policy, report) in figure10(1) {
        let t = &report.traffic;
        outln!(
            out,
            "{:<16} {:>9.1} {:>9.2} {:>9.2} {:>9.1} {:>11.1} {:>9.1}",
            policy.to_string(),
            t.total(TrafficClass::FullMigration).as_gib_f64(),
            t.total(TrafficClass::PartialDescriptor).as_gib_f64(),
            t.total(TrafficClass::DemandFetch).as_gib_f64(),
            t.total(TrafficClass::Reintegration).as_gib_f64(),
            t.network_total().as_gib_f64(),
            t.total(TrafficClass::MemServerUpload).as_gib_f64(),
        );
    }
    outln!(out, "(SAS uploads stay on the host-local drive path, §4.3)");
    outln!(out, "paper: FulltoPartial increases both partial and full migration");
    outln!(out, "       traffic — an acceptable trade within a rack.");
    out
}

pub(super) fn fig11(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Figure 11: idle→active transition delays (weekday)");
    outln!(out, "cons#      zero%      p50      p90      p99    p99.99      max");
    for (cons, mut report) in figure11(DayKind::Weekday, 1) {
        let mut row = format!("{cons:<7} {:>7.1}%", 100.0 * report.zero_delay_fraction());
        for (p, width) in [(0.50, 7), (0.90, 7), (0.99, 7), (0.9999, 8), (1.0, 7)] {
            let q = report.transition_delays.quantile(p).unwrap_or(0.0);
            row.push_str(&format!(" {q:>width$.1}s"));
        }
        outln!(out, "{row}");
    }
    outln!(out, "paper: zero-delay 75% -> 38% as hosts grow 2 -> 12; partial");
    outln!(out, "       transitions < 4 s typical, 19 s at the 99.99th percentile.");
    out
}

pub(super) fn table3(runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Table 3: alternative memory-server power budgets");
    outln!(out, "({runs} runs per cell)");
    outln!(out, "{:<22} {:>10} {:>10}", "memory server", "weekday", "weekend");
    for (watts, weekday, weekend) in oasis_cluster::experiments::table3(runs) {
        let label = if (watts - 42.2).abs() < 1e-9 {
            "prototype (42.2 W)".to_string()
        } else {
            format!("{watts:.0} W")
        };
        outln!(out, "{label:<22} {:>10} {:>10}", pct(weekday), pct(weekend));
    }
    outln!(out, "paper: 28%/43% at 42.2 W rising to 41%/68% at 1 W.");
    out
}

pub(super) fn fig12(runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Figure 12: sensitivity to cluster size (900 VMs, FulltoPartial)");
    outln!(out, "({runs} runs per point)");
    for day in [DayKind::Weekday, DayKind::Weekend] {
        outln!(out, "--- {day:?} ---");
        outln!(out, "{:<14} {:>10} {:>16}", "homes+cons", "VMs/host", "savings");
        for (homes, cons, vms_per_host, mean, std) in figure12(day, runs) {
            outln!(
                out,
                "{:<14} {vms_per_host:>10} {:>16}",
                format!("{homes}+{cons}"),
                pct_pm(mean, std)
            );
        }
    }
    outln!(out, "paper: savings are similar regardless of VM packing density.");
    out
}

/// Simulates one seed-1 FulltoPartial day on the §5.1 rack, with `tweak`
/// applied to the configuration.
fn ftp_day(
    day: DayKind,
    tweak: impl FnOnce(ClusterConfigBuilder) -> ClusterConfigBuilder,
) -> SimReport {
    let builder = ClusterConfig::builder().policy(PolicyKind::FullToPartial).day(day).seed(1);
    ClusterSim::new(tweak(builder).build().expect("valid configuration")).run_day()
}

fn savings(r: &SimReport) -> String {
    pct(r.energy_savings)
}

fn net_gib(r: &SimReport) -> f64 {
    r.network_bytes().as_gib_f64()
}

pub(super) fn baselines(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Baselines: hybrid consolidation vs prior approaches");
    outln!(out, "policy              weekday    weekend    full#  partial#   net GiB");
    for policy in PolicyKind::ALL {
        let wd = run_one(policy, DayKind::Weekday, 4, 1);
        let we = run_one(policy, DayKind::Weekend, 4, 1);
        let (policy, weekday, weekend) = (policy.to_string(), savings(&wd), savings(&we));
        let (full, partial, gib) = (wd.migrations.full, wd.migrations.partial, net_gib(&wd));
        outln!(out, "{policy:<16} {weekday:>10} {weekend:>10} {full:>8} {partial:>9} {gib:>9.0}");
    }
    outln!(out, "full-VM-only consolidation is capacity-bound at 4 GiB per VM;");
    outln!(out, "the hybrid policies fit an order of magnitude more idle VMs.");
    out
}

pub(super) fn week(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Week: seven consecutive simulated days per policy");
    outln!(out, "policy            weekdays   weekend      week    baseline     managed");
    for policy in PolicyKind::FIGURE8 {
        let cfg =
            ClusterConfig::builder().policy(policy).seed(1).build().expect("valid configuration");
        let week = run_week(&cfg);
        let wd = pct(week.days[..5].iter().map(|d| d.energy_savings).sum::<f64>() / 5.0);
        let we = pct(week.days[5..].iter().map(|d| d.energy_savings).sum::<f64>() / 2.0);
        let (policy, all, base, managed) =
            (policy.to_string(), pct(week.savings), week.baseline_kwh, week.total_kwh);
        outln!(out, "{policy:<16} {wd:>9} {we:>9} {all:>9} {base:>8.1}kWh {managed:>8.1}kWh");
    }
    out
}

pub(super) fn fault_injection(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Fault injection: lossy page requests and Wake-on-LAN");

    outln!(out, "-- memory-server request loss (20-minute consolidated idle) --");
    outln!(out, "{:<12} {:>8} {:>9} {:>12}", "loss rate", "faults", "retries", "extra time");
    for rate in [0.0, 0.01, 0.05, 0.10, 0.25] {
        let idle = cycle(1, LabOptions { serve_error_rate: rate, ..LabOptions::default() }).idle;
        let (loss, retry_secs) = (format!("{:.0}%", rate * 100.0), idle.retry_time.as_secs_f64());
        outln!(out, "{loss:<12} {:>8} {:>9} {retry_secs:>11.1}s", idle.faults, idle.retries);
    }

    outln!(out);
    outln!(out, "-- Wake-on-LAN loss (FulltoPartial weekday, paper scale) --");
    outln!(out, "{:<12} {:>9} {:>12} {:>10}", "loss rate", "savings", "WoL retries", "p99 delay");
    for rate in [0.0, 0.05, 0.20, 0.50] {
        let mut r = ftp_day(DayKind::Weekday, |b| b.wol_loss_rate(rate));
        let (loss, p99) = (format!("{:.0}%", rate * 100.0), r.transition_delays.quantile(0.99));
        let (saved, retries) = (savings(&r), r.migrations.wol_retries);
        outln!(out, "{loss:<12} {saved:>9} {retries:>12} {:>9.1}s", p99.unwrap_or(0.0));
    }
    outln!(out, "Oasis degrades gracefully: retries cost user latency, never");
    outln!(out, "correctness, and savings are insensitive to moderate loss.");
    out
}

pub(super) fn server_farm(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== §5.6: generality: VDI vs server farm vs cloud services");
    let populations: [(&str, Vec<(WorkloadClass, f64)>); 3] = [
        ("VDI farm (all desktop)", vec![(WorkloadClass::Desktop, 1.0)]),
        (
            "server farm (web+db)",
            vec![(WorkloadClass::WebServer, 0.5), (WorkloadClass::Database, 0.5)],
        ),
        (
            "cloud services (nodes)",
            vec![(WorkloadClass::ClusterNode, 0.8), (WorkloadClass::Database, 0.2)],
        ),
    ];
    outln!(out, "population                   weekday   weekend   SAS upload    net GiB");
    for (label, mix) in populations {
        let wd = ftp_day(DayKind::Weekday, |b| b.workload_mix(mix.clone()));
        let we = ftp_day(DayKind::Weekend, |b| b.workload_mix(mix));
        let sas = wd.traffic.total(TrafficClass::MemServerUpload).as_gib_f64();
        let (weekday, weekend, gib) = (savings(&wd), savings(&we), net_gib(&wd));
        outln!(out, "{label:<26} {weekday:>9} {weekend:>9} {sas:>9.1} GiB {gib:>10.0}");
    }
    outln!(out, "paper: idle desktops are the most demanding class (Figure 1), so");
    outln!(out, "       server fleets should consolidate at least as well.");
    out
}

pub(super) fn ablation_interval(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Ablation: planning-interval length (FulltoPartial, weekday)");
    outln!(out, "{:<12} {:>10} {:>12} {:>10}", "interval", "savings", "migrations", "returns");
    for mins in [5u64, 10, 15, 30, 60] {
        let r = ftp_day(DayKind::Weekday, |b| b.interval(SimDuration::from_mins(mins)));
        let (interval, saved) = (format!("{mins} min"), savings(&r));
        let (migrations, returns) =
            (r.migrations.partial + r.migrations.full, r.migrations.returns_home);
        outln!(out, "{interval:<12} {saved:>10} {migrations:>12} {returns:>10}");
    }
    out
}

pub(super) fn ablation_cooldown(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Ablation: vacate cooldown after ReturnHome (FulltoPartial)");
    for day in [DayKind::Weekday, DayKind::Weekend] {
        outln!(out, "--- {day:?} ---");
        outln!(out, "{:<12} {:>10} {:>10} {:>12}", "cooldown", "savings", "returns", "partials");
        for mins in [0u64, 5, 15, 30, 60] {
            let r = ftp_day(day, |b| b.vacate_cooldown(SimDuration::from_mins(mins)));
            let (cooldown, saved) = (format!("{mins} min"), savings(&r));
            let (returns, partials) = (r.migrations.returns_home, r.migrations.partial);
            outln!(out, "{cooldown:<12} {saved:>10} {returns:>10} {partials:>12}");
        }
    }
    out
}

pub(super) fn ablation_placement(_runs: u64) -> String {
    let mut out = String::new();
    outln!(out, "== Ablation: placement strategy (FulltoPartial)");
    outln!(out, "strategy     weekday   weekend   migrations p50 ratio");
    for (name, strategy) in [
        ("Random", PlacementStrategy::Random),
        ("BestFit", PlacementStrategy::BestFit),
        ("WorstFit", PlacementStrategy::WorstFit),
        ("FirstFit", PlacementStrategy::FirstFit),
    ] {
        let mut wd = ftp_day(DayKind::Weekday, |b| b.placement(strategy));
        let we = ftp_day(DayKind::Weekend, |b| b.placement(strategy));
        let (weekday, weekend) = (savings(&wd), savings(&we));
        let migrations = wd.migrations.partial + wd.migrations.full;
        let p50 = wd.consolidation_ratio.quantile(0.5).unwrap_or(0.0);
        outln!(out, "{name:<10} {weekday:>9} {weekend:>9} {migrations:>12} {p50:>9.0}");
    }
    outln!(out, "the paper's random choice is near-optimal here: capacity, not");
    outln!(out, "packing quality, bounds consolidation at this scale.");
    out
}
