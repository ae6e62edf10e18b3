//! The `oasis report` observability digest.
//!
//! Runs one traced simulation day and renders what the deep-observability
//! layer captured: the hierarchical span profile, the planner decision
//! audit trail, the per-host/per-VM energy attribution ledger, and the
//! quiescence ledger. Output is byte-deterministic for a fixed seed
//! unless wall-clock fields are explicitly requested (`--wall true`).

use oasis_cluster::shard::SLA_THRESHOLD_SECS;
use oasis_cluster::{ClusterConfig, ClusterSim, DatacenterReport, ScenarioReport, SimReport};
use oasis_telemetry::{
    BufferSink, Event, EventRecord, FoldedMetric, Level, ProfileTree, Telemetry,
};
use oasis_trace::DayKind;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One traced run: the simulation report plus the raw observability
/// captures the renderers digest.
pub struct RunReport {
    /// The day's simulation report (energy/quiescence/decision ledgers
    /// included).
    pub report: SimReport,
    /// Snapshot of the hierarchical span profiler.
    pub tree: ProfileTree,
    /// Every event the bus recorded, in emission order.
    pub records: Vec<EventRecord>,
}

/// Runs one day of `cfg` with a recording telemetry bus attached.
pub fn traced_run(cfg: ClusterConfig) -> RunReport {
    let telemetry = Telemetry::new(Level::Info);
    let buffer = BufferSink::new();
    telemetry.attach(Box::new(buffer.clone()));
    let mut sim = ClusterSim::new(cfg);
    sim.attach_telemetry(telemetry.clone());
    let report = sim.run_day();
    let tree = telemetry.profiler().snapshot();
    let records = buffer.drain();
    RunReport { report, tree, records }
}

/// Counters derived from the recorded audit-trail events.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AuditSummary {
    /// `decision_made` records on the bus.
    pub decision_events: u64,
    /// `plan_audit` round records.
    pub plan_audits: u64,
    /// Plan audits whose net-energy verdict approved the vacate pass.
    pub plan_audits_approved: u64,
    /// Migration/recovery events that carry a decision id.
    pub effect_events: u64,
    /// Effect events whose id resolves to a `decision_made` record.
    pub resolved_effects: u64,
}

impl AuditSummary {
    /// Tallies decision records and resolves effect ids against them.
    pub fn from_records(records: &[EventRecord]) -> AuditSummary {
        let mut out = AuditSummary::default();
        let mut ids = BTreeSet::new();
        for rec in records {
            match &rec.event {
                Event::DecisionMade { decision, .. } => {
                    out.decision_events += 1;
                    ids.insert(*decision);
                }
                Event::PlanAudit { approved, .. } => {
                    out.plan_audits += 1;
                    if *approved {
                        out.plan_audits_approved += 1;
                    }
                }
                _ => {}
            }
        }
        for rec in records {
            let decision = match &rec.event {
                Event::MigrationStarted { decision, .. }
                | Event::MigrationCompleted { decision, .. }
                | Event::MigrationStalled { decision, .. }
                | Event::MigrationAborted { decision, .. }
                | Event::RecoveryApplied { decision, .. } => *decision,
                _ => continue,
            };
            out.effect_events += 1;
            if ids.contains(&decision) {
                out.resolved_effects += 1;
            }
        }
        out
    }
}

/// The audit-trail slice of the event stream as JSONL: every decision,
/// round audit, and the migration/recovery events their ids thread into.
/// Byte-deterministic for a fixed seed.
pub fn audit_jsonl(records: &[EventRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        let keep = matches!(
            rec.event,
            Event::DecisionMade { .. }
                | Event::PlanAudit { .. }
                | Event::MigrationStarted { .. }
                | Event::MigrationCompleted { .. }
                | Event::MigrationStalled { .. }
                | Event::MigrationAborted { .. }
                | Event::RecoveryApplied { .. }
        );
        if keep {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
    }
    out
}

/// Top-`n` profiler stacks by self simulated time, descending, ties in
/// first-entry order.
pub fn top_spans(tree: &ProfileTree, n: usize) -> Vec<(String, u64)> {
    let mut stacks: Vec<(String, u64)> = tree
        .folded(FoldedMetric::SimMicros)
        .lines()
        .filter_map(|l| {
            let (stack, value) = l.rsplit_once(' ')?;
            Some((stack.to_string(), value.parse().ok()?))
        })
        .collect();
    stacks.sort_by_key(|(_, v)| std::cmp::Reverse(*v));
    stacks.truncate(n);
    stacks
}

fn day_str(day: DayKind) -> &'static str {
    match day {
        DayKind::Weekday => "weekday",
        DayKind::Weekend => "weekend",
    }
}

const MJ_PER_KWH: f64 = 3.6e9;

/// Renders the human-readable report.
pub fn render_text(run: &RunReport, top: usize, include_wall: bool) -> String {
    let r = &run.report;
    let audit = AuditSummary::from_records(&run.records);
    let mut out = String::new();
    let _ = writeln!(out, "{}", r.summary_line());
    let _ = writeln!(out);

    let _ = writeln!(out, "== span profile ==");
    out.push_str(&run.tree.render(include_wall));
    let stacks = top_spans(&run.tree, top);
    let _ = writeln!(out, "top {} stacks by self sim time:", stacks.len());
    for (stack, us) in &stacks {
        let _ = writeln!(out, "  {us:>16}us  {stack}");
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "== decision audit ==");
    let d = &r.decisions;
    let _ = writeln!(
        out,
        "decisions: total={} consolidate={} exchange={} promote_in_place={} relocate={} \
         return_home={} fallback_promote={} shed={} stall={}",
        d.total(),
        d.consolidate,
        d.exchange,
        d.promote_in_place,
        d.relocate,
        d.return_home,
        d.fallback_promote,
        d.shed,
        d.stall
    );
    let _ = writeln!(
        out,
        "audit records: decision_made={} plan_audit={} (approved={})",
        audit.decision_events, audit.plan_audits, audit.plan_audits_approved
    );
    let _ = writeln!(
        out,
        "effects: {} migration/recovery events carry decision ids, {} resolve",
        audit.effect_events, audit.resolved_effects
    );
    let _ = writeln!(out);

    let _ = writeln!(out, "== energy attribution (integer millijoules) ==");
    out.push_str(&r.energy.render());
    let active = r.energy.component_mj(|h| h.active_mj);
    let _ = writeln!(
        out,
        "vm shares: {} VMs, share total {} mJ of active {} mJ, bit-exact={}",
        r.energy.vms.len(),
        r.energy.vm_total_mj(),
        active,
        r.energy.vm_total_mj() == active
    );
    let _ = writeln!(
        out,
        "meter cross-check: ledger {:.3} kWh vs meter {:.3} kWh",
        r.energy.total_mj() as f64 / MJ_PER_KWH,
        r.total_kwh
    );
    let _ = writeln!(out);

    let _ = writeln!(out, "== quiescence ==");
    let q = &r.quiescence;
    let _ = writeln!(
        out,
        "intervals={} host-intervals={} quiescent={} ({:.1}%)",
        q.intervals,
        q.host_intervals,
        q.host_quiescent,
        q.host_fraction() * 100.0
    );
    let _ = writeln!(
        out,
        "vm-intervals={} quiescent={} ({:.1}%) — upper bound on the work an \
         interval-skipping day loop could save",
        q.vm_intervals,
        q.vm_quiescent,
        q.vm_fraction() * 100.0
    );
    out
}

/// Renders the datacenter digest: fleet totals, the epoch planner's
/// rebalance ledger, and one
/// fixed-order line per rack (energy, SLA violations, migrations,
/// quiescent fraction). Byte-deterministic for a fixed seed — across
/// reruns and across `--jobs`/`OASIS_JOBS` worker counts, which the
/// shard-equivalence suite and the unit test below both enforce.
pub fn render_datacenter_text(report: &mut DatacenterReport) -> String {
    let sla = report.sla_violations(SLA_THRESHOLD_SECS);
    let mut out = String::new();
    let _ = writeln!(out, "== datacenter ==");
    let _ = writeln!(
        out,
        "racks={} hosts={} vms={} planner={}",
        report.racks, report.hosts, report.vms, report.planner
    );
    let _ = writeln!(
        out,
        "baseline={:.3}kWh actual={:.3}kWh savings={:.1}%",
        report.baseline_kwh,
        report.total_kwh,
        report.energy_savings * 100.0
    );
    let _ = writeln!(
        out,
        "rebalance: grants={} bytes={}",
        report.rebalance_grants, report.rebalance_bytes
    );
    let _ = writeln!(out, "sla violations (>{SLA_THRESHOLD_SECS:.0}s): {sla}");
    let _ = writeln!(out);
    let _ = writeln!(out, "== racks ==");
    for (rack, r) in report.rack_reports.iter_mut().enumerate() {
        let sla = r.sla_violations(SLA_THRESHOLD_SECS);
        let migrations = r.migrations.full + r.migrations.partial;
        let _ = writeln!(
            out,
            "rack {rack:>5}  kwh={kwh:>9.3}  sla_violations={sla:>5}  migrations={mig:>5}  \
             quiescent={quiet:>5.1}%",
            kwh = r.total_kwh,
            mig = migrations,
            quiet = r.quiescence.host_fraction() * 100.0
        );
    }
    out
}

/// The datacenter digest as JSON (field order fixed for byte-stable
/// artifacts, like [`render_json`]).
pub fn render_datacenter_json(report: &mut DatacenterReport) -> String {
    let sla = report.sla_violations(SLA_THRESHOLD_SECS);
    let mut out = String::from("{");
    let _ = write!(
        out,
        r#""racks":{},"planner":"{}","hosts":{},"vms":{},"baseline_kwh":{},"total_kwh":{},"savings":{},"rebalance_grants":{},"rebalance_bytes":{},"sla_violations":{}"#,
        report.racks,
        report.planner,
        report.hosts,
        report.vms,
        report.baseline_kwh,
        report.total_kwh,
        report.energy_savings,
        report.rebalance_grants,
        report.rebalance_bytes,
        sla
    );
    out.push_str(",\"racks_digest\":[");
    for (rack, r) in report.rack_reports.iter_mut().enumerate() {
        if rack > 0 {
            out.push(',');
        }
        let sla = r.sla_violations(SLA_THRESHOLD_SECS);
        // Fixed precision, like every other digest float: the raw f64
        // `Display` repr prints a varying number of digits and made this
        // the one field downstream `cmp` legs could not rely on.
        let _ = write!(
            out,
            r#"{{"rack":{},"kwh":{},"sla_violations":{},"migrations":{},"quiescent_fraction":{:.6}}}"#,
            rack,
            r.total_kwh,
            sla,
            r.migrations.full + r.migrations.partial,
            r.quiescence.host_fraction()
        );
    }
    out.push_str("]}");
    out
}

/// Renders a scenario digest as human-readable text: the headline
/// digest line, the guards statement, and the per-generation energy
/// split. Fixed precision throughout — byte-deterministic for a fixed
/// seed and across worker counts.
pub fn render_scenario_text(spec: &oasis_cluster::ScenarioSpec, r: &ScenarioReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== scenario {} ==", r.name);
    let _ = writeln!(out, "guards: {}", spec.guards);
    let _ = writeln!(out, "racks={} hosts={} vms={} seed={}", r.racks, r.hosts, r.vms, r.seed);
    let _ = writeln!(
        out,
        "baseline={:.6}kWh actual={:.6}kWh savings={:.2}%",
        r.baseline_kwh,
        r.total_kwh,
        r.energy_savings * 100.0
    );
    let _ = writeln!(
        out,
        "sla violations (>{SLA_THRESHOLD_SECS:.0}s): {}   migration bytes: {}",
        r.sla_violations, r.migration_bytes
    );
    let _ = writeln!(
        out,
        "faults={} recoveries={} reboots={}",
        r.faults_injected, r.recoveries, r.reboots
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "== generations ==");
    for g in &r.generations {
        let _ = writeln!(
            out,
            "{name:<12} hosts={hosts:>3}  energy={mj:>15}mj",
            name = g.name,
            hosts = g.hosts,
            mj = g.total_mj
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", r.digest());
    out
}

/// The scenario digest as fixed-field-order JSON — exactly
/// [`ScenarioReport::to_json`] plus a trailing newline, so `--out`
/// artifacts diff cleanly.
pub fn render_scenario_json(r: &ScenarioReport) -> String {
    let mut out = r.to_json();
    out.push('\n');
    out
}

/// Renders the machine-readable report (field order fixed for
/// byte-stable artifacts).
pub fn render_json(run: &RunReport, top: usize, include_wall: bool) -> String {
    let r = &run.report;
    let audit = AuditSummary::from_records(&run.records);
    let mut out = String::from("{");
    let _ = write!(
        out,
        r#""policy":"{}","day":"{}","baseline_kwh":{},"total_kwh":{},"savings":{}"#,
        r.policy,
        day_str(r.day),
        r.baseline_kwh,
        r.total_kwh,
        r.energy_savings
    );
    let _ = write!(out, r#","profile":{}"#, run.tree.to_json(include_wall));
    out.push_str(",\"top_spans\":[");
    for (i, (stack, us)) in top_spans(&run.tree, top).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, r#"{{"stack":"{stack}","self_sim_us":{us}}}"#);
    }
    out.push(']');
    let d = &r.decisions;
    let _ = write!(
        out,
        r#","decisions":{{"total":{},"consolidate":{},"exchange":{},"promote_in_place":{},"relocate":{},"return_home":{},"fallback_promote":{},"shed":{},"stall":{},"decision_events":{},"plan_audits":{},"plan_audits_approved":{},"effect_events":{},"resolved_effects":{}}}"#,
        d.total(),
        d.consolidate,
        d.exchange,
        d.promote_in_place,
        d.relocate,
        d.return_home,
        d.fallback_promote,
        d.shed,
        d.stall,
        audit.decision_events,
        audit.plan_audits,
        audit.plan_audits_approved,
        audit.effect_events,
        audit.resolved_effects
    );
    let e = &r.energy;
    let _ = write!(
        out,
        r#","energy":{{"total_mj":{},"active_mj":{},"idle_mj":{},"transition_mj":{},"memserver_mj":{},"vm_share_total_mj":{},"vm_share_exact":{},"hosts":["#,
        e.total_mj(),
        e.component_mj(|h| h.active_mj),
        e.component_mj(|h| h.idle_mj),
        e.component_mj(|h| h.transition_mj),
        e.component_mj(|h| h.memserver_mj),
        e.vm_total_mj(),
        e.vm_total_mj() == e.component_mj(|h| h.active_mj)
    );
    for (i, h) in e.hosts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            r#"{{"host":{},"active_mj":{},"idle_mj":{},"transition_mj":{},"memserver_mj":{},"total_mj":{}}}"#,
            h.host,
            h.active_mj,
            h.idle_mj,
            h.transition_mj,
            h.memserver_mj,
            h.total_mj()
        );
    }
    out.push_str("],\"vms\":[");
    for (i, v) in e.vms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, r#"{{"vm":{},"share_mj":{}}}"#, v.vm, v.share_mj);
    }
    out.push_str("]}");
    let q = &r.quiescence;
    let _ = write!(
        out,
        r#","quiescence":{{"intervals":{},"host_intervals":{},"host_quiescent":{},"host_fraction":{},"vm_intervals":{},"vm_quiescent":{},"vm_fraction":{}}}"#,
        q.intervals,
        q.host_intervals,
        q.host_quiescent,
        q.host_fraction(),
        q.vm_intervals,
        q.vm_quiescent,
        q.vm_fraction()
    );
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_cluster::experiments::Scale;
    use oasis_cluster::shard::{run_datacenter_day, DatacenterConfig};
    use oasis_core::PolicyKind;
    use oasis_sim::WorkerPool;
    use oasis_trace::DayKind;

    /// The `oasis report` datacenter digest is byte-identical across
    /// worker counts — the CLI-facing face of the shard-equivalence
    /// contract.
    #[test]
    fn datacenter_digest_is_byte_identical_across_worker_counts() {
        let scale = Scale { home_hosts: 6, vms_per_host: 10, racks: 3 };
        let dc = DatacenterConfig::at(scale, PolicyKind::FullToPartial, DayKind::Weekday, 1);
        let render = |pool: &WorkerPool| {
            let mut report = run_datacenter_day(pool, &dc);
            (render_datacenter_text(&mut report), render_datacenter_json(&mut report))
        };
        let (seq_text, seq_json) = render(&WorkerPool::sequential());
        let (par_text, par_json) = render(&WorkerPool::new(3));
        assert!(seq_text.contains("== racks ==\nrack     0  kwh="));
        assert!(seq_json.starts_with(r#"{"racks":3,"planner":"global","hosts":21,"vms":180,"#));
        assert_eq!(seq_text, par_text);
        assert_eq!(seq_json, par_json);
    }
}
