//! `oasis report` acceptance: byte-determinism, resolvable decision
//! ids, bit-exact energy decomposition, and a populated quiescence
//! ledger.

use oasis_cli::report::{audit_jsonl, render_json, render_text, traced_run, AuditSummary};
use oasis_cluster::ClusterConfig;
use oasis_telemetry::{FoldedMetric, ProfileTree};
use oasis_trace::INTERVALS_PER_DAY;

fn cfg(seed: u64) -> ClusterConfig {
    ClusterConfig::builder()
        .home_hosts(4)
        .consolidation_hosts(2)
        .vms_per_host(5)
        .seed(seed)
        .build()
        .expect("valid config")
}

#[test]
fn report_artifacts_are_byte_deterministic() {
    let a = traced_run(cfg(7));
    let b = traced_run(cfg(7));
    assert_eq!(render_text(&a, 10, false), render_text(&b, 10, false));
    assert_eq!(render_json(&a, 10, false), render_json(&b, 10, false));
    assert_eq!(a.tree.folded(FoldedMetric::SimMicros), b.tree.folded(FoldedMetric::SimMicros));
    assert_eq!(a.tree.folded(FoldedMetric::Calls), b.tree.folded(FoldedMetric::Calls));
    assert_eq!(audit_jsonl(&a.records), audit_jsonl(&b.records));
    // A different seed produces a different trail (the ledgers are not
    // constants).
    let c = traced_run(cfg(8));
    assert_ne!(audit_jsonl(&a.records), audit_jsonl(&c.records));
}

#[test]
fn every_effect_resolves_to_a_decision_record() {
    let run = traced_run(cfg(7));
    let audit = AuditSummary::from_records(&run.records);
    assert!(audit.decision_events > 0, "a paper day makes decisions");
    assert!(audit.plan_audits > 0, "every planning round leaves an audit record");
    assert!(audit.effect_events > 0, "migrations carry decision ids");
    assert_eq!(
        audit.resolved_effects, audit.effect_events,
        "every migration/recovery event resolves to a decision record"
    );
    let migrations = run.report.migrations.full
        + run.report.migrations.partial
        + run.report.migrations.exchanges;
    assert!(migrations > 0, "the day migrates");
    assert!(
        audit.decision_events >= run.report.migrations.exchanges,
        "at least one audit record per planned exchange"
    );
}

#[test]
fn energy_ledger_is_bit_exact_and_matches_the_meter() {
    let run = traced_run(cfg(7));
    let e = &run.report.energy;
    // Per-VM shares split the active component without losing a single
    // millijoule.
    assert_eq!(e.vm_total_mj(), e.component_mj(|h| h.active_mj));
    // Components re-sum to the grand total exactly.
    assert_eq!(
        e.component_mj(|h| h.active_mj)
            + e.component_mj(|h| h.idle_mj)
            + e.component_mj(|h| h.transition_mj)
            + e.component_mj(|h| h.memserver_mj),
        e.total_mj()
    );
    // The integer ledger tracks the float meter to rounding error.
    let ledger_kwh = e.total_mj() as f64 / 3.6e9;
    assert!(
        (ledger_kwh - run.report.total_kwh).abs() / run.report.total_kwh < 1e-6,
        "ledger {ledger_kwh} kWh vs meter {} kWh",
        run.report.total_kwh
    );
}

#[test]
fn profile_self_times_sum_to_the_root_total() {
    let run = traced_run(cfg(7));
    assert!(!run.tree.is_empty());
    let self_sum: u64 = run.tree.flatten().iter().map(|(_, n)| n.self_sim_us).sum();
    let root_total: u64 = run.tree.roots.iter().map(|r| r.total_sim_us).sum();
    assert_eq!(self_sum, root_total, "self sim times sum to the bracketed total");
    assert_eq!(run.tree.self_wall_ns_sum(), run.tree.total_wall_ns());
    let names: Vec<&str> = run.tree.flatten().iter().map(|(_, n)| n.name.as_str()).collect();
    for expected in [
        "run_day",
        "fault_service",
        "activation",
        "planner",
        "plan_consolidation",
        "audit",
        "execute",
        "fetch",
    ] {
        assert!(names.contains(&expected), "missing span {expected}: {names:?}");
    }
    // The day's phase scopes partition `run_day`: exactly five children,
    // in step order, each entered once per interval. Disjoint scopes can
    // never sum past their parent, and they must actually cover the day
    // (loop prologue and report assembly are the only residual).
    //
    // Coverage is a wall-clock share of a day of a few milliseconds, so
    // one preemption inside the unscoped prologue can sink a single
    // reading below the bound; the best of up to three traced days must
    // meet it.
    let coverage = |tree: &ProfileTree| -> (u64, u64) {
        let day = tree.roots.iter().find(|r| r.name == "run_day").expect("run_day root");
        let phases: Vec<&str> = day.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(phases, ["fault_service", "activation", "planner", "fetch", "accounting"]);
        for phase in &day.children {
            assert_eq!(phase.calls, INTERVALS_PER_DAY as u64, "{} calls", phase.name);
        }
        let phase_wall: u64 = day.children.iter().map(|c| c.total_wall_ns).sum();
        let day_wall = day.total_wall_ns;
        assert!(phase_wall <= day_wall, "phases {phase_wall} ns > day {day_wall}");
        (phase_wall, day_wall)
    };
    let mut best = coverage(&run.tree);
    for _ in 1..3 {
        if best.0 * 2 >= best.1 {
            break;
        }
        let (phase_wall, day_wall) = coverage(&traced_run(cfg(7)).tree);
        if phase_wall * best.1 > best.0 * day_wall {
            best = (phase_wall, day_wall);
        }
    }
    assert!(best.0 * 2 >= best.1, "phases cover too little: {} ns of {} ns", best.0, best.1);
}

#[test]
fn text_and_json_reports_carry_every_section() {
    let run = traced_run(cfg(7));
    let text = render_text(&run, 5, false);
    for marker in [
        "== span profile ==",
        "== decision audit ==",
        "== energy attribution",
        "== quiescence ==",
        "bit-exact=true",
        "run_day",
    ] {
        assert!(text.contains(marker), "missing {marker:?} in:\n{text}");
    }
    assert!(!text.contains("wall_"), "wall fields must stay out of deterministic output");

    let json = render_json(&run, 5, false);
    for key in
        ["\"profile\":", "\"top_spans\":", "\"decisions\":", "\"energy\":", "\"quiescence\":"]
    {
        assert!(json.contains(key), "missing {key} in json");
    }
    assert!(!json.contains("wall_total_ns"));
    assert!(render_json(&run, 5, true).contains("wall_total_ns"));
    // Quiescence is populated: a small day has idle hosts.
    assert!(run.report.quiescence.host_quiescent > 0);
    assert!(run.report.quiescence.vm_quiescent > 0);
}
