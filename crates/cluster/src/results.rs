//! Per-run simulation reports.

use oasis_core::PolicyKind;
use oasis_faults::FaultCounts;
use oasis_mem::ByteSize;
use oasis_net::TrafficAccountant;
use oasis_sim::stats::{Cdf, TimeSeries};
use oasis_telemetry::{EnergyLedger, QuiescenceLedger, TelemetrySummary};
use oasis_trace::DayKind;

/// Planner and recovery decision counters, one per [`oasis_telemetry::DecisionClass`].
///
/// Tracked by the simulator itself (like [`MigrationCounts`]), so the
/// report carries the audit-trail totals even when no telemetry bus was
/// attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecisionCounts {
    /// Planned consolidation migrations.
    pub consolidate: u64,
    /// Planned FulltoPartial exchanges.
    pub exchange: u64,
    /// Activations promoted in place.
    pub promote_in_place: u64,
    /// Activations relocated to a new home (NewHome).
    pub relocate: u64,
    /// Activations returned to their woken home.
    pub return_home: u64,
    /// Fallback promotions and crash re-homings.
    pub fallback_promote: u64,
    /// Capacity-exhaustion sheds (eviction or fallback relocation).
    pub shed: u64,
    /// Stalled-migration recovery decisions.
    pub stall: u64,
}

impl DecisionCounts {
    /// Total decisions recorded.
    pub fn total(&self) -> u64 {
        self.consolidate
            + self.exchange
            + self.promote_in_place
            + self.relocate
            + self.return_home
            + self.fallback_promote
            + self.shed
            + self.stall
    }
}

/// Migration-event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationCounts {
    /// Full (pre-copy) migrations executed.
    pub full: u64,
    /// Partial migrations executed.
    pub partial: u64,
    /// FulltoPartial exchanges executed.
    pub exchanges: u64,
    /// ReturnHome events (home woken, all its VMs returned).
    pub returns_home: u64,
    /// Partial VMs promoted in place to full VMs.
    pub promotions: u64,
    /// NewHome relocations of saturated activations.
    pub relocations: u64,
    /// Wake-on-LAN retransmissions (fault injection).
    pub wol_retries: u64,
    /// Scheduled cold restarts executed (patch windows; zero unless a
    /// reboot schedule was configured).
    pub reboots: u64,
}

/// Where one VM ended the simulated day.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VmPlacement {
    /// VM id.
    pub vm: u32,
    /// Home (compute) host the VM is bound to.
    pub home: u32,
    /// Host the VM runs on at end of day.
    pub location: u32,
    /// Whether the VM ended the day as a partial replica.
    pub partial: bool,
}

/// The outcome of one simulated day.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Policy that ran.
    pub policy: PolicyKind,
    /// Day kind simulated.
    pub day: DayKind,
    /// Home hosts, consolidation hosts, VMs.
    pub home_hosts: u32,
    /// Consolidation host count.
    pub consolidation_hosts: u32,
    /// Total VMs.
    pub vms: u32,
    /// Energy the home hosts would have used if left powered (kWh).
    pub baseline_kwh: f64,
    /// Energy the whole managed cluster used (kWh).
    pub total_kwh: f64,
    /// `1 − total/baseline` (§5.3 normalization).
    pub energy_savings: f64,
    /// Active-VM count per interval (Figure 7).
    pub active_vms_series: TimeSeries,
    /// Fully powered hosts per interval (Figure 7).
    pub powered_hosts_series: TimeSeries,
    /// Idle→active transition delays, seconds (Figure 11).
    pub transition_delays: Cdf,
    /// VMs per powered consolidation host, sampled per interval (Fig. 9).
    pub consolidation_ratio: Cdf,
    /// Byte counters per traffic class (Figure 10).
    pub traffic: TrafficAccountant,
    /// Migration-event counters.
    pub migrations: MigrationCounts,
    /// Injected-fault and recovery-action counters (all zero on a
    /// fault-free run).
    pub faults: FaultCounts,
    /// Time each successful fault recovery took, seconds.
    pub recovery_times: Cdf,
    /// Cumulative managed-cluster energy per interval, kWh (monotone
    /// non-decreasing by construction — checked by the property suite).
    pub energy_series: TimeSeries,
    /// End-of-day VM placements, for integrity checking.
    pub placements: Vec<VmPlacement>,
    /// Per-host active/idle/transition energy decomposition and per-VM
    /// demand-weighted shares, in integer millijoules.
    pub energy: EnergyLedger,
    /// Per-host and per-VM quiescent-interval counts: how much of the
    /// day nothing changed.
    pub quiescence: QuiescenceLedger,
    /// Planner and recovery decision counters.
    pub decisions: DecisionCounts,
    /// Event counts and span timings from the run's telemetry bus (empty
    /// when telemetry was never attached).
    pub telemetry: TelemetrySummary,
}

impl SimReport {
    /// Fraction of transitions with zero user-perceived delay.
    pub fn zero_delay_fraction(&mut self) -> f64 {
        if self.transition_delays.is_empty() {
            return 1.0;
        }
        self.transition_delays.fraction_le(1e-9)
    }

    /// Total bytes that crossed the datacenter network.
    pub fn network_bytes(&self) -> ByteSize {
        self.traffic.network_total()
    }

    /// Number of idle→active transitions whose user-perceived delay
    /// exceeded `threshold_secs` — the scorecard's SLA-violation count
    /// (ROADMAP item 3: resume latency over threshold).
    pub fn sla_violations(&mut self, threshold_secs: f64) -> u64 {
        if self.transition_delays.is_empty() {
            return 0;
        }
        let over = 1.0 - self.transition_delays.fraction_le(threshold_secs);
        (over * self.transition_delays.len() as f64).round() as u64
    }

    /// Structural integrity checks over the final placements: every VM
    /// accounted for exactly once, on a real host, and no partial replica
    /// resident at its own home (a partial at home would mean its memory
    /// server is serving pages to itself). Returns one message per
    /// violation; the fault scenario suite asserts this is empty — faults
    /// may cost energy and latency, but never VMs.
    pub fn integrity_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.placements.len() as u32 != self.vms {
            violations.push(format!(
                "{} VMs configured, {} placed",
                self.vms,
                self.placements.len()
            ));
        }
        let hosts = self.home_hosts + self.consolidation_hosts;
        let mut seen = std::collections::BTreeSet::new();
        for p in &self.placements {
            if !seen.insert(p.vm) {
                violations.push(format!("vm {} placed twice", p.vm));
            }
            if p.location >= hosts {
                violations.push(format!("vm {} on nonexistent host {}", p.vm, p.location));
            }
            if p.home >= self.home_hosts {
                violations.push(format!("vm {} homed at non-home host {}", p.vm, p.home));
            }
            if p.partial && p.location == p.home {
                violations.push(format!("vm {} is a partial replica at its own home", p.vm));
            }
        }
        violations
    }

    /// One summary line for experiment output.
    pub fn summary_line(&self) -> String {
        format!(
            "{policy:<14} {day:<8} homes={homes:<3} cons={cons:<3} vms={vms:<4} \
             savings={savings:>6.1}% baseline={base:.1}kWh actual={total:.1}kWh \
             full={full} partial={partial} exch={exch}",
            policy = self.policy.to_string(),
            day = match self.day {
                DayKind::Weekday => "weekday",
                DayKind::Weekend => "weekend",
            },
            homes = self.home_hosts,
            cons = self.consolidation_hosts,
            vms = self.vms,
            savings = self.energy_savings * 100.0,
            base = self.baseline_kwh,
            total = self.total_kwh,
            full = self.migrations.full,
            partial = self.migrations.partial,
            exch = self.migrations.exchanges,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_sim::SimTime;

    fn report() -> SimReport {
        SimReport {
            policy: PolicyKind::FullToPartial,
            day: DayKind::Weekday,
            home_hosts: 30,
            consolidation_hosts: 4,
            vms: 900,
            baseline_kwh: 80.0,
            total_kwh: 57.6,
            energy_savings: 0.28,
            active_vms_series: TimeSeries::new(),
            powered_hosts_series: TimeSeries::new(),
            transition_delays: Cdf::new(),
            consolidation_ratio: Cdf::new(),
            traffic: TrafficAccountant::new(),
            migrations: MigrationCounts::default(),
            faults: FaultCounts::default(),
            recovery_times: Cdf::new(),
            energy_series: TimeSeries::new(),
            placements: Vec::new(),
            energy: EnergyLedger::default(),
            quiescence: QuiescenceLedger::default(),
            decisions: DecisionCounts::default(),
            telemetry: TelemetrySummary::default(),
        }
    }

    #[test]
    fn zero_delay_fraction_counts_zeros() {
        let mut r = report();
        assert_eq!(r.zero_delay_fraction(), 1.0, "no transitions → all zero");
        r.transition_delays.record(0.0);
        r.transition_delays.record(0.0);
        r.transition_delays.record(3.7);
        r.transition_delays.record(6.0);
        assert!((r.zero_delay_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sla_violations_count_delays_over_threshold() {
        let mut r = report();
        assert_eq!(r.sla_violations(10.0), 0, "no transitions → no violations");
        for d in [0.0, 0.0, 3.7, 9.9, 10.5, 40.0] {
            r.transition_delays.record(d);
        }
        assert_eq!(r.sla_violations(10.0), 2);
        assert_eq!(r.sla_violations(0.5), 4);
    }

    #[test]
    fn summary_line_mentions_key_numbers() {
        let line = report().summary_line();
        assert!(line.contains("FulltoPartial"));
        assert!(line.contains("28.0%"));
        assert!(line.contains("cons=4"));
    }

    #[test]
    fn integrity_checks_catch_structural_damage() {
        let mut r = report();
        // 900 VMs configured, none placed.
        assert_eq!(r.integrity_violations().len(), 1);
        r.vms = 3;
        r.placements = vec![
            VmPlacement { vm: 0, home: 0, location: 0, partial: false },
            VmPlacement { vm: 0, home: 0, location: 99, partial: false }, // dup + bad host
            VmPlacement { vm: 1, home: 1, location: 1, partial: true },   // partial at home
        ];
        let violations = r.integrity_violations();
        assert!(violations.iter().any(|v| v.contains("placed twice")));
        assert!(violations.iter().any(|v| v.contains("nonexistent host")));
        assert!(violations.iter().any(|v| v.contains("at its own home")));
        // A clean placement set passes.
        r.placements = vec![
            VmPlacement { vm: 0, home: 0, location: 0, partial: false },
            VmPlacement { vm: 1, home: 1, location: 33, partial: true },
            VmPlacement { vm: 2, home: 2, location: 2, partial: false },
        ];
        assert!(r.integrity_violations().is_empty());
    }

    #[test]
    fn series_are_recordable() {
        let mut r = report();
        r.active_vms_series.record(SimTime::ZERO, 411.0);
        assert_eq!(r.active_vms_series.max(), Some(411.0));
    }
}
