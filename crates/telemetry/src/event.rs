//! Structured simulation events.
//!
//! Events are typed, stamped with [`SimTime`] and a per-run sequence
//! number, and carry only raw numeric ids (`u32`/`u64`) so this crate
//! depends on nothing but `oasis-sim`. Wall-clock time never appears in
//! an event: with a fixed seed the encoded stream is byte-identical
//! across runs and platforms, which the golden-stream test relies on.

use crate::json::escape_into;
use oasis_sim::SimTime;
use std::fmt::Write as _;

/// Severity attached to every event kind; the bus drops events below the
/// configured level before they reach any subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Emit nothing.
    Off,
    /// Unexpected-but-survivable conditions (WoL retries, capacity
    /// exhaustion).
    Warn,
    /// The main lifecycle narrative: migrations, host power transitions,
    /// policy decisions.
    Info,
    /// High-volume detail: per-interval markers, individual page fetches.
    Debug,
}

impl Level {
    /// True when an event at `event_level` passes a filter set to `self`.
    pub fn allows(self, event_level: Level) -> bool {
        event_level != Level::Off && event_level <= self
    }
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(Level::Off),
            "warn" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!("unknown log level {other:?} (expected off|warn|info|debug)")),
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::Off => "off",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        })
    }
}

/// Which migration mechanism an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationKind {
    /// Whole-memory pre-copy live migration.
    Full,
    /// Working-set-only partial migration (§4 of the paper).
    Partial,
    /// Post-copy reintegration of a partial VM back to its home.
    Return,
    /// A full/partial pair exchanged between two hosts.
    Exchange,
}

impl MigrationKind {
    fn as_str(self) -> &'static str {
        match self {
            MigrationKind::Full => "full",
            MigrationKind::Partial => "partial",
            MigrationKind::Return => "return",
            MigrationKind::Exchange => "exchange",
        }
    }
}

/// Which injected fault class an event refers to.
///
/// Mirrors `oasis_faults::FaultSchedule`'s taxonomy; defined here (like
/// [`MigrationKind`]) so emitting crates need no extra dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// A sleeping host ignores wake requests for the fault window.
    WakeFailure,
    /// An S3 resume hangs for extra seconds before completing.
    WakeDelay,
    /// A home host's memory-server daemon crashes (restarts when the
    /// window closes).
    MemServerCrash,
    /// Rack-network degradation inflating fetch and migration latency.
    LinkDegraded,
    /// Migrations started inside the window stall and need recovery.
    MigrationStall,
}

impl FaultClass {
    /// Stable snake_case tag used in encodings.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::WakeFailure => "wake_failure",
            FaultClass::WakeDelay => "wake_delay",
            FaultClass::MemServerCrash => "memserver_crash",
            FaultClass::LinkDegraded => "link_degraded",
            FaultClass::MigrationStall => "migration_stall",
        }
    }
}

/// Which recovery policy an [`Event::RecoveryApplied`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// A failed wake succeeded after bounded exponential backoff.
    RetryWake,
    /// A partial VM was promoted in place because its home refused to
    /// wake (or its memory server was down).
    FallbackPromote,
    /// An orphaned partial VM was fully returned to (or re-placed near)
    /// its home.
    Rehome,
    /// A stalled migration completed after cancel-and-retry.
    RetryMigration,
    /// A migration was abandoned; the VM stays where it was.
    AbortMigration,
}

impl RecoveryKind {
    /// Stable snake_case tag used in encodings.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryKind::RetryWake => "retry_wake",
            RecoveryKind::FallbackPromote => "fallback_promote",
            RecoveryKind::Rehome => "rehome",
            RecoveryKind::RetryMigration => "retry_migration",
            RecoveryKind::AbortMigration => "abort_migration",
        }
    }
}

/// What kind of choice a planner/recovery [`Event::DecisionMade`]
/// records.
///
/// Every entry corresponds to one spot in the manager or simulator
/// where control flow commits to an action; the audit trail carries the
/// inputs that drove the choice plus a stable decision id threaded into
/// the downstream migration/recovery events it causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionClass {
    /// The consolidation planner scheduled a vacate/drain migration.
    Consolidate,
    /// The planner scheduled a FulltoPartial exchange.
    Exchange,
    /// An activating partial VM is promoted in place.
    PromoteInPlace,
    /// An activating partial VM relocates to another powered host
    /// (NewHome).
    Relocate,
    /// An activating partial VM wakes its home; all VMs homed there
    /// return.
    ReturnHome,
    /// Recovery: a partial VM promoted in place because its home is
    /// unreachable.
    FallbackPromote,
    /// Recovery: a VM shed to a fallback host after capacity exhaustion
    /// with an unwakeable home.
    Shed,
    /// Recovery: a stalled migration entered cancel-and-retry.
    Stall,
}

impl DecisionClass {
    /// Stable snake_case tag used in encodings.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionClass::Consolidate => "consolidate",
            DecisionClass::Exchange => "exchange",
            DecisionClass::PromoteInPlace => "promote_in_place",
            DecisionClass::Relocate => "relocate",
            DecisionClass::ReturnHome => "return_home",
            DecisionClass::FallbackPromote => "fallback_promote",
            DecisionClass::Shed => "shed",
            DecisionClass::Stall => "stall",
        }
    }
}

/// Sentinel id used in fault events whose target is the whole cluster
/// (e.g. a rack-wide link degradation) rather than one host or VM.
pub const CLUSTER_WIDE: u32 = u32::MAX;

/// A structured simulation event.
///
/// Variants carry raw ids rather than domain types so every crate in the
/// workspace can emit them without new dependencies.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A trace interval began; `active` is the number of active VMs.
    IntervalStarted {
        /// Zero-based five-minute interval index.
        interval: u32,
        /// VMs active during this interval.
        active: u32,
    },
    /// The manager produced a plan for the current interval.
    PolicyDecision {
        /// Zero-based five-minute interval index.
        interval: u32,
        /// Number of planned actions.
        actions: u32,
    },
    /// The planner or a recovery path committed one choice.
    ///
    /// The `decision` id reappears on every migration/recovery event
    /// the choice causes, so downstream effects (a resume-latency SLA
    /// violation, an aborted migration) resolve back to the decision —
    /// and its recorded inputs — that caused them.
    DecisionMade {
        /// Stable per-run decision id (allocated monotonically).
        decision: u64,
        /// What kind of choice was committed.
        class: DecisionClass,
        /// VM the choice concerns, or [`CLUSTER_WIDE`] when host-scoped.
        vm: u32,
        /// Destination or home host, or [`CLUSTER_WIDE`] when none.
        target: u32,
        /// Size of the candidate set the chooser examined.
        candidates: u32,
    },
    /// Round-level audit record for one consolidation planning pass:
    /// the aggregate inputs and the net-energy verdict behind the
    /// interval's [`Event::DecisionMade`] batch.
    PlanAudit {
        /// Zero-based five-minute interval index.
        interval: u32,
        /// Policy that planned (`PolicyKind` display form).
        policy: &'static str,
        /// First decision id of the round; the round's action decisions
        /// are `decision_base .. decision_base + actions`.
        decision_base: u64,
        /// Planned actions emitted this round.
        actions: u32,
        /// FulltoPartial exchanges in the plan.
        exchanges: u32,
        /// Home hosts the vacate pass emptied.
        vacated: u32,
        /// Consolidation hosts the plan wakes.
        woken: u32,
        /// Net-energy verdict for the vacate pass.
        approved: bool,
        /// Consolidation hosts the drain pass emptied.
        drained: u32,
        /// Total candidate-set sizes examined across placements.
        candidates: u32,
        /// Aggregate resident VM demand across the view, MiB.
        demand_mib: u64,
    },
    /// A migration began.
    MigrationStarted {
        /// VM being moved.
        vm: u32,
        /// Source host.
        from: u32,
        /// Destination host.
        to: u32,
        /// Mechanism used.
        kind: MigrationKind,
        /// Id of the [`Event::DecisionMade`] that caused the migration.
        decision: u64,
    },
    /// A migration finished.
    MigrationCompleted {
        /// VM that moved.
        vm: u32,
        /// Source host.
        from: u32,
        /// Destination host.
        to: u32,
        /// Mechanism used.
        kind: MigrationKind,
        /// Bytes moved over the wire.
        moved_bytes: u64,
        /// Guest-visible downtime in microseconds.
        downtime_us: u64,
        /// Id of the [`Event::DecisionMade`] that caused the migration.
        decision: u64,
    },
    /// A host entered ACPI S3.
    HostSuspended {
        /// Host that suspended.
        host: u32,
    },
    /// A host woke from S3 and is serving again.
    HostResumed {
        /// Host that resumed.
        host: u32,
    },
    /// A Wake-on-LAN packet went unanswered and was re-sent.
    WolRetry {
        /// Host being woken.
        host: u32,
        /// 1-based retry attempt.
        attempt: u32,
    },
    /// The memory server satisfied a demand fetch for a partial VM.
    PageFaultFetched {
        /// Faulting VM.
        vm: u32,
        /// Guest page number.
        page: u64,
    },
    /// A consolidation host ran out of frames while growing working sets.
    CapacityExhausted {
        /// Host whose allocator was exhausted.
        host: u32,
    },
    /// A scheduled fault became visible to the simulation.
    FaultInjected {
        /// Which fault class fired.
        fault: FaultClass,
        /// Affected host, or [`CLUSTER_WIDE`].
        host: u32,
    },
    /// A wake attempt against a faulted host failed and will back off.
    WakeFailed {
        /// Host that refused to wake.
        host: u32,
        /// 1-based recovery attempt.
        attempt: u32,
    },
    /// Every wake retry was exhausted; the host stays asleep.
    WakeAbandoned {
        /// Host abandoned as unwakeable for now.
        host: u32,
        /// Attempts spent before giving up.
        attempts: u32,
    },
    /// A memory-server daemon crashed; its pages are unreachable.
    MemServerCrashed {
        /// Home host whose memory server died.
        host: u32,
    },
    /// A crashed memory-server daemon restarted and serves again.
    MemServerRestarted {
        /// Home host whose memory server recovered.
        host: u32,
    },
    /// An in-flight migration stalled and entered cancel-and-retry.
    MigrationStalled {
        /// VM being moved.
        vm: u32,
        /// Source host.
        from: u32,
        /// Destination host.
        to: u32,
        /// Id of the decision whose migration stalled.
        decision: u64,
    },
    /// A stalled migration was abandoned after bounded retries.
    MigrationAborted {
        /// VM that stays at the source.
        vm: u32,
        /// Source host.
        from: u32,
        /// Destination host.
        to: u32,
        /// Retry attempts spent before aborting.
        attempts: u32,
        /// Id of the decision whose migration was abandoned.
        decision: u64,
    },
    /// A recovery policy resolved a fault.
    RecoveryApplied {
        /// Which policy fired.
        action: RecoveryKind,
        /// The VM or host the action applied to (see `action`).
        target: u32,
        /// Id of the decision the recovery belongs to.
        decision: u64,
    },
    /// Free-form annotation (bench banners, harness notes).
    Note {
        /// The message text.
        text: String,
    },
}

impl Event {
    /// Every kind tag, indexed by [`Event::kind_index`].
    pub(crate) const KINDS: [&'static str; 20] = [
        "interval_started",
        "policy_decision",
        "decision_made",
        "plan_audit",
        "migration_started",
        "migration_completed",
        "host_suspended",
        "host_resumed",
        "wol_retry",
        "page_fault_fetched",
        "capacity_exhausted",
        "fault_injected",
        "wake_failed",
        "wake_abandoned",
        "memserver_crashed",
        "memserver_restarted",
        "migration_stalled",
        "migration_aborted",
        "recovery_applied",
        "note",
    ];

    /// Position of this event's kind in [`Event::KINDS`].
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            Event::IntervalStarted { .. } => 0,
            Event::PolicyDecision { .. } => 1,
            Event::DecisionMade { .. } => 2,
            Event::PlanAudit { .. } => 3,
            Event::MigrationStarted { .. } => 4,
            Event::MigrationCompleted { .. } => 5,
            Event::HostSuspended { .. } => 6,
            Event::HostResumed { .. } => 7,
            Event::WolRetry { .. } => 8,
            Event::PageFaultFetched { .. } => 9,
            Event::CapacityExhausted { .. } => 10,
            Event::FaultInjected { .. } => 11,
            Event::WakeFailed { .. } => 12,
            Event::WakeAbandoned { .. } => 13,
            Event::MemServerCrashed { .. } => 14,
            Event::MemServerRestarted { .. } => 15,
            Event::MigrationStalled { .. } => 16,
            Event::MigrationAborted { .. } => 17,
            Event::RecoveryApplied { .. } => 18,
            Event::Note { .. } => 19,
        }
    }

    /// Stable snake_case kind tag used in encodings and metrics labels.
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }

    /// Severity of this event kind.
    pub fn level(&self) -> Level {
        match self {
            Event::WolRetry { .. }
            | Event::CapacityExhausted { .. }
            | Event::FaultInjected { .. }
            | Event::WakeFailed { .. }
            | Event::WakeAbandoned { .. }
            | Event::MemServerCrashed { .. }
            | Event::MigrationStalled { .. }
            | Event::MigrationAborted { .. } => Level::Warn,
            Event::IntervalStarted { .. } | Event::PageFaultFetched { .. } => Level::Debug,
            _ => Level::Info,
        }
    }

    fn encode_fields(&self, out: &mut String) {
        match self {
            Event::IntervalStarted { interval, active } => {
                let _ = write!(out, r#","interval":{interval},"active":{active}"#);
            }
            Event::PolicyDecision { interval, actions } => {
                let _ = write!(out, r#","interval":{interval},"actions":{actions}"#);
            }
            Event::DecisionMade { decision, class, vm, target, candidates } => {
                let _ = write!(
                    out,
                    r#","decision":{decision},"class":"{}","vm":{vm},"target":{target},"candidates":{candidates}"#,
                    class.as_str()
                );
            }
            Event::PlanAudit {
                interval,
                policy,
                decision_base,
                actions,
                exchanges,
                vacated,
                woken,
                approved,
                drained,
                candidates,
                demand_mib,
            } => {
                let _ = write!(out, r#","interval":{interval},"policy":"#);
                escape_into(out, policy);
                let _ = write!(
                    out,
                    r#","decision_base":{decision_base},"actions":{actions},"exchanges":{exchanges},"vacated":{vacated},"woken":{woken},"approved":{approved},"drained":{drained},"candidates":{candidates},"demand_mib":{demand_mib}"#
                );
            }
            Event::MigrationStarted { vm, from, to, kind, decision } => {
                let _ = write!(
                    out,
                    r#","vm":{vm},"from":{from},"to":{to},"mig":"{}","decision":{decision}"#,
                    kind.as_str()
                );
            }
            Event::MigrationCompleted {
                vm,
                from,
                to,
                kind,
                moved_bytes,
                downtime_us,
                decision,
            } => {
                let _ = write!(
                    out,
                    r#","vm":{vm},"from":{from},"to":{to},"mig":"{}","moved_bytes":{moved_bytes},"downtime_us":{downtime_us},"decision":{decision}"#,
                    kind.as_str()
                );
            }
            Event::HostSuspended { host } | Event::HostResumed { host } => {
                let _ = write!(out, r#","host":{host}"#);
            }
            Event::WolRetry { host, attempt } => {
                let _ = write!(out, r#","host":{host},"attempt":{attempt}"#);
            }
            Event::PageFaultFetched { vm, page } => {
                let _ = write!(out, r#","vm":{vm},"page":{page}"#);
            }
            Event::CapacityExhausted { host } => {
                let _ = write!(out, r#","host":{host}"#);
            }
            Event::FaultInjected { fault, host } => {
                let _ = write!(out, r#","fault":"{}","host":{host}"#, fault.as_str());
            }
            Event::WakeFailed { host, attempt } => {
                let _ = write!(out, r#","host":{host},"attempt":{attempt}"#);
            }
            Event::WakeAbandoned { host, attempts } => {
                let _ = write!(out, r#","host":{host},"attempts":{attempts}"#);
            }
            Event::MemServerCrashed { host } | Event::MemServerRestarted { host } => {
                let _ = write!(out, r#","host":{host}"#);
            }
            Event::MigrationStalled { vm, from, to, decision } => {
                let _ = write!(out, r#","vm":{vm},"from":{from},"to":{to},"decision":{decision}"#);
            }
            Event::MigrationAborted { vm, from, to, attempts, decision } => {
                let _ = write!(
                    out,
                    r#","vm":{vm},"from":{from},"to":{to},"attempts":{attempts},"decision":{decision}"#
                );
            }
            Event::RecoveryApplied { action, target, decision } => {
                let _ = write!(
                    out,
                    r#","action":"{}","target":{target},"decision":{decision}"#,
                    action.as_str()
                );
            }
            Event::Note { text } => {
                out.push_str(",\"text\":");
                escape_into(out, text);
            }
        }
    }
}

/// An [`Event`] plus its bus-assigned timestamp and sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Simulated time at which the event was emitted.
    pub time: SimTime,
    /// Monotonic per-bus sequence number, starting at 0.
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

impl EventRecord {
    /// Encodes the record as a single JSON object (no trailing newline).
    ///
    /// The field order is fixed (`t`, `seq`, `kind`, payload fields) so
    /// the output is byte-stable for golden tests.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            r#"{{"t":{},"seq":{},"kind":"{}""#,
            self.time.as_micros(),
            self.seq,
            self.event.kind()
        );
        self.event.encode_fields(&mut out);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_filtering_is_ordered() {
        assert!(Level::Debug.allows(Level::Info));
        assert!(Level::Info.allows(Level::Warn));
        assert!(!Level::Warn.allows(Level::Info));
        assert!(!Level::Off.allows(Level::Warn));
        assert!(!Level::Debug.allows(Level::Off));
    }

    #[test]
    fn fault_event_encodings_are_stable() {
        let rec = EventRecord {
            time: SimTime::from_secs(60),
            seq: 7,
            event: Event::FaultInjected { fault: FaultClass::MemServerCrash, host: 3 },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"t":60000000,"seq":7,"kind":"fault_injected","fault":"memserver_crash","host":3}"#
        );
        let rec = EventRecord {
            time: SimTime::ZERO,
            seq: 0,
            event: Event::RecoveryApplied {
                action: RecoveryKind::RetryWake,
                target: 9,
                decision: 41,
            },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"t":0,"seq":0,"kind":"recovery_applied","action":"retry_wake","target":9,"decision":41}"#
        );
    }

    #[test]
    fn decision_event_encodings_are_stable() {
        let rec = EventRecord {
            time: SimTime::from_secs(300),
            seq: 12,
            event: Event::DecisionMade {
                decision: 7,
                class: DecisionClass::Consolidate,
                vm: 42,
                target: 33,
                candidates: 3,
            },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"t":300000000,"seq":12,"kind":"decision_made","decision":7,"class":"consolidate","vm":42,"target":33,"candidates":3}"#
        );
        let rec = EventRecord {
            time: SimTime::from_secs(300),
            seq: 13,
            event: Event::PlanAudit {
                interval: 1,
                policy: "FulltoPartial",
                decision_base: 7,
                actions: 12,
                exchanges: 2,
                vacated: 4,
                woken: 1,
                approved: true,
                drained: 0,
                candidates: 31,
                demand_mib: 18_200,
            },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"t":300000000,"seq":13,"kind":"plan_audit","interval":1,"policy":"FulltoPartial","decision_base":7,"actions":12,"exchanges":2,"vacated":4,"woken":1,"approved":true,"drained":0,"candidates":31,"demand_mib":18200}"#
        );
        let rec = EventRecord {
            time: SimTime::from_secs(301),
            seq: 14,
            event: Event::MigrationStarted {
                vm: 42,
                from: 0,
                to: 33,
                kind: MigrationKind::Partial,
                decision: 7,
            },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"t":301000000,"seq":14,"kind":"migration_started","vm":42,"from":0,"to":33,"mig":"partial","decision":7}"#
        );
    }

    #[test]
    fn fault_events_warn_and_recoveries_inform() {
        assert_eq!(Event::WakeAbandoned { host: 1, attempts: 6 }.level(), Level::Warn);
        assert_eq!(
            Event::MigrationStalled { vm: 1, from: 0, to: 2, decision: 0 }.level(),
            Level::Warn
        );
        assert_eq!(Event::MemServerRestarted { host: 1 }.level(), Level::Info);
        assert_eq!(
            Event::RecoveryApplied { action: RecoveryKind::Rehome, target: 1, decision: 0 }.level(),
            Level::Info
        );
    }

    #[test]
    fn kind_tags_are_distinct() {
        let events = [
            Event::IntervalStarted { interval: 0, active: 0 },
            Event::PolicyDecision { interval: 0, actions: 0 },
            Event::DecisionMade {
                decision: 0,
                class: DecisionClass::Consolidate,
                vm: 0,
                target: 0,
                candidates: 0,
            },
            Event::PlanAudit {
                interval: 0,
                policy: "",
                decision_base: 0,
                actions: 0,
                exchanges: 0,
                vacated: 0,
                woken: 0,
                approved: false,
                drained: 0,
                candidates: 0,
                demand_mib: 0,
            },
            Event::MigrationStarted {
                vm: 0,
                from: 0,
                to: 0,
                kind: MigrationKind::Full,
                decision: 0,
            },
            Event::MigrationCompleted {
                vm: 0,
                from: 0,
                to: 0,
                kind: MigrationKind::Partial,
                moved_bytes: 0,
                downtime_us: 0,
                decision: 0,
            },
            Event::HostSuspended { host: 0 },
            Event::HostResumed { host: 0 },
            Event::WolRetry { host: 0, attempt: 1 },
            Event::PageFaultFetched { vm: 0, page: 0 },
            Event::CapacityExhausted { host: 0 },
            Event::FaultInjected { fault: FaultClass::WakeFailure, host: 0 },
            Event::WakeFailed { host: 0, attempt: 1 },
            Event::WakeAbandoned { host: 0, attempts: 6 },
            Event::MemServerCrashed { host: 0 },
            Event::MemServerRestarted { host: 0 },
            Event::MigrationStalled { vm: 0, from: 0, to: 0, decision: 0 },
            Event::MigrationAborted { vm: 0, from: 0, to: 0, attempts: 3, decision: 0 },
            Event::RecoveryApplied { action: RecoveryKind::Rehome, target: 0, decision: 0 },
            Event::Note { text: String::new() },
        ];
        // Each variant owns one slot of the cached-counter table.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.kind_index(), i, "{}", e.kind());
        }
        let mut kinds: Vec<_> = events.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len());
    }
}
