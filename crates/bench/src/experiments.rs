//! The paper's evaluation as one table: [`ALL`] lists every experiment
//! in `EXPERIMENTS.md`'s order, each returning exactly the text it prints.
//! The Figure 5, §4.4.3 and Figure 6 comparisons with the paper are
//! [`Row`]s, read both by their renderers and by the claims test.

/// Appends one formatted line to a `String`: `outln!(out)` for a blank
/// line, `outln!(out, "fmt", args..)` otherwise.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

mod cluster;
mod lab;

pub use lab::{fig05_claims, fig06_claims, net_micro_claims};

/// One table, figure or study, and its section of `EXPERIMENTS.md`.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Stable id: the `--only` argument and the heading's tag.
    pub id: &'static str,
    /// Section heading.
    pub title: &'static str,
    /// Runs the experiment with `runs` repetitions per averaged point and
    /// returns what it prints.
    pub run: fn(u64) -> String,
    /// Commentary after the output: paper values and deviations, never a
    /// measured number.
    pub notes: &'static str,
}

impl Experiment {
    /// Renders the experiment's markdown section: heading, the output in
    /// a fenced `text` block, then the notes.
    pub fn section(&self, runs: u64) -> String {
        let output = (self.run)(runs);
        format!("## {} (`{}`)\n\n```text\n{output}```\n\n{}\n", self.title, self.id, self.notes)
    }
}

/// Every experiment, in document order.
pub const ALL: [Experiment; 24] = [
    Experiment {
        id: "fig01",
        title: "Figure 1 — idle memory access patterns",
        run: lab::fig01,
        notes: "\
All three classes touch under 5 % of their 4 GiB allocation in an idle
hour, as §2 reports.",
    },
    Experiment {
        id: "fig02",
        title: "Figure 2 — server sleeping opportunities",
        run: lab::fig02,
        notes: "\
Ten co-located VMs leave a host essentially no sleep: the observation
that motivates the low-power memory server. The second table replays
the same request processes through the full ACPI state machine.",
    },
    Experiment {
        id: "table1",
        title: "Table 1 — energy profiles",
        run: lab::table1,
        notes: "\
The paper's Table 1, taken verbatim as model constants; the last two
lines are derived from them.",
    },
    Experiment {
        id: "table2",
        title: "Table 2 — desktop workloads",
        run: lab::table2,
        notes: "\
The paper's Table 2 workloads. Their start-up footprints are calibrated
models, not values from the paper.",
    },
    Experiment {
        id: "fig05",
        title: "Figure 5 — consolidation latencies",
        run: lab::fig05,
        notes: "\
Averages of 3 runs, as in the paper, on the functional two-host lab:
real page tables, compression and the SAS handoff protocol.
`paper_claims.rs` holds five rows within 10 % of the paper.

Deviation: the second, differential upload comes in more than 10 %
under the paper's 2.2 s, so its row carries no bound rather than a
widened one. It moves only the pages dirtied since the first migration,
and the paper does not say how much state its second upload moved, so
that dirty set has nothing to calibrate against.",
    },
    Experiment {
        id: "net_micro",
        title: "§4.4.3 — network traffic of one consolidation cycle",
        run: lab::net_micro,
        notes: "\
`paper_claims.rs` holds all three network volumes inside the paper's
error bars. The SAS upload takes the host-local drive path (§4.3), so
the paper gives no figure for it.",
    },
    Experiment {
        id: "fig06",
        title: "Figure 6 — application start-up latency",
        run: lab::fig06,
        notes: "\
`paper_claims.rs` holds the LibreOffice start-up and the largest ratio
within 10 % of the paper's. This result justifies converting activated
partial VMs into full VMs.",
    },
    Experiment {
        id: "fig07",
        title: "Figure 7 — active VMs and powered hosts over a day",
        run: cluster::fig07,
        notes: "\
Powered hosts follow the diurnal activity; the weekend is far quieter
than the weekday.",
    },
    Experiment {
        id: "fig08",
        title: "Figure 8 — energy savings vs consolidation hosts",
        run: cluster::fig08,
        notes: "\
`tests/cluster_evaluation.rs` holds the shape: a knee at 4
consolidation hosts, the policy order, and weekends above weekdays.
Three deviations from the paper:

1. **FulltoPartial saves less.** We charge powered consolidation hosts,
   suspend/resume transitions, serialized migration work and ReturnHome
   wake-ups; §5.3 does not say which of these the paper charged. Table 3
   converges on the paper at low memory-server budgets, where these
   overheads weigh less.
2. **NewHome beats FulltoPartial** (paper: equal). Our morning
   activation wave saturates the consolidation hosts often enough for
   NewHome's relocation to avoid ReturnHome storms. The paper's verdict,
   not worth its complexity, stands.
3. **OnlyPartial saves less than ~6 %.** It saves only while all of a
   home's VMs are idle (13 % of host time in the paper's trace), trading
   a 102.2 W idle host for a 12.9 W sleeping one plus the 42.2 W memory
   server, before the consolidation hosts are charged.",
    },
    Experiment {
        id: "fig09",
        title: "Figure 9 — consolidation-ratio CDF",
        run: cluster::fig09,
        notes: "\
`tests/cluster_evaluation.rs` holds FulltoPartial denser than Default.
Absolute densities run higher than the paper's because the synthetic
working sets pack the 192 GiB effective capacity more uniformly than
the authors' trace did.",
    },
    Experiment {
        id: "fig10",
        title: "Figure 10 — weekday data-transfer breakdown",
        run: cluster::fig10,
        notes: "\
`tests/cluster_evaluation.rs` holds FulltoPartial's extra traffic.",
    },
    Experiment {
        id: "fig11",
        title: "Figure 11 — idle→active transition delays",
        run: cluster::fig11,
        notes: "\
`tests/cluster_evaluation.rs` holds the falling zero-delay share.",
    },
    Experiment {
        id: "table3",
        title: "Table 3 — memory-server power budgets",
        run: cluster::table3,
        notes: "\
Paper, weekday/weekend: 16 W 34 %/59 %, 8 W 37 %/65 %, 4 W 39 %/66 %,
2 W 41 %/67 %. `tests/cluster_evaluation.rs` holds the monotone climb.
Our model is more sensitive to the memory-server draw (Figure 8's first
deviation), so it meets the paper only at low budgets.",
    },
    Experiment {
        id: "fig12",
        title: "Figure 12 — cluster-size sensitivity",
        run: cluster::fig12,
        notes: "\
The densest packing dips: one home host then holds more active VMs
that cannot be consolidated.",
    },
    Experiment {
        id: "baselines",
        title: "Baselines — hybrid consolidation vs prior approaches",
        run: cluster::baselines,
        notes: "\
`AlwaysOn` never consolidates, so it saves nothing by construction;
`FullOnly` is the live-migration-only consolidation of the paper's
prior work [5, 15, 22, 28].",
    },
    Experiment {
        id: "week",
        title: "Week — seven consecutive simulated days",
        run: cluster::week,
        notes: "\
Five weekdays and two weekend days back to back, each with its own
sampled user population: the natural deployment horizon.",
    },
    Experiment {
        id: "fault_injection",
        title: "Fault injection — lossy page requests and Wake-on-LAN",
        run: cluster::fault_injection,
        notes: "\
Not in the paper. Memtap retries a lost page request after a timeout;
the manager retransmits a lost Wake-on-LAN packet each second.",
    },
    Experiment {
        id: "migration_compare",
        title: "§2 — migration mechanisms compared",
        run: lab::migration_compare,
        notes: "\
The §2 trade-off behind the hybrid, for a 4 GiB VM across dirtying
rates and links. Partial migration applies to idle VMs only (§3.1).",
    },
    Experiment {
        id: "server_farm",
        title: "§5.6 — generality: VDI vs server farm vs cloud services",
        run: cluster::server_farm,
        notes: "\
§5.6 expects \"other server workloads\" to consolidate at least as well
as desktops, the most demanding idle class (Figure 1). Populations: the
§5 VDI farm, a web/database farm, and heartbeat-bound cluster members.",
    },
    Experiment {
        id: "ablation_upload",
        title: "Ablation — §4.3 memory-upload optimizations",
        run: lab::ablation_upload,
        notes: "\
The Figure 5 flow with per-page compression and differential upload
toggled.",
    },
    Experiment {
        id: "ablation_overwrite",
        title: "Ablation — §4.4.3 overwrite obviation at reintegration",
        run: lab::ablation_overwrite,
        notes: "\
With obviation off, every dirty page crosses the wire when a partial VM
returns home.",
    },
    Experiment {
        id: "ablation_interval",
        title: "Ablation — planning-interval length",
        run: cluster::ablation_interval,
        notes: "\
§3.1 calls the planning interval \"a configurable parameter\". Long
intervals strand idle VMs at home; the trace's 5-minute resolution
bounds how fast state changes arrive.",
    },
    Experiment {
        id: "ablation_cooldown",
        title: "Ablation — vacate cooldown after ReturnHome",
        run: cluster::ablation_cooldown,
        notes: "\
Not in the paper: a freshly woken home is not re-vacated for a cooldown
period, damping consolidate/return thrash. Zero cooldown is the paper's
eager re-vacate.",
    },
    Experiment {
        id: "ablation_placement",
        title: "Ablation — placement strategy",
        run: cluster::ablation_placement,
        notes: "\
§3.1 leaves anything beyond random destination choice out of scope.",
    },
];

/// The document's opening, printed before the first section.
pub const PREAMBLE: &str = "\
# Experiments — paper vs. measured

Every table and figure of the paper's evaluation, and the studies beyond
it, as printed by `crates/bench` (CI fails if this file differs):

```
OASIS_RUNS=3 cargo run --release -p oasis-bench --bin experiments > EXPERIMENTS.md
```

`--only <id>` prints one section. Each shows its experiment's seeded,
deterministic output, then notes that quote the paper and explain
deviations; measured numbers appear only in the output blocks. The
substrate is simulated, not the authors' Xen testbed and private traces,
so absolute values can differ; the shape must hold.
`crates/bench/tests/paper_claims.rs` holds Figures 5 and 6 and §4.4.3 to
the paper within tolerances, and `tests/cluster_evaluation.rs` holds the
shapes of Figures 8–11 and Table 3.
";

/// How far a measured value may sit from the paper's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tolerance {
    /// Within this fraction of the paper's value.
    Relative(f64),
    /// Inside the paper's `±` error bar of this half-width.
    PlusMinus(f64),
    /// A known deviation with no bound; the experiment's notes say why.
    Deviation,
}

/// One paper-vs-measured comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// What is compared, as the experiment prints it.
    pub label: &'static str,
    /// The simulated value.
    pub measured: f64,
    /// The paper's value.
    pub paper: f64,
    /// How far `measured` may sit from `paper`.
    pub tolerance: Tolerance,
}

impl Row {
    /// `Some(true)` when `measured` is within the bound, `None` for a
    /// [`Tolerance::Deviation`] row.
    pub fn holds(&self) -> Option<bool> {
        let miss = (self.measured - self.paper).abs();
        match self.tolerance {
            Tolerance::Relative(fraction) => Some(miss <= fraction * self.paper.abs()),
            Tolerance::PlusMinus(half_width) => Some(miss <= half_width),
            Tolerance::Deviation => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_bounds() {
        let row = |measured, tolerance| Row { label: "x", measured, paper: 10.0, tolerance };
        assert_eq!(row(10.9, Tolerance::Relative(0.1)).holds(), Some(true));
        assert_eq!(row(8.9, Tolerance::Relative(0.1)).holds(), Some(false));
        assert_eq!(row(10.5, Tolerance::PlusMinus(0.5)).holds(), Some(true));
        assert_eq!(row(9.4, Tolerance::PlusMinus(0.5)).holds(), Some(false));
        assert_eq!(row(1.0, Tolerance::Deviation).holds(), None);
    }
}
