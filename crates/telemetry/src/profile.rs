//! Hierarchical scope profiler.
//!
//! The profiler maintains a *call tree*: every [`ProfileScope`] attaches to
//! the scope that was live when it started, so one run yields a tree of
//! named nodes with call counts, total and self time — both simulated
//! (deterministic) and wall-clock (the real cost of the code).
//!
//! The tree snapshot exports in three shapes:
//!
//! * a rendered text tree ([`ProfileTree::render`]);
//! * a JSON document ([`ProfileTree::to_json`]);
//! * folded-stack lines ([`ProfileTree::folded`]) in the format
//!   `flamegraph.pl` and inferno consume: `root;child;leaf <value>`.
//!
//! Determinism: node identity and order come from first-entry order,
//! which is a pure function of the simulation's control flow, so the
//! tree *shape*, call counts and simulated times are byte-identical
//! across fixed-seed runs. Wall-clock fields are not; exports take a
//! [`FoldedMetric`] / `include_wall` selector so callers that need
//! byte-stable output (CI determinism legs, `oasis report`) can omit
//! them. Wall-clock readings never enter the event stream.
//!
//! ```
//! use oasis_telemetry::{Level, Telemetry};
//! let tel = Telemetry::new(Level::Info);
//! {
//!     let day = tel.profile("run_day");
//!     {
//!         let _plan = tel.profile("planner");
//!     }
//!     day.end();
//! }
//! let tree = tel.profiler().snapshot();
//! assert_eq!(tree.roots[0].name, "run_day");
//! assert_eq!(tree.roots[0].children[0].name, "planner");
//! ```

use crate::Telemetry;
use oasis_sim::SimTime;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which per-node value a folded-stack export carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FoldedMetric {
    /// Self wall-clock microseconds (the flamegraph default).
    #[default]
    WallMicros,
    /// Self simulated microseconds — byte-stable across fixed-seed runs.
    SimMicros,
    /// Call counts — byte-stable across fixed-seed runs.
    Calls,
}

impl std::str::FromStr for FoldedMetric {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "wall" | "wall-us" => Ok(FoldedMetric::WallMicros),
            "sim" | "sim-us" => Ok(FoldedMetric::SimMicros),
            "calls" => Ok(FoldedMetric::Calls),
            other => Err(format!("unknown folded metric {other:?} (expected wall|sim|calls)")),
        }
    }
}

/// One node of the internal call-tree arena.
struct Node {
    name: &'static str,
    children: Vec<usize>,
    calls: u64,
    wall_ns: u64,
    sim_us: u64,
}

impl Node {
    fn named(name: &'static str) -> Node {
        Node { name, children: Vec::new(), calls: 0, wall_ns: 0, sim_us: 0 }
    }
}

struct ProfState {
    /// Arena; `nodes[0]` is a synthetic unnamed root that only anchors
    /// top-level scopes.
    nodes: Vec<Node>,
    /// Indices of the currently live scopes, outermost first.
    stack: Vec<usize>,
}

/// The call-tree profiler attached to a [`Telemetry`] bus.
///
/// Cheap to clone; all clones share state. Disabled profilers (the
/// [`Telemetry::disabled`] default) make every operation a no-op.
#[derive(Clone)]
pub struct Profiler {
    state: Option<Arc<Mutex<ProfState>>>,
}

impl Profiler {
    pub(crate) fn new(enabled: bool) -> Profiler {
        Profiler {
            state: enabled.then(|| {
                Arc::new(Mutex::new(ProfState { nodes: vec![Node::named("")], stack: Vec::new() }))
            }),
        }
    }

    /// Opens a scope named `name` under the currently live scope and
    /// returns its node index.
    fn enter(&self, name: &'static str) -> Option<usize> {
        let state = self.state.as_ref()?;
        let mut st = state.lock().unwrap();
        let parent = st.stack.last().copied().unwrap_or(0);
        let existing =
            st.nodes[parent].children.iter().copied().find(|&c| st.nodes[c].name == name);
        let idx = existing.unwrap_or_else(|| {
            let idx = st.nodes.len();
            st.nodes.push(Node::named(name));
            st.nodes[parent].children.push(idx);
            idx
        });
        st.stack.push(idx);
        Some(idx)
    }

    /// Closes the scope at `idx`, attributing `wall_ns`/`sim_us` to it.
    ///
    /// Misnested closes (a scope closed while an inner one is still
    /// live) pop the inner scopes without attributing time to them; a
    /// close whose scope is no longer on the stack is ignored.
    fn exit(&self, idx: usize, wall_ns: u64, sim_us: u64) {
        let Some(state) = self.state.as_ref() else { return };
        let mut st = state.lock().unwrap();
        let Some(pos) = st.stack.iter().rposition(|&i| i == idx) else { return };
        st.stack.truncate(pos);
        let node = &mut st.nodes[idx];
        node.calls += 1;
        node.wall_ns += wall_ns;
        node.sim_us += sim_us;
    }

    /// Copies the current call tree out as a [`ProfileTree`].
    ///
    /// Live (unclosed) scopes appear with whatever was attributed so
    /// far; child order is first-entry order.
    pub fn snapshot(&self) -> ProfileTree {
        let Some(state) = self.state.as_ref() else {
            return ProfileTree { roots: Vec::new() };
        };
        let st = state.lock().unwrap();
        fn build(st: &ProfState, idx: usize) -> ProfileNode {
            let node = &st.nodes[idx];
            let children: Vec<ProfileNode> = node.children.iter().map(|&c| build(st, c)).collect();
            let child_wall: u64 = children.iter().map(|c| c.total_wall_ns).sum();
            let child_sim: u64 = children.iter().map(|c| c.total_sim_us).sum();
            ProfileNode {
                name: node.name.to_string(),
                calls: node.calls,
                total_wall_ns: node.wall_ns,
                self_wall_ns: node.wall_ns.saturating_sub(child_wall),
                total_sim_us: node.sim_us,
                self_sim_us: node.sim_us.saturating_sub(child_sim),
                children,
            }
        }
        let roots = st.nodes[0].children.iter().map(|&c| build(&st, c)).collect();
        ProfileTree { roots }
    }
}

/// One node of a [`ProfileTree`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Scope name.
    pub name: String,
    /// Completed passes through this scope.
    pub calls: u64,
    /// Wall-clock nanoseconds spent inside this scope, children included.
    pub total_wall_ns: u64,
    /// Wall-clock nanoseconds minus the children's totals.
    pub self_wall_ns: u64,
    /// Simulated microseconds spent inside this scope, children included.
    pub total_sim_us: u64,
    /// Simulated microseconds minus the children's totals.
    pub self_sim_us: u64,
    /// Child scopes in first-entry order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn folded_value(&self, metric: FoldedMetric) -> u64 {
        match metric {
            FoldedMetric::WallMicros => self.self_wall_ns / 1_000,
            FoldedMetric::SimMicros => self.self_sim_us,
            FoldedMetric::Calls => self.calls,
        }
    }
}

/// A deterministic snapshot of the profiler's call tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileTree {
    /// Top-level scopes in first-entry order.
    pub roots: Vec<ProfileNode>,
}

impl ProfileTree {
    /// True when nothing was profiled.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Total wall-clock nanoseconds across the top-level scopes.
    pub fn total_wall_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_wall_ns).sum()
    }

    /// Sum of self wall-clock nanoseconds over every node — equals
    /// [`ProfileTree::total_wall_ns`] up to `saturating_sub` clamping.
    pub fn self_wall_ns_sum(&self) -> u64 {
        fn walk(n: &ProfileNode) -> u64 {
            n.self_wall_ns + n.children.iter().map(walk).sum::<u64>()
        }
        self.roots.iter().map(walk).sum()
    }

    /// Every node paired with its depth, in pre-order.
    pub fn flatten(&self) -> Vec<(usize, &ProfileNode)> {
        fn walk<'t>(n: &'t ProfileNode, depth: usize, out: &mut Vec<(usize, &'t ProfileNode)>) {
            out.push((depth, n));
            for c in &n.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = Vec::new();
        for r in &self.roots {
            walk(r, 0, &mut out);
        }
        out
    }

    /// Folded-stack lines (`a;b;c <value>`), one per node in pre-order.
    ///
    /// With [`FoldedMetric::SimMicros`] or [`FoldedMetric::Calls`] the
    /// output is byte-identical across fixed-seed runs; pipe it through
    /// `flamegraph.pl` or `inferno-flamegraph` to render.
    pub fn folded(&self, metric: FoldedMetric) -> String {
        fn walk(n: &ProfileNode, path: &mut String, metric: FoldedMetric, out: &mut String) {
            let len = path.len();
            if !path.is_empty() {
                path.push(';');
            }
            path.push_str(&n.name);
            let _ = writeln!(out, "{path} {}", n.folded_value(metric));
            for c in &n.children {
                walk(c, path, metric, out);
            }
            path.truncate(len);
        }
        let mut out = String::new();
        let mut path = String::new();
        for r in &self.roots {
            walk(r, &mut path, metric, &mut out);
        }
        out
    }

    /// Renders the tree as indented text, two spaces per level.
    ///
    /// With `include_wall` false the output contains only deterministic
    /// fields (calls and simulated time).
    pub fn render(&self, include_wall: bool) -> String {
        let mut out = String::new();
        for (depth, n) in self.flatten() {
            let _ = write!(
                out,
                "{:indent$}{name:<width$} calls={calls:<8} sim_total={st}us sim_self={ss}us",
                "",
                indent = depth * 2,
                name = n.name,
                width = 28usize.saturating_sub(depth * 2),
                calls = n.calls,
                st = n.total_sim_us,
                ss = n.self_sim_us,
            );
            if include_wall {
                let _ = write!(
                    out,
                    " wall_total={:.3}ms wall_self={:.3}ms",
                    n.total_wall_ns as f64 / 1e6,
                    n.self_wall_ns as f64 / 1e6,
                );
            }
            out.push('\n');
        }
        out
    }

    /// Encodes the tree as a JSON array of node objects (field order
    /// fixed for byte-stable golden output; wall fields gated on
    /// `include_wall`).
    pub fn to_json(&self, include_wall: bool) -> String {
        fn node(n: &ProfileNode, include_wall: bool, out: &mut String) {
            let _ = write!(
                out,
                r#"{{"name":"{}","calls":{},"sim_total_us":{},"sim_self_us":{}"#,
                n.name, n.calls, n.total_sim_us, n.self_sim_us
            );
            if include_wall {
                let _ = write!(
                    out,
                    r#","wall_total_ns":{},"wall_self_ns":{}"#,
                    n.total_wall_ns, n.self_wall_ns
                );
            }
            out.push_str(",\"children\":[");
            for (i, c) in n.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                node(c, include_wall, out);
            }
            out.push_str("]}");
        }
        let mut out = String::from("[");
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            node(r, include_wall, &mut out);
        }
        out.push(']');
        out
    }
}

/// A live profiler scope; closes (and attributes its time) when dropped
/// or on [`ProfileScope::end`].
///
/// With the profiler disabled the scope carries nothing — no clock
/// reads on entry, a no-op on drop — so scopes can bracket per-host
/// inner loops without taxing profile-off runs.
#[derive(Debug)]
pub struct ProfileScope {
    live: Option<ScopeLive>,
}

#[derive(Debug)]
struct ScopeLive {
    telemetry: Telemetry,
    node: usize,
    start_sim: SimTime,
    start_wall: Instant,
}

impl ProfileScope {
    // oasis-lint: boundary(wall-clock, "profiler wall timing is observability output only; sim decisions read telemetry.now()")
    pub(crate) fn start(telemetry: &Telemetry, name: &'static str) -> ProfileScope {
        let Some(node) = telemetry.profiler().enter(name) else {
            return ProfileScope { live: None };
        };
        ProfileScope {
            live: Some(ScopeLive {
                telemetry: telemetry.clone(),
                node,
                start_sim: telemetry.now(),
                start_wall: Instant::now(),
            }),
        }
    }

    /// Closes the scope now instead of at scope exit.
    pub fn end(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        let Some(live) = self.live.take() else { return };
        let wall_ns = u64::try_from(live.start_wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let sim_us = live.telemetry.now().saturating_since(live.start_sim).as_micros();
        live.telemetry.profiler().exit(live.node, wall_ns, sim_us);
    }
}

impl Drop for ProfileScope {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;

    fn sample_tree() -> ProfileTree {
        let tel = Telemetry::new(Level::Info);
        tel.advance_to(SimTime::from_secs(0));
        let day = tel.profile("run_day");
        {
            let plan = tel.profile("planner");
            tel.advance_to(SimTime::from_secs(10));
            plan.end();
            let _fetch = tel.profile("fetch");
            tel.advance_to(SimTime::from_secs(15));
        }
        {
            let _plan = tel.profile("planner");
            tel.advance_to(SimTime::from_secs(18));
        }
        day.end();
        tel.profiler().snapshot()
    }

    #[test]
    fn scopes_nest_and_merge_by_name() {
        let tree = sample_tree();
        assert_eq!(tree.roots.len(), 1);
        let day = &tree.roots[0];
        assert_eq!(day.name, "run_day");
        assert_eq!(day.calls, 1);
        let names: Vec<&str> = day.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["planner", "fetch"], "first-entry order, merged by name");
        assert_eq!(day.children[0].calls, 2, "re-entered scopes merge");
    }

    #[test]
    fn self_time_is_total_minus_children() {
        let tree = sample_tree();
        let day = &tree.roots[0];
        assert_eq!(day.total_sim_us, 18_000_000);
        // planner: 10s + 3s; fetch: 5s; day self: 18 − 13 − 5 = 0.
        assert_eq!(day.children[0].total_sim_us, 13_000_000);
        assert_eq!(day.children[1].total_sim_us, 5_000_000);
        assert_eq!(day.self_sim_us, 0);
        let self_sum: u64 = tree.flatten().iter().map(|(_, n)| n.self_sim_us).sum();
        assert_eq!(self_sum, day.total_sim_us, "self times sum to the root total");
        assert_eq!(tree.self_wall_ns_sum(), tree.total_wall_ns());
    }

    #[test]
    fn folded_output_is_flamegraph_shaped() {
        let tree = sample_tree();
        let folded = tree.folded(FoldedMetric::Calls);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, ["run_day 1", "run_day;planner 2", "run_day;fetch 1"]);
        let sim = tree.folded(FoldedMetric::SimMicros);
        assert!(sim.contains("run_day;planner 13000000"));
        for line in sim.lines() {
            let (_, value) = line.rsplit_once(' ').expect("stack value");
            value.parse::<u64>().expect("numeric value");
        }
    }

    #[test]
    fn render_and_json_are_deterministic_without_wall() {
        let a = sample_tree();
        let b = sample_tree();
        assert_eq!(a.render(false), b.render(false));
        assert_eq!(a.to_json(false), b.to_json(false));
        assert!(!a.to_json(false).contains("wall"));
        assert!(a.to_json(true).contains("\"wall_total_ns\""));
        crate::json::parse(&a.to_json(true)).expect("valid JSON");
    }

    #[test]
    fn disabled_profiler_is_a_no_op() {
        let tel = Telemetry::disabled();
        {
            let _scope = tel.profile("anything");
        }
        assert!(tel.profiler().snapshot().is_empty());
    }

    #[test]
    fn span_records_sim_and_wall_durations() {
        let tel = Telemetry::new(Level::Info);
        tel.advance_to(SimTime::from_secs(10));
        let scope = tel.profile("plan");
        tel.advance_to(SimTime::from_secs(13));
        std::thread::sleep(std::time::Duration::from_millis(1));
        scope.end();
        let plan = &tel.profiler().snapshot().roots[0];
        assert_eq!((plan.name.as_str(), plan.calls), ("plan", 1));
        assert_eq!(plan.total_sim_us, 3_000_000);
        assert!(plan.total_wall_ns >= 1_000_000, "wall reading {} ns", plan.total_wall_ns);
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let tel = Telemetry::disabled();
        let scope = tel.profile("plan");
        assert!(scope.live.is_none(), "a disabled bus starts no clock");
        tel.advance_to(SimTime::from_secs(3));
        scope.end();
        assert!(tel.profiler().snapshot().is_empty());
    }

    #[test]
    fn misnested_end_does_not_corrupt_the_stack() {
        let tel = Telemetry::new(Level::Info);
        let outer = tel.profile("outer");
        let _inner = tel.profile("inner");
        // Ending the outer scope while the inner is live pops both; the
        // inner's later drop finds its node gone from the stack and is
        // ignored.
        outer.end();
        drop(_inner);
        let tree = tel.profiler().snapshot();
        assert_eq!(tree.roots[0].calls, 1);
        assert_eq!(tree.roots[0].children[0].calls, 0, "inner never closed cleanly");
    }

    #[test]
    fn folded_metric_parses() {
        assert_eq!("wall".parse::<FoldedMetric>(), Ok(FoldedMetric::WallMicros));
        assert_eq!("sim".parse::<FoldedMetric>(), Ok(FoldedMetric::SimMicros));
        assert_eq!("calls".parse::<FoldedMetric>(), Ok(FoldedMetric::Calls));
        assert!("bogus".parse::<FoldedMetric>().is_err());
    }
}
