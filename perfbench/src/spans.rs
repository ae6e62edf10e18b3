//! Spans recorded around calls into the simulator's public functions.
//!
//! Every span is opened and closed in the benchmark's own code; nothing
//! inside the program is instrumented. Spans are kept in memory and
//! written out once, after the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Mutex;

use oasis_bench::timing::monotonic_secs;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id, from 1; 0 means "no parent".
    pub id: u32,
    /// The enclosing span, or 0.
    pub parent: u32,
    /// The unit (or probe) this span belongs to.
    pub unit: u32,
    /// `<layer>.<call>`, e.g. `cluster.run_day`.
    pub name: &'static str,
    /// Monotonic start, seconds.
    pub start: f64,
    /// Monotonic end, seconds.
    pub end: f64,
}

impl Span {
    /// The layer: the part of the name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Wall seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans from any thread.
pub struct Recorder {
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
}

impl Recorder {
    /// An empty recorder with room for `capacity` spans, reserved up
    /// front so recording does not reallocate mid-run.
    pub fn new(capacity: usize) -> Recorder {
        Recorder { spans: Mutex::new(Vec::with_capacity(capacity)), next_id: AtomicU32::new(1) }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent nested spans. Returns `f`'s result and the span's
    /// wall seconds.
    pub fn measure<R>(
        &self,
        name: &'static str,
        parent: u32,
        unit: u32,
        f: impl FnOnce(u32) -> R,
    ) -> (R, f64) {
        let id = self.next_id.fetch_add(1, Relaxed);
        let start = monotonic_secs();
        let out = f(id);
        let end = monotonic_secs();
        self.guard().push(Span { id, parent, unit, name, start, end });
        (out, end - start)
    }

    /// Runs `f` and returns the spans closed while it ran.
    pub fn capture(&self, f: impl FnOnce()) -> Vec<Span> {
        let mark = self.guard().len();
        f();
        self.guard()[mark..].to_vec()
    }

    fn guard(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span list poisoned by a panicking recorder")
    }

    /// The recorded spans, in closing order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list poisoned by a panicking recorder")
    }
}

/// Runs `f` in a span when tracing, or just runs it.
pub fn maybe<R>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: u32,
    unit: u32,
    f: impl FnOnce(u32) -> R,
) -> R {
    match rec {
        Some(r) => r.measure(name, parent, unit, f).0,
        None => f(0),
    }
}

/// Seconds of `span` covered by its children (the union of their
/// intervals, clipped to the span).
fn child_cover(span: &Span, children: &[&Span]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

fn children_of(spans: &[Span]) -> BTreeMap<u32, Vec<&Span>> {
    let mut kids: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        kids.entry(s.parent).or_default().push(s);
    }
    kids
}

/// Self seconds per layer: each span's duration minus the part its
/// children cover, summed by layer.
pub fn self_secs_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let kids = children_of(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        let cover = kids.get(&s.id).map_or(0.0, |k| child_cover(s, k));
        *out.entry(s.layer()).or_insert(0.0) += s.secs() - cover;
    }
    out
}

/// For every span named `root`, the share of its wall time that its
/// children cover.
pub fn coverage(spans: &[Span], root: &str) -> Vec<f64> {
    let kids = children_of(spans);
    spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| {
            let cover = kids.get(&s.id).map_or(0.0, |k| child_cover(s, k));
            if s.secs() > 0.0 {
                cover / s.secs()
            } else {
                1.0
            }
        })
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"unit\":{},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9}}}",
            s.id, s.parent, s.unit, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: f64, end: f64) -> Span {
        Span { id, parent, unit: 1, name, start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "bench.unit", 0.0, 10.0),
            span(2, 1, "cluster.new", 1.0, 4.0),
            span(3, 1, "cluster.run_day", 3.0, 9.0),
        ];
        let by_layer = self_secs_by_layer(&spans);
        assert!((by_layer["bench"] - 2.0).abs() < 1e-12);
        assert!((by_layer["cluster"] - 9.0).abs() < 1e-12);
        assert!((coverage(&spans, "bench.unit")[0] - 0.8).abs() < 1e-12);
    }
}
