//! The metrics registry: labeled counters.
//!
//! Counters are handed out as cheap `Arc`-backed handles: an increment is
//! one relaxed atomic add, so hot paths fetch their handle once and update
//! it without touching the registry again. The registry exports everything
//! as Prometheus text exposition format or as a JSON document.

use crate::json::escape_into;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Label set: sorted `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

fn labels_of(pairs: &[(&str, &str)]) -> Labels {
    let mut l: Labels = pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    l.sort();
    l
}

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Labels,
}

/// Escapes a label value per the Prometheus text exposition format:
/// only `\`, `"` and newline are escaped (`\\`, `\"`, `\n`); everything
/// else — including other control characters and non-ASCII — passes
/// through verbatim. This deliberately differs from JSON string
/// escaping, which Prometheus parsers would reject (e.g. `\0`).
fn prom_label_value_into(out: &mut String, v: &str) {
    out.push('"');
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Escapes a `# HELP` text per the exposition format: `\` and newline
/// only (quotes are legal verbatim in help text).
fn prom_help_into(out: &mut String, v: &str) {
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

impl MetricKey {
    fn render(&self, out: &mut String) {
        out.push_str(&self.name);
        if !self.labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{k}=");
                prom_label_value_into(out, v);
            }
            out.push('}');
        }
    }
}

/// The registry. Cloning shares the underlying instrument tables.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    inner: Arc<MetricsInner>,
}

#[derive(Debug, Default)]
struct MetricsInner {
    counters: Mutex<BTreeMap<MetricKey, Counter>>,
    help: Mutex<BTreeMap<String, String>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Registers a `# HELP` description for metric `name`; the first
    /// description registered for a name wins. Described metrics get a
    /// HELP line before their TYPE line in [`Metrics::to_prometheus`].
    pub fn describe(&self, name: &str, help: &str) {
        self.inner.help.lock().unwrap().entry(name.to_string()).or_insert_with(|| help.to_string());
    }

    /// Returns (registering on first use) the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey { name: name.to_string(), labels: labels_of(labels) };
        self.inner.counters.lock().unwrap().entry(key).or_default().clone()
    }

    /// All counters named `name`, as `(labels, value)` pairs sorted by
    /// label set.
    pub fn counters_with_name(&self, name: &str) -> Vec<(Labels, u64)> {
        self.inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(k, c)| (k.labels.clone(), c.get()))
            .collect()
    }

    /// Renders the registry in Prometheus text exposition format.
    ///
    /// Output is sorted by metric name then label set, so it is stable
    /// across runs.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let help = self.inner.help.lock().unwrap();
        let mut last_name: Option<&str> = None;
        let counters = self.inner.counters.lock().unwrap();
        for (key, c) in counters.iter() {
            // One HELP/TYPE header per metric name, above its first series.
            if last_name != Some(key.name.as_str()) {
                if let Some(text) = help.get(&key.name) {
                    let _ = write!(out, "# HELP {} ", key.name);
                    prom_help_into(&mut out, text);
                    out.push('\n');
                }
                let _ = writeln!(out, "# TYPE {} counter", key.name);
                last_name = Some(&key.name);
            }
            key.render(&mut out);
            let _ = writeln!(out, " {}", c.get());
        }
        out
    }

    /// Renders the registry as a JSON document with one `counters` array,
    /// sorted by name then label set.
    pub fn to_json(&self) -> String {
        let emit_key = |out: &mut String, key: &MetricKey| {
            out.push_str("{\"name\":");
            escape_into(out, &key.name);
            out.push_str(",\"labels\":{");
            for (i, (k, v)) in key.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                escape_into(out, v);
            }
            out.push('}');
        };

        let mut out = String::from("{\"counters\":[");
        for (i, (key, c)) in self.inner.counters.lock().unwrap().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            emit_key(&mut out, key);
            let _ = write!(out, ",\"value\":{}}}", c.get());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_handles() {
        let m = Metrics::new();
        let a = m.counter("x_total", &[("k", "v")]);
        let b = m.counter("x_total", &[("k", "v")]);
        a.add(3);
        b.inc();
        assert_eq!(m.counter("x_total", &[("k", "v")]).get(), 4);
    }

    #[test]
    fn prometheus_output_has_type_lines_and_values() {
        let m = Metrics::new();
        m.counter("events_total", &[("kind", "wol_retry")]).add(2);
        m.counter("hosts_woken_total", &[]).add(7);
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE events_total counter"));
        assert!(text.contains("events_total{kind=\"wol_retry\"} 2"));
        assert!(text.contains("# TYPE hosts_woken_total counter"));
        assert!(text.contains("hosts_woken_total 7"));
    }

    #[test]
    fn prometheus_label_values_use_exposition_escaping() {
        let m = Metrics::new();
        m.counter("odd_total", &[("k", "a\\b\"c\nd\te")]).inc();
        let text = m.to_prometheus();
        // Backslash, quote and newline escaped; the tab passes through
        // verbatim (JSON-style \t would be rejected by Prometheus).
        assert!(text.contains(r#"odd_total{k="a\\b\"c\nd	e"} 1"#), "got: {text}");
    }

    #[test]
    fn help_lines_precede_type_lines_for_described_metrics() {
        let m = Metrics::new();
        m.describe("events_total", "Events by kind.\nSecond line \\ slash.");
        m.describe("events_total", "loser: first description wins");
        m.counter("events_total", &[("kind", "a")]).inc();
        m.counter("events_total", &[("kind", "b")]).inc();
        m.counter("undescribed_total", &[]).inc();
        let text = m.to_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let help = lines.iter().position(|l| l.starts_with("# HELP events_total")).unwrap();
        assert_eq!(lines[help], r"# HELP events_total Events by kind.\nSecond line \\ slash.");
        assert_eq!(lines[help + 1], "# TYPE events_total counter", "HELP directly above TYPE");
        assert_eq!(
            lines.iter().filter(|l| l.starts_with("# HELP events_total")).count(),
            1,
            "one HELP per name, not per series"
        );
        assert!(!text.contains("# HELP undescribed_total"));
    }
}
