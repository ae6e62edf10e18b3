//! Integration tests: JSONL event encoding and metrics export round-trips
//! through the crate's own JSON parser.

use std::io::Write;
use std::sync::{Arc, Mutex};

use oasis_sim::SimTime;
use oasis_telemetry::json::{self, Value};
use oasis_telemetry::{Event, JsonlSink, Level, Metrics, MigrationKind, Telemetry};

/// A `Write` handle over a shared buffer, so the test can read back what
/// a boxed sink wrote.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take_string(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn jsonl_stream_parses_back_with_ordered_fields() {
    let buf = SharedBuf::default();
    let tel = Telemetry::new(Level::Debug);
    tel.attach(Box::new(JsonlSink::new(buf.clone())));

    tel.emit_at(SimTime::from_secs(300), Event::IntervalStarted { interval: 1, active: 411 });
    tel.emit(Event::MigrationCompleted {
        vm: 17,
        from: 0,
        to: 33,
        kind: MigrationKind::Partial,
        moved_bytes: 173_015_040,
        downtime_us: 3_000_000,
        decision: 4,
    });
    tel.emit(Event::Note { text: "quote \" backslash \\ newline \n done".into() });
    tel.flush().unwrap();

    let text = buf.take_string();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);

    // Every line is a self-contained JSON object the in-crate parser
    // accepts, with the fixed t/seq/kind prefix.
    for (i, line) in lines.iter().enumerate() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("line {i}: {e}"));
        let obj = v.as_obj().expect("object");
        assert_eq!(obj.get("seq").and_then(Value::as_f64), Some(i as f64));
        assert!(obj.get("kind").and_then(Value::as_str).is_some());
        assert!(line.starts_with(&format!("{{\"t\":300000000,\"seq\":{i},")));
    }

    let mig = json::parse(lines[1]).unwrap();
    assert_eq!(mig.get("kind").and_then(Value::as_str), Some("migration_completed"));
    assert_eq!(mig.get("vm").and_then(Value::as_f64), Some(17.0));
    assert_eq!(mig.get("to").and_then(Value::as_f64), Some(33.0));
    assert_eq!(mig.get("mig").and_then(Value::as_str), Some("partial"));
    assert_eq!(mig.get("moved_bytes").and_then(Value::as_f64), Some(173_015_040.0));
    assert_eq!(mig.get("decision").and_then(Value::as_f64), Some(4.0));

    let note = json::parse(lines[2]).unwrap();
    assert_eq!(
        note.get("text").and_then(Value::as_str),
        Some("quote \" backslash \\ newline \n done"),
        "escaping round-trips"
    );
}

fn populated_registry() -> Metrics {
    let m = Metrics::new();
    m.counter("migration_bytes_total", &[("kind", "partial")]).add(1_234);
    m.counter("migration_bytes_total", &[("kind", "full")]).add(999);
    m.counter("wol_packets_total", &[]).add(7);
    m
}

#[test]
fn json_export_round_trips_through_parser() {
    let m = populated_registry();
    let doc = json::parse(&m.to_json()).expect("valid JSON");

    let counters = doc.get("counters").and_then(Value::as_arr).expect("counters array");
    let find = |name: &str, label: Option<(&str, &str)>| -> f64 {
        counters
            .iter()
            .find(|c| {
                c.get("name").and_then(Value::as_str) == Some(name)
                    && label.is_none_or(|(k, v)| {
                        c.get("labels").and_then(|l| l.get(k)).and_then(Value::as_str) == Some(v)
                    })
            })
            .and_then(|c| c.get("value").and_then(Value::as_f64))
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(find("migration_bytes_total", Some(("kind", "partial"))), 1_234.0);
    assert_eq!(find("migration_bytes_total", Some(("kind", "full"))), 999.0);
    assert_eq!(find("wol_packets_total", None), 7.0);

    assert_eq!(counters.len(), 3);
    assert_eq!(doc.as_obj().map(|o| o.len()), Some(1), "counters are the only array");
}

#[test]
fn prometheus_export_is_parseable_and_consistent() {
    let m = populated_registry();
    let text = m.to_prometheus();

    // Every non-comment line is `name{labels} value` or `name value`,
    // and every sample carries a numeric value.
    let mut samples = 0;
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# TYPE ") || line.starts_with("# HELP "),
                "only TYPE/HELP comments: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("space-separated sample");
        assert!(!series.is_empty());
        if value != "+Inf" {
            value.parse::<f64>().unwrap_or_else(|_| panic!("bad value in {line:?}"));
        }
        samples += 1;
    }
    assert_eq!(samples, 3, "one sample per counter series");

    assert!(text.contains("migration_bytes_total{kind=\"partial\"} 1234"));
    assert!(text.contains("wol_packets_total 7"));

    // The exposition is deterministic.
    assert_eq!(text, populated_registry().to_prometheus());
}
