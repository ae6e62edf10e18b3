//! Prometheus text exposition-format validation.
//!
//! The golden-byte test in `export_roundtrip.rs` pins what one known
//! registry renders to; this suite instead checks the *format rules* a
//! Prometheus scraper enforces, over a registry built to hit the edge
//! cases: label values needing escaping, and described and undescribed
//! metrics.

use oasis_telemetry::Metrics;

fn edgy_registry() -> Metrics {
    let m = Metrics::new();
    m.describe("requests_total", "Requests by route.");
    m.describe("wakeups_total", "Host wake-ups.");
    m.counter("requests_total", &[("route", "/metrics")]).add(3);
    m.counter("requests_total", &[("route", "quote\"slash\\newline\ntab\t")]).inc();
    m.counter("wakeups_total", &[("host", "7")]).add(2);
    m.counter("undescribed_total", &[]).inc();
    m
}

/// Splits a sample line into (name, labels, value), validating label
/// syntax and escaping along the way.
fn parse_sample(line: &str) -> (String, Vec<(String, String)>, String) {
    let (series, value) = line.rsplit_once(' ').expect("sample lines are `series value`");
    assert!(!value.is_empty() && !value.contains(' '));
    let Some((name, rest)) = series.split_once('{') else {
        return (series.to_string(), Vec::new(), value.to_string());
    };
    let body = rest.strip_suffix('}').expect("label block closes");
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        let mut key = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            key.push(c);
            chars.next();
        }
        assert_eq!(chars.next(), Some('='), "label `{key}` has a value");
        assert_eq!(chars.next(), Some('"'), "label values are quoted");
        let mut val = String::new();
        loop {
            match chars.next().expect("label value terminates") {
                '\\' => match chars.next().expect("escape has a payload") {
                    '\\' => val.push('\\'),
                    '"' => val.push('"'),
                    'n' => val.push('\n'),
                    other => panic!("invalid escape \\{other} in label value"),
                },
                '"' => break,
                '\n' => panic!("raw newline inside a label value"),
                c => val.push(c),
            }
        }
        labels.push((key, val));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(other) => panic!("unexpected {other:?} after label"),
        }
    }
    (name.to_string(), labels, value.to_string())
}

#[test]
fn every_line_is_a_comment_or_a_valid_sample() {
    let text = edgy_registry().to_prometheus();
    for line in text.lines() {
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(
                comment.starts_with("HELP ") || comment.starts_with("TYPE "),
                "only HELP/TYPE comments: {line}"
            );
        } else {
            parse_sample(line);
        }
    }
}

#[test]
fn label_values_round_trip_through_exposition_escaping() {
    let text = edgy_registry().to_prometheus();
    let odd = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(parse_sample)
        .find(|(_, labels, _)| labels.iter().any(|(_, v)| v.contains('"')))
        .expect("the edge-case label survives");
    let (_, labels, value) = odd;
    assert_eq!(labels[0].1, "quote\"slash\\newline\ntab\t", "unescaping restores the raw value");
    assert_eq!(value, "1");
}

#[test]
fn help_and_type_lines_are_well_formed_and_ordered() {
    let text = edgy_registry().to_prometheus();
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap();
            let next = lines.get(i + 1).expect("HELP is not the last line");
            assert!(
                next.starts_with(&format!("# TYPE {name} ")),
                "HELP for {name} must sit directly above its TYPE line, found {next}"
            );
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap();
            let kind = parts.next().unwrap();
            assert_eq!(kind, "counter", "{line}");
            assert!(parts.next().is_none());
            // Every sample until the next comment belongs to this family.
            for sample in lines[i + 1..].iter().take_while(|l| !l.starts_with('#')) {
                let (sample_name, _, _) = parse_sample(sample);
                assert_eq!(sample_name, name, "{sample_name} under TYPE {name}");
            }
        }
    }
    assert!(
        text.contains("# HELP requests_total Requests by route.\n# TYPE requests_total counter")
    );
}
