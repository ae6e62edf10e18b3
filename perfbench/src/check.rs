//! Output checks: integrity, energy-ledger re-sum and pinned digests.
//!
//! A digest folds a unit's simulated outputs (energy in kWh, migration
//! counts, network bytes, the resume-delay distribution) into one
//! 64-bit FNV-1a hash. `data/pins.txt` pins the digest of every unit the
//! benchmark can draw; `perfbench --pin` regenerates it on one worker.

use std::collections::BTreeMap;

use oasis_cluster::SimReport;

/// The pinned digests, compiled into the binary.
const PINS: &str = include_str!("../data/pins.txt");

/// FNV-1a over a stream of 64-bit words.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word.
    pub fn word(mut self, w: u64) -> Digest {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a float by its bits.
    pub fn float(self, x: f64) -> Digest {
        self.word(x.to_bits())
    }

    /// The hash.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A resume-delay distribution as (delay bits, count) pairs, ascending.
///
/// Delays take few distinct values (a day of 6,000 transitions has
/// under 20), so pooling them over units keeps a handful of entries
/// instead of every sample.
pub type Delays = BTreeMap<u64, u64>;

/// Reads a report's resume-delay distribution. `Cdf` keeps its samples
/// private; `curve(len)` lists every one in order, and `fraction_le`
/// gives exact cumulative counts per distinct value.
pub fn delays_of(report: &mut SimReport) -> Delays {
    let cdf = &mut report.transition_delays;
    let n = cdf.len();
    let mut values: Vec<f64> = cdf.curve(n).into_iter().map(|(v, _)| v).collect();
    values.dedup();
    let mut out = Delays::new();
    let mut below = 0u64;
    for v in values {
        let upto = (cdf.fraction_le(v) * n as f64).round() as u64;
        out.insert(v.to_bits(), upto - below);
        below = upto;
    }
    out
}

/// Adds `from` into `into`.
pub fn pool(into: &mut Delays, from: &Delays) {
    for (&v, &c) in from {
        *into.entry(v).or_insert(0) += c;
    }
}

/// Nearest-rank quantile of a pooled distribution, in seconds.
pub fn delay_quantile(d: &Delays, q: f64) -> Option<f64> {
    let n: u64 = d.values().sum();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (&v, &c) in d {
        seen += c;
        if seen >= rank {
            return Some(f64::from_bits(v));
        }
    }
    d.keys().next_back().map(|&v| f64::from_bits(v))
}

/// Digest of one cluster day's simulated outputs.
pub fn report_digest(report: &SimReport, delays: &Delays) -> u64 {
    let m = &report.migrations;
    let mut d = Digest::new()
        .float(report.total_kwh)
        .float(report.baseline_kwh)
        .word(report.energy.total_mj())
        .word(m.full)
        .word(m.partial)
        .word(m.exchanges)
        .word(m.returns_home)
        .word(m.promotions)
        .word(m.relocations)
        .word(m.wol_retries)
        .word(m.reboots)
        .word(report.decisions.total())
        .word(report.network_bytes().as_bytes());
    for (&v, &c) in delays {
        d = d.word(v).word(c);
    }
    d.value()
}

/// Problems with one cluster day: integrity violations and an
/// integer-millijoule ledger that does not re-sum to the reported
/// energy within 1e-6 kWh.
pub fn report_problems(report: &SimReport) -> Vec<String> {
    let mut out = report.integrity_violations();
    let ledger_kwh = report.energy.total_mj() as f64 / 1_000.0 / oasis_power::meter::JOULES_PER_KWH;
    if (ledger_kwh - report.total_kwh).abs() >= 1e-6 {
        out.push(format!("ledger {ledger_kwh} kWh vs reported {} kWh", report.total_kwh));
    }
    out
}

/// The pinned-digest table.
pub struct Pins(BTreeMap<String, u64>);

impl Pins {
    /// Parses `data/pins.txt`: `<workload> <unit key> <hex digest>` lines.
    pub fn load() -> Pins {
        let mut map = BTreeMap::new();
        for line in PINS.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#')) {
            let mut f = line.split_whitespace();
            if let (Some(w), Some(k), Some(d)) = (f.next(), f.next(), f.next()) {
                if let Ok(d) = u64::from_str_radix(d, 16) {
                    map.insert(format!("{w} {k}"), d);
                }
            }
        }
        Pins(map)
    }

    /// `None` when the digest matches its pin, else what is wrong.
    pub fn mismatch(&self, workload: &str, key: &str, digest: u64) -> Option<String> {
        match self.0.get(&format!("{workload} {key}")) {
            Some(&pinned) if pinned == digest => None,
            Some(&pinned) => {
                Some(format!("{workload} {key}: digest {digest:016x}, pinned {pinned:016x}"))
            }
            None => Some(format!("{workload} {key}: no pinned digest")),
        }
    }
}

/// One line of `data/pins.txt`.
pub fn pin_line(workload: &str, key: &str, digest: u64) -> String {
    format!("{workload} {key} {digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_quantile_is_nearest_rank() {
        let mut d = Delays::new();
        d.insert(0.0f64.to_bits(), 90);
        d.insert(2.0f64.to_bits(), 9);
        d.insert(14.0f64.to_bits(), 1);
        assert_eq!(delay_quantile(&d, 0.5), Some(0.0));
        assert_eq!(delay_quantile(&d, 0.99), Some(2.0));
        assert_eq!(delay_quantile(&d, 1.0), Some(14.0));
    }

    #[test]
    fn digest_depends_on_order_and_value() {
        let a = Digest::new().word(1).word(2).value();
        let b = Digest::new().word(2).word(1).value();
        assert_ne!(a, b);
        assert_eq!(a, Digest::new().word(1).word(2).value());
    }
}
