//! Property-based tests for the network substrate.
//!
//! Uses the in-tree [`oasis_sim::check`] harness so the suite runs with
//! no external dependencies.

use oasis_mem::ByteSize;
use oasis_net::wol::MacAddr;
use oasis_net::{MagicPacket, SharedChannel, TrafficAccountant, TrafficClass};
use oasis_sim::check::{run, Gen};
use oasis_sim::SimTime;

fn mac(g: &mut Gen) -> [u8; 6] {
    let mut m = [0u8; 6];
    for b in &mut m {
        *b = g.byte();
    }
    m
}

/// Every transfer started on a shared channel eventually finishes,
/// and total progress never exceeds capacity × time.
#[test]
fn shared_channel_conserves_bytes() {
    run(96, |g: &mut Gen| {
        let bandwidth = g.f64_in(1.0, 1e9);
        let transfers = g.vec(1, 40, |g| (g.u64_in(0, 3_600), g.u64_in(1, 1_000_000)));
        let mut ch = SharedChannel::new(bandwidth);
        let mut total_bytes = 0u64;
        let mut latest_start = 0u64;
        for &(start, bytes) in &transfers {
            ch.start(SimTime::from_secs(start), ByteSize::bytes(bytes));
            total_bytes += bytes;
            latest_start = latest_start.max(start);
        }
        // Run long enough for everything to finish.
        let horizon = latest_start as f64 + total_bytes as f64 / bandwidth + 1.0;
        ch.advance(SimTime::from_secs(horizon.ceil() as u64 + 1));
        assert_eq!(ch.take_finished().len(), transfers.len());
        assert_eq!(ch.in_flight(), 0);
    });
}

/// A transfer's completion time is never earlier than its serial
/// transmission time on an empty link.
#[test]
fn completion_not_faster_than_line_rate() {
    run(96, |g: &mut Gen| {
        let bandwidth = g.f64_in(1.0, 1e6);
        let bytes = g.u64_in(1, 10_000_000);
        let mut ch = SharedChannel::new(bandwidth);
        ch.start(SimTime::ZERO, ByteSize::bytes(bytes));
        let done = ch.next_completion().unwrap();
        let serial = bytes as f64 / bandwidth;
        assert!(done.as_secs_f64() >= serial - 1e-6);
    });
}

/// Aborting returns no more than the original byte count.
#[test]
fn abort_bounded() {
    run(96, |g: &mut Gen| {
        let bytes = g.u64_in(1, 1_000_000);
        let when = g.u64_in(0, 100);
        let mut ch = SharedChannel::new(1_000.0);
        let id = ch.start(SimTime::ZERO, ByteSize::bytes(bytes));
        if let Some(rem) = ch.abort(SimTime::from_secs(when), id) {
            assert!(rem.as_bytes() <= bytes);
        }
        assert_eq!(ch.remaining(id), None);
    });
}

/// Traffic accounting: grand total equals the sum of class totals,
/// and merge is additive.
#[test]
fn traffic_totals_consistent() {
    run(64, |g: &mut Gen| {
        let records = g.vec(0, 100, |g| (g.usize_in(0, 6), g.u64_in(0, 1u64 << 40)));
        let mut a = TrafficAccountant::new();
        let mut b = TrafficAccountant::new();
        for (i, &(class_idx, bytes)) in records.iter().enumerate() {
            let class = TrafficClass::ALL[class_idx];
            let target = if i % 2 == 0 { &mut a } else { &mut b };
            target.record(class, ByteSize::bytes(bytes));
        }
        let sum_a: u64 = TrafficClass::ALL.iter().map(|&c| a.total(c).as_bytes()).sum();
        assert_eq!(a.grand_total().as_bytes(), sum_a);
        let before = a.grand_total() + b.grand_total();
        a.merge(&b);
        assert_eq!(a.grand_total(), before);
    });
}

/// Magic packets round trip for any MAC.
#[test]
fn magic_packet_round_trip() {
    run(64, |g: &mut Gen| {
        let pkt = MagicPacket::new(MacAddr(mac(g)));
        assert_eq!(MagicPacket::parse(&pkt.to_bytes()), Some(pkt));
    });
}

/// Corrupting any byte of a magic packet breaks parsing or changes
/// the target — never yields the same packet.
#[test]
fn magic_packet_detects_corruption() {
    run(128, |g: &mut Gen| {
        let pkt = MagicPacket::new(MacAddr(mac(g)));
        let pos = g.usize_in(0, 102);
        let flip = g.u64_in(1, 256) as u8;
        let mut bytes = pkt.to_bytes();
        bytes[pos] ^= flip;
        assert_ne!(MagicPacket::parse(&bytes), Some(pkt));
    });
}
