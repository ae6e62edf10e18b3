//! Property-based tests for the network substrate.
//!
//! Uses the in-tree [`oasis_sim::check`] harness so the suite runs with
//! no external dependencies.

use oasis_mem::ByteSize;
use oasis_net::wol::MacAddr;
use oasis_net::{MagicPacket, TrafficAccountant, TrafficClass};
use oasis_sim::check::{run, Gen};

fn mac(g: &mut Gen) -> [u8; 6] {
    let mut m = [0u8; 6];
    for b in &mut m {
        *b = g.byte();
    }
    m
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
