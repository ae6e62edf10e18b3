//! Wake-on-LAN magic packets.
//!
//! The cluster manager "wakes up the corresponding host with a network
//! Wake-on-LAN before issuing the migration or creation call" (§4.1).
//! A magic packet is six `0xFF` bytes followed by the target MAC address
//! repeated sixteen times; this module builds and parses that frame, and
//! models the lossy-network retry loop around it.

use oasis_faults::RetryPolicy;
use oasis_sim::{SimDuration, SimRng};
use oasis_telemetry::metrics::Counter;
use oasis_telemetry::{Event, Telemetry};

/// A MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Deterministic MAC for a simulated host id (locally administered).
    pub fn for_host(host: u32) -> Self {
        let b = host.to_be_bytes();
        MacAddr([0x02, 0x0A, b[0], b[1], b[2], b[3]])
    }
}

impl core::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let m = self.0;
        write!(f, "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}", m[0], m[1], m[2], m[3], m[4], m[5])
    }
}

/// Size of a magic packet payload in bytes.
pub const MAGIC_PACKET_LEN: usize = 6 + 16 * 6;

/// A Wake-on-LAN magic packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MagicPacket {
    target: MacAddr,
}

impl MagicPacket {
    /// Builds a packet addressed to `target`.
    pub fn new(target: MacAddr) -> Self {
        MagicPacket { target }
    }

    /// Serializes the 102-byte payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MAGIC_PACKET_LEN);
        out.extend_from_slice(&[0xFF; 6]);
        for _ in 0..16 {
            out.extend_from_slice(&self.target.0);
        }
        out
    }

    /// Parses a payload; `None` if it is not a well-formed magic packet.
    pub fn parse(bytes: &[u8]) -> Option<MagicPacket> {
        if bytes.len() != MAGIC_PACKET_LEN || bytes[..6] != [0xFF; 6] {
            return None;
        }
        let mac: [u8; 6] = bytes[6..12].try_into().ok()?;
        for rep in 1..16 {
            if bytes[6 + rep * 6..12 + rep * 6] != mac {
                return None;
            }
        }
        Some(MagicPacket { target: MacAddr(mac) })
    }
}

/// How a Wake-on-LAN retry sequence ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WolOutcome {
    /// Seconds spent waiting on retransmission timeouts.
    pub waited_secs: f64,
    /// Retransmissions sent after the initial packet.
    pub attempts: u32,
    /// False when the policy's attempt budget ran out with the last
    /// packet still lost; callers fall back to their degradation path.
    pub delivered: bool,
}

/// Models waking a sleeping host over a lossy management network,
/// pacing retransmissions with `policy`.
///
/// The first magic packet goes out immediately; each lost packet is
/// re-sent after the policy's delay for that attempt, until one gets
/// through or `policy.max_attempts` retransmissions have been spent.
/// Every packet increments `sent` (the caller's `wol_packets_total`
/// handle, fetched once rather than per wake) and each retry emits a
/// [`Event::WolRetry`] on the bus.
///
/// Loss draws come before the attempt-budget check and a zero-jitter
/// policy delay consumes no randomness, so with [`RetryPolicy::wol`]
/// this consumes the RNG stream exactly as the historical inline loop
/// did — fixed-seed runs are unchanged by the refactor.
pub fn wake_with_policy(
    telemetry: &Telemetry,
    sent: &Counter,
    host: u32,
    loss_rate: f64,
    policy: &RetryPolicy,
    rng: &mut SimRng,
) -> WolOutcome {
    let packet = MagicPacket::new(MacAddr::for_host(host));
    debug_assert!(MagicPacket::parse(&packet.to_bytes()).is_some());
    sent.inc();
    let mut waited = SimDuration::ZERO;
    let mut attempt = 0u32;
    let mut delivered = true;
    if loss_rate > 0.0 {
        loop {
            if !rng.chance(loss_rate) {
                break; // This packet made it through.
            }
            if attempt >= policy.max_attempts {
                delivered = false;
                break;
            }
            attempt += 1;
            waited += policy.delay(attempt, rng);
            sent.inc();
            telemetry.emit(Event::WolRetry { host, attempt });
        }
    }
    WolOutcome { waited_secs: waited.as_secs_f64(), attempts: attempt, delivered }
}

/// Models waking a sleeping host with the standard one-packet-per-second
/// schedule, giving up after `max_wait_secs` of retrying. Returns the
/// seconds spent waiting (0.0 when the first packet lands). Every packet
/// increments `sent`.
pub fn wake_with_retries(
    telemetry: &Telemetry,
    sent: &Counter,
    host: u32,
    loss_rate: f64,
    max_wait_secs: f64,
    rng: &mut SimRng,
) -> f64 {
    let policy = RetryPolicy::constant(SimDuration::from_secs(1), max_wait_secs.ceil() as u32);
    wake_with_policy(telemetry, sent, host, loss_rate, &policy, rng).waited_secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let pkt = MagicPacket::new(MacAddr::for_host(17));
        let bytes = pkt.to_bytes();
        assert_eq!(bytes.len(), MAGIC_PACKET_LEN);
        assert_eq!(MagicPacket::parse(&bytes), Some(pkt));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(MagicPacket::parse(&[]), None);
        assert_eq!(MagicPacket::parse(&[0u8; MAGIC_PACKET_LEN]), None);
        let mut bytes = MagicPacket::new(MacAddr::for_host(1)).to_bytes();
        bytes[50] ^= 0xFF; // Corrupt one MAC repetition.
        assert_eq!(MagicPacket::parse(&bytes), None);
        bytes = MagicPacket::new(MacAddr::for_host(1)).to_bytes();
        bytes.push(0); // Wrong length.
        assert_eq!(MagicPacket::parse(&bytes), None);
    }

    #[test]
    fn lossless_network_never_waits_or_draws() {
        let tel = Telemetry::disabled();
        let mut rng = SimRng::new(1);
        let mut untouched = SimRng::new(1);
        let out =
            wake_with_policy(&tel, &Counter::default(), 1, 0.0, &RetryPolicy::wol(), &mut rng);
        assert_eq!(out, WolOutcome { waited_secs: 0.0, attempts: 0, delivered: true });
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn total_loss_exhausts_the_attempt_budget() {
        let tel = Telemetry::disabled();
        let mut rng = SimRng::new(2);
        let policy = RetryPolicy::wol();
        let sent = Counter::default();
        let out = wake_with_policy(&tel, &sent, 1, 1.0, &policy, &mut rng);
        assert_eq!(out.attempts, policy.max_attempts);
        assert_eq!(sent.get(), u64::from(policy.max_attempts) + 1, "every packet is counted");
        assert_eq!(out.waited_secs, policy.max_attempts as f64);
        assert!(!out.delivered, "a fully lossy link must report non-delivery");
    }

    #[test]
    fn jittered_retries_are_seed_deterministic_and_bounded() {
        let tel = Telemetry::disabled();
        let policy = RetryPolicy::recovery();
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let out_a = wake_with_policy(&tel, &Counter::default(), 3, 1.0, &policy, &mut a);
        let out_b = wake_with_policy(&tel, &Counter::default(), 3, 1.0, &policy, &mut b);
        assert_eq!(out_a, out_b, "same seed, same jittered schedule");
        assert!(!out_a.delivered);
        assert!(out_a.waited_secs <= policy.max_total_delay().as_secs_f64());
    }

    #[test]
    fn retry_wrapper_matches_the_historical_inline_loop() {
        // The pre-policy implementation, verbatim: one chance() draw per
        // iteration, one-second waits, give up past max_wait_secs.
        fn historical(loss_rate: f64, max_wait_secs: f64, rng: &mut SimRng) -> f64 {
            let mut wait = 0.0;
            let mut attempt = 0u32;
            while loss_rate > 0.0 && rng.chance(loss_rate) && wait < max_wait_secs {
                attempt += 1;
                wait += 1.0;
            }
            let _ = attempt;
            wait
        }
        let tel = Telemetry::disabled();
        for seed in 0..64 {
            let mut old = SimRng::new(seed);
            let mut new = SimRng::new(seed);
            for loss in [0.0, 0.3, 0.9, 1.0] {
                assert_eq!(
                    historical(loss, 10.0, &mut old),
                    wake_with_retries(&tel, &Counter::default(), 5, loss, 10.0, &mut new),
                    "seed {seed} loss {loss}"
                );
            }
            // Identical draw counts leave the streams aligned.
            assert_eq!(old.next_u64(), new.next_u64(), "seed {seed}");
        }
    }

    #[test]
    fn host_macs_are_unique_and_local() {
        let a = MacAddr::for_host(1);
        let b = MacAddr::for_host(2);
        assert_ne!(a, b);
        // Locally-administered unicast bit pattern.
        assert_eq!(a.0[0] & 0x03, 0x02);
        assert_eq!(a.to_string(), "02:0a:00:00:00:01");
    }
}
