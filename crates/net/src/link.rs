//! Link specifications and a processor-sharing transfer model.
//!
//! [`LinkSpec`] answers "how long does moving N bytes take on an otherwise
//! idle link"; [`SharedChannel`] models a link carrying several transfers
//! at once, splitting bandwidth evenly (TCP-fair) and recomputing finish
//! times as transfers join and leave.

use std::collections::BTreeMap;

use oasis_mem::ByteSize;
use oasis_sim::{SimDuration, SimTime};

/// A point-to-point link's capacity and propagation latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Usable bandwidth in bytes per second.
    pub bandwidth: f64,
    /// One-way latency added to every transfer.
    pub latency: SimDuration,
}

impl LinkSpec {
    /// Gigabit Ethernet with typical TCP efficiency (~941 Mbit/s goodput).
    pub fn gige() -> Self {
        LinkSpec { bandwidth: 941.0e6 / 8.0, latency: SimDuration::from_micros(200) }
    }

    /// 10-Gigabit Ethernet (rack ToR switch, §5.1).
    pub fn ten_gige() -> Self {
        LinkSpec { bandwidth: 9.41e9 / 8.0, latency: SimDuration::from_micros(100) }
    }

    /// The prototype's shared SAS drive path: 128 MiB/s sequential writes
    /// (§4.3).
    pub fn sas_drive() -> Self {
        LinkSpec { bandwidth: 128.0 * 1024.0 * 1024.0, latency: SimDuration::from_micros(500) }
    }

    /// Time to transfer `bytes` on an otherwise idle link.
    pub fn transfer_time(&self, bytes: ByteSize) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes.as_bytes() as f64 / self.bandwidth)
    }

    /// Bytes deliverable in `dt` on an otherwise idle link (ignoring
    /// latency).
    pub fn bytes_in(&self, dt: SimDuration) -> ByteSize {
        ByteSize::bytes((self.bandwidth * dt.as_secs_f64()) as u64)
    }
}

/// Identifier of an in-flight transfer on a [`SharedChannel`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct TransferId(u64);

/// A link shared by concurrent transfers with processor-sharing semantics.
///
/// Each active transfer receives `bandwidth / n` while `n` transfers are in
/// flight. Drivers interact in three steps:
///
/// 1. [`start`](SharedChannel::start) a transfer;
/// 2. ask for the [`next_completion`](SharedChannel::next_completion) and
///    schedule a simulation event for it;
/// 3. on that event, call [`advance`](SharedChannel::advance) and collect
///    [`take_finished`](SharedChannel::take_finished); then reschedule.
///
/// Because arrivals change finish times, a scheduled completion event may
/// be stale; drivers simply re-query after every change.
#[derive(Clone, Debug)]
pub struct SharedChannel {
    bandwidth: f64,
    /// Remaining bytes per active transfer.
    active: BTreeMap<TransferId, f64>,
    finished: Vec<TransferId>,
    last_update: SimTime,
    next_id: u64,
}

impl SharedChannel {
    /// Creates a channel of the given capacity (bytes per second).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not strictly positive.
    pub fn new(bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "channel bandwidth must be positive");
        SharedChannel {
            bandwidth,
            active: BTreeMap::new(),
            finished: Vec::new(),
            last_update: SimTime::ZERO,
            next_id: 0,
        }
    }

    /// Number of transfers currently in flight.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Moves simulated time forward, applying progress to all transfers.
    ///
    /// Transfers that complete by `now` move to the finished list, with
    /// completion applied in remaining-bytes order.
    pub fn advance(&mut self, now: SimTime) {
        let mut dt = now.saturating_since(self.last_update).as_secs_f64();
        self.last_update = self.last_update.max(now);
        // Process completions in waves: the share grows as transfers
        // finish inside the window.
        while dt > 0.0 && !self.active.is_empty() {
            let n = self.active.len() as f64;
            let share = self.bandwidth / n;
            let min_remaining = self.active.values().fold(f64::INFINITY, |a, &b| a.min(b));
            let time_to_first = min_remaining / share;
            if time_to_first > dt {
                // Nobody finishes in the window: apply partial progress.
                let delta = share * dt;
                for rem in self.active.values_mut() {
                    *rem -= delta;
                }
                break;
            }
            // Apply progress up to the first completion and retire every
            // transfer that reaches zero.
            let delta = share * time_to_first;
            let mut done: Vec<TransferId> = Vec::new();
            for (&id, rem) in self.active.iter_mut() {
                *rem -= delta;
                if *rem <= 1e-6 {
                    done.push(id);
                }
            }
            for id in done {
                self.active.remove(&id);
                self.finished.push(id);
            }
            dt -= time_to_first;
        }
    }

    /// Starts a transfer of `bytes` at `now`.
    pub fn start(&mut self, now: SimTime, bytes: ByteSize) -> TransferId {
        self.advance(now);
        let id = TransferId(self.next_id);
        self.next_id += 1;
        if bytes.is_zero() {
            self.finished.push(id);
        } else {
            self.active.insert(id, bytes.as_bytes() as f64);
        }
        id
    }

    /// Aborts an in-flight transfer; returns the bytes still unsent.
    pub fn abort(&mut self, now: SimTime, id: TransferId) -> Option<ByteSize> {
        self.advance(now);
        self.active.remove(&id).map(|rem| ByteSize::bytes(rem.max(0.0).ceil() as u64))
    }

    /// Predicted completion time of the earliest-finishing transfer,
    /// assuming no further arrivals.
    pub fn next_completion(&self) -> Option<SimTime> {
        if self.active.is_empty() {
            return None;
        }
        let share = self.bandwidth / self.active.len() as f64;
        let min_remaining = self.active.values().fold(f64::INFINITY, |a, &b| a.min(b));
        Some(self.last_update + SimDuration::from_secs_f64(min_remaining / share))
    }

    /// Takes the transfers that completed since the last call.
    pub fn take_finished(&mut self) -> Vec<TransferId> {
        std::mem::take(&mut self.finished)
    }

    /// Remaining bytes of a transfer (`None` once finished or aborted).
    pub fn remaining(&self, id: TransferId) -> Option<ByteSize> {
        self.active.get(&id).map(|&r| ByteSize::bytes(r.max(0.0).ceil() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_spec_transfer_times() {
        let gige = LinkSpec::gige();
        // 4 GiB over GigE ≈ 36.5 s.
        let t = gige.transfer_time(ByteSize::gib(4)).as_secs_f64();
        assert!((t - 36.5).abs() < 0.5, "GigE 4 GiB took {t}");
        // Paper §5.1: a 4 GiB VM moves over 10 GigE in roughly 3.7 s of
        // raw wire time (the quoted 10 s includes pre-copy overhead).
        let t10 = LinkSpec::ten_gige().transfer_time(ByteSize::gib(4)).as_secs_f64();
        assert!(t10 < 4.0, "10GigE 4 GiB took {t10}");
        // SAS: 1.3 GiB at 128 MiB/s ≈ 10.4 s (the Figure 5 upload path).
        let tsas =
            LinkSpec::sas_drive().transfer_time(ByteSize::from_mib_f64(1_305.6)).as_secs_f64();
        assert!((tsas - 10.2).abs() < 0.1, "SAS upload took {tsas}");
    }

    #[test]
    fn bytes_in_window() {
        let sas = LinkSpec::sas_drive();
        assert_eq!(sas.bytes_in(SimDuration::from_secs(1)), ByteSize::mib(128));
        assert_eq!(sas.bytes_in(SimDuration::ZERO), ByteSize::ZERO);
    }

    #[test]
    fn single_transfer_full_bandwidth() {
        let mut ch = SharedChannel::new(100.0); // 100 B/s.
        ch.start(SimTime::ZERO, ByteSize::bytes(1_000));
        assert_eq!(ch.next_completion(), Some(SimTime::from_secs(10)));
        ch.advance(SimTime::from_secs(10));
        assert_eq!(ch.take_finished().len(), 1);
        assert_eq!(ch.in_flight(), 0);
    }

    #[test]
    fn two_transfers_share_fairly() {
        let mut ch = SharedChannel::new(100.0);
        let a = ch.start(SimTime::ZERO, ByteSize::bytes(1_000));
        let b = ch.start(SimTime::ZERO, ByteSize::bytes(1_000));
        // Each gets 50 B/s: both finish at t = 20 s.
        assert_eq!(ch.next_completion(), Some(SimTime::from_secs(20)));
        ch.advance(SimTime::from_secs(20));
        let done = ch.take_finished();
        assert!(done.contains(&a) && done.contains(&b));
    }

    #[test]
    fn late_arrival_slows_first_transfer() {
        let mut ch = SharedChannel::new(100.0);
        let a = ch.start(SimTime::ZERO, ByteSize::bytes(1_000));
        // At t=5, a has 500 B left; a second transfer joins.
        ch.start(SimTime::from_secs(5), ByteSize::bytes(200));
        // Shares drop to 50 B/s: the small transfer ends at t=9.
        assert_eq!(ch.next_completion(), Some(SimTime::from_secs(9)));
        ch.advance(SimTime::from_secs(9));
        assert_eq!(ch.take_finished().len(), 1);
        // a then finishes its remaining 300 B at full rate: t=12.
        assert_eq!(ch.next_completion(), Some(SimTime::from_secs(12)));
        ch.advance(SimTime::from_secs(12));
        assert_eq!(ch.take_finished(), vec![a]);
    }

    #[test]
    fn advance_across_multiple_completions() {
        let mut ch = SharedChannel::new(100.0);
        ch.start(SimTime::ZERO, ByteSize::bytes(100));
        ch.start(SimTime::ZERO, ByteSize::bytes(1_000));
        // Jump straight past both completions.
        ch.advance(SimTime::from_secs(100));
        assert_eq!(ch.take_finished().len(), 2);
        assert_eq!(ch.in_flight(), 0);
        assert_eq!(ch.next_completion(), None);
    }

    #[test]
    fn abort_returns_unsent_bytes() {
        let mut ch = SharedChannel::new(100.0);
        let a = ch.start(SimTime::ZERO, ByteSize::bytes(1_000));
        let rem = ch.abort(SimTime::from_secs(4), a).unwrap();
        assert_eq!(rem, ByteSize::bytes(600));
        assert_eq!(ch.abort(SimTime::from_secs(5), a), None, "double abort");
        assert_eq!(ch.remaining(a), None);
    }

    #[test]
    fn zero_byte_transfer_finishes_immediately() {
        let mut ch = SharedChannel::new(100.0);
        let id = ch.start(SimTime::from_secs(1), ByteSize::ZERO);
        assert_eq!(ch.take_finished(), vec![id]);
    }

    #[test]
    fn remaining_reports_progress() {
        let mut ch = SharedChannel::new(100.0);
        let a = ch.start(SimTime::ZERO, ByteSize::bytes(1_000));
        ch.advance(SimTime::from_secs(3));
        assert_eq!(ch.remaining(a), Some(ByteSize::bytes(700)));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        SharedChannel::new(0.0);
    }
}
