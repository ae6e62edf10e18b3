//! Link specifications.
//!
//! [`LinkSpec`] answers "how long does moving N bytes take on an otherwise
//! idle link"; the micro-lab's migrations and page fetches cost their
//! transfers with it.

use oasis_mem::ByteSize;
use oasis_sim::SimDuration;

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

    /// Time to transfer `bytes` on an otherwise idle link.
    pub fn transfer_time(&self, bytes: ByteSize) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes.as_bytes() as f64 / self.bandwidth)
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
    }
}
