//! Session edges: the trace's idle↔active switches, grouped by interval.
//!
//! Only the trace changes a VM's activity state, and it changes it only
//! at a session edge. A seed-1 paper day has about 12,700 edges against
//! 259,200 VM-intervals, so the simulator lists the edges once, when it
//! builds the rack, and each interval visits only the VMs that switch.
//! The trace's active counts (the `interval_started` marker and the §5.3
//! baseline's per-home counts) are kept current at the same edges
//! instead of being recounted from every user each interval.

use core::ops::Range;

use oasis_trace::{UserDay, INTERVALS_PER_DAY};

/// Every VM's session edges in compressed-row form, plus the trace's
/// running active counts.
#[derive(Clone, Debug)]
pub(crate) struct SessionEdges {
    /// `edges[start[i]..start[i + 1]]` are interval `i`'s edges.
    start: Vec<u32>,
    /// `vm << 1 | active`, ascending VM index within each interval.
    edges: Vec<u32>,
    /// Users active in the interval last advanced to.
    active: u32,
    /// The same count per home host (VM `v` is homed at
    /// `v / vms_per_host`).
    home_active: Vec<u32>,
    vms_per_host: usize,
}

impl SessionEdges {
    /// Lists the edges of `days`, one day per VM in VM-index order.
    pub(crate) fn new(days: &[UserDay], vms_per_host: u32) -> Self {
        // Counting sort by interval: walking the VMs in index order keeps
        // each interval's bucket ascending, the order a sweep of every VM
        // would visit them in.
        let mut start = vec![0u32; INTERVALS_PER_DAY + 1];
        for day in days {
            for (i, _) in day.edges() {
                start[i + 1] += 1;
            }
        }
        for i in 0..INTERVALS_PER_DAY {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut edges = vec![0u32; start[INTERVALS_PER_DAY] as usize];
        for (vm, day) in days.iter().enumerate() {
            let tag = u32::try_from(vm << 1).expect("VM index fits 31 bits");
            for (i, on) in day.edges() {
                edges[fill[i] as usize] = tag | u32::from(on);
                fill[i] += 1;
            }
        }
        let vms_per_host = (vms_per_host as usize).max(1);
        SessionEdges {
            start,
            edges,
            active: 0,
            home_active: vec![0; days.len().div_ceil(vms_per_host)],
            vms_per_host,
        }
    }

    /// Applies interval `interval`'s edges to the active counts and
    /// returns their positions, for [`Self::edge`]. Called once per
    /// interval, in order.
    pub(crate) fn advance(&mut self, interval: usize) -> Range<usize> {
        let range = self.start[interval] as usize..self.start[interval + 1] as usize;
        for &e in &self.edges[range.clone()] {
            let home = &mut self.home_active[(e >> 1) as usize / self.vms_per_host];
            if e & 1 == 1 {
                self.active += 1;
                *home += 1;
            } else {
                self.active -= 1;
                *home -= 1;
            }
        }
        range
    }

    /// The edge at position `e`: the VM index and whether it turns
    /// active (`false`: it turns idle).
    pub(crate) fn edge(&self, e: usize) -> (usize, bool) {
        let edge = self.edges[e];
        ((edge >> 1) as usize, edge & 1 == 1)
    }

    /// Users active in the interval last advanced to.
    pub(crate) fn active(&self) -> u32 {
        self.active
    }

    /// Users homed at `home` active in the interval last advanced to.
    pub(crate) fn home_active(&self, home: usize) -> u32 {
        self.home_active[home]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_trace::DayKind;

    #[test]
    fn counts_follow_the_edges() {
        let mut days = vec![UserDay::all_idle(DayKind::Weekday); 4];
        days[0].spike(0, 3); // Active 0..3.
        days[1].spike(2, 2); // Active 2..4.
        days[3].spike(286, 4); // Active 286..288 and 0..2.
        let mut s = SessionEdges::new(&days, 2);
        let at = |s: &SessionEdges, r: Range<usize>| r.map(|e| s.edge(e)).collect::<Vec<_>>();
        let r = s.advance(0);
        assert_eq!(at(&s, r), vec![(0, true), (3, true)]);
        assert_eq!((s.active(), s.home_active(0), s.home_active(1)), (2, 1, 1));
        assert!(s.advance(1).is_empty());
        let r = s.advance(2);
        assert_eq!(at(&s, r), vec![(1, true), (3, false)]);
        assert_eq!((s.active(), s.home_active(0), s.home_active(1)), (2, 2, 0));
        let r = s.advance(3);
        assert_eq!(at(&s, r), vec![(0, false)]);
        let r = s.advance(4);
        assert_eq!(at(&s, r), vec![(1, false)]);
        assert_eq!(s.active(), 0);
        for i in 5..286 {
            assert!(s.advance(i).is_empty());
        }
        let r = s.advance(286);
        assert_eq!(at(&s, r), vec![(3, true)]);
        assert_eq!((s.active(), s.home_active(1)), (1, 1));
    }
}
