//! The feedback/control plane of the prefetcher API.
//!
//! On every epoch boundary an adaptive manager distills the simulator's
//! timeliness ledger (plus the TLB-drop signal) into a [`Feedback`]
//! digest, hands it to its policy and to each core's prefetcher via
//! [`L1Prefetcher::on_feedback`](crate::L1Prefetcher::on_feedback), and
//! applies the merged [`Control`] until the next epoch: requests from
//! masked PCs are dropped, per-access request batches are truncated to
//! the degree limit, and a switch request rebuilds the prefetchers from
//! the registry mid-run.
//!
//! All counts in a `Feedback` are **deltas for one epoch**, not run
//! totals. Because a prefetch issued in one epoch can be used in a
//! later one, a single epoch's `used` delta may exceed its `issued`
//! delta; summed over all epochs the deltas reconcile exactly with the
//! end-of-run ledger (`issued == used + late + evicted_unused +
//! inflight_at_end`).

use imp_common::config::PrefetcherSpec;
use imp_common::{Cycle, Pc};
use imp_obs::LedgerCounts;

/// One epoch's distilled observation, delivered to
/// [`L1Prefetcher::on_feedback`](crate::L1Prefetcher::on_feedback) and
/// to manager policies.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Feedback {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// First cycle of the epoch window.
    pub start: Cycle,
    /// One past the last cycle of the epoch window.
    pub end: Cycle,
    /// Ledger deltas over every tracked prefetch this epoch.
    pub total: LedgerCounts,
    /// Per-PC ledger deltas (sorted by PC; PCs with all-zero deltas
    /// are omitted).
    pub per_pc: Vec<(Pc, LedgerCounts)>,
    /// Ledger deltas per chain hop (index 0 = sequential prefetches,
    /// index `h` = indirect hop `h`; hops past the array are folded
    /// into the last bucket). Lets a policy watch deep-chase accuracy
    /// separately from the primary hop.
    pub per_hop: [LedgerCounts; imp_obs::MAX_HOPS],
    /// Prefetch translations dropped by the TLB (`DropOnMiss`) this
    /// epoch — the pressure signal behind the demote-IMP rule.
    pub tlb_prefetch_drops: u64,
}

impl Feedback {
    /// Fraction of issued prefetches that were demand-used this epoch
    /// (1.0 when nothing was issued — an idle epoch is not inaccurate).
    pub fn accuracy(&self) -> f64 {
        ratio(self.total.used, self.total.issued)
    }

    /// Fraction of useful arrivals that were on time (`used / (used +
    /// late)`; 1.0 when nothing arrived usefully).
    pub fn timeliness(&self) -> f64 {
        ratio(self.total.used, self.total.used + self.total.late)
    }

    /// Fraction of issued prefetches evicted without use this epoch —
    /// the wasted-traffic signal a throttling policy keys on.
    pub fn evict_rate(&self) -> f64 {
        if self.total.issued == 0 {
            return 0.0;
        }
        self.total.evicted_unused as f64 / self.total.issued as f64
    }

    /// TLB drops per issued prefetch this epoch (drops can exceed
    /// issues: dropped prefetches never reach the MSHR issue point).
    pub fn tlb_drop_rate(&self) -> f64 {
        let attempts = self.total.issued + self.tlb_prefetch_drops;
        if attempts == 0 {
            return 0.0;
        }
        self.tlb_prefetch_drops as f64 / attempts as f64
    }

    /// Accuracy of indirect prefetches at chain hop `hop` this epoch
    /// (1.0 when none were issued at that hop). Hops past the tracked
    /// range share the last bucket.
    pub fn hop_accuracy(&self, hop: u8) -> f64 {
        let h = (hop as usize).min(self.per_hop.len() - 1);
        ratio(self.per_hop[h].used, self.per_hop[h].issued)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// What a policy (or a prefetcher's own
/// [`on_feedback`](crate::L1Prefetcher::on_feedback)) asks the
/// simulator to do until the next epoch. The default requests nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Control {
    /// Cap on prefetch requests issued per triggering access (demand
    /// observation or fill chain). `None` leaves the degree alone.
    pub degree_limit: Option<u32>,
    /// PCs whose prefetch requests are dropped before issue.
    pub masked_pcs: Vec<Pc>,
    /// Replace the running prefetcher with this registry spec (applied
    /// once per distinct spec; the manager ignores a switch to the
    /// already-active prefetcher).
    pub switch_to: Option<PrefetcherSpec>,
    /// Drop chained prefetch requests past this hop before issue
    /// (sequential prefetches are hop 0 and always survive). `None`
    /// leaves the chain depth alone.
    pub depth_limit: Option<u8>,
}

impl Control {
    /// The do-nothing control.
    pub fn none() -> Self {
        Control::default()
    }

    /// True when this control requests nothing.
    pub fn is_none(&self) -> bool {
        self.degree_limit.is_none()
            && self.masked_pcs.is_empty()
            && self.switch_to.is_none()
            && self.depth_limit.is_none()
    }

    /// Merges two controls conservatively: the tighter degree and depth
    /// limits win, masked-PC sets union, and the first switch request
    /// wins.
    #[must_use]
    pub fn merge(mut self, other: Control) -> Control {
        self.degree_limit = match (self.degree_limit, other.degree_limit) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.depth_limit = match (self.depth_limit, other.depth_limit) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.masked_pcs.extend(other.masked_pcs);
        self.masked_pcs.sort_unstable();
        self.masked_pcs.dedup();
        if self.switch_to.is_none() {
            self.switch_to = other.switch_to;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(issued: u64, used: u64, late: u64, evicted: u64) -> LedgerCounts {
        LedgerCounts {
            issued,
            fills: used + late + evicted,
            used,
            late,
            evicted_unused: evicted,
        }
    }

    #[test]
    fn rates_handle_empty_epochs() {
        let fb = Feedback::default();
        assert_eq!(fb.accuracy(), 1.0);
        assert_eq!(fb.timeliness(), 1.0);
        assert_eq!(fb.evict_rate(), 0.0);
        assert_eq!(fb.tlb_drop_rate(), 0.0);
    }

    #[test]
    fn rates_follow_the_ledger_deltas() {
        let fb = Feedback {
            total: counts(10, 4, 2, 4),
            tlb_prefetch_drops: 10,
            ..Feedback::default()
        };
        assert_eq!(fb.accuracy(), 0.4);
        assert!((fb.timeliness() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(fb.evict_rate(), 0.4);
        assert_eq!(fb.tlb_drop_rate(), 0.5);
    }

    #[test]
    fn merge_is_conservative() {
        let a = Control {
            degree_limit: Some(4),
            masked_pcs: vec![Pc::new(2), Pc::new(1)],
            switch_to: Some(PrefetcherSpec::new("stream")),
            depth_limit: Some(3),
        };
        let b = Control {
            degree_limit: Some(2),
            masked_pcs: vec![Pc::new(2), Pc::new(9)],
            switch_to: Some(PrefetcherSpec::new("none")),
            depth_limit: Some(1),
        };
        let m = a.merge(b);
        assert_eq!(m.degree_limit, Some(2));
        assert_eq!(m.depth_limit, Some(1), "tighter depth limit wins");
        assert_eq!(m.masked_pcs, vec![Pc::new(1), Pc::new(2), Pc::new(9)]);
        assert_eq!(m.switch_to, Some(PrefetcherSpec::new("stream")));
        assert!(Control::none().is_none());
        assert!(!m.is_none());
        let n = Control::none().merge(Control {
            degree_limit: Some(3),
            ..Control::none()
        });
        assert_eq!(n.degree_limit, Some(3));
    }
}
