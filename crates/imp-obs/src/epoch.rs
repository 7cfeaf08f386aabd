//! The epoch sampler: fixed-length windows of simulated time whose
//! per-window counter deltas form a time series — the phase-behavior
//! view the end-of-run aggregates cannot show.

use crate::hist::Histogram;
use imp_common::Cycle;

/// Counter deltas inside one epoch, plus per-window latency
/// distributions (the counters say *how much*, the histograms say *how
/// it was shaped* — a phase detector needs both).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochCounters {
    /// Demand misses completed.
    pub demand_misses: u64,
    /// Cycles those misses stalled (sum of their latencies).
    pub demand_latency_sum: u64,
    /// Prefetches issued.
    pub pf_issued: u64,
    /// Prefetch fills.
    pub pf_fills: u64,
    /// Prefetched lines first-used.
    pub pf_used: u64,
    /// Late prefetch arrivals.
    pub pf_late: u64,
    /// Prefetched lines evicted unused.
    pub pf_evicted_unused: u64,
    /// Page walks completed.
    pub walks: u64,
    /// Cycles spent in those walks.
    pub walk_cycles: u64,
    /// Coherence messages handled.
    pub coh_msgs: u64,
    /// Core-cycles spent waiting at barriers.
    pub barrier_cycles: u64,
    /// Latency distribution of the demand misses completed this window.
    pub demand_latency: Histogram,
    /// Latency distribution of the page walks completed this window.
    pub walk_latency: Histogram,
}

/// One closed epoch: `[start, end)` plus what happened inside it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochSample {
    /// First cycle of the window.
    pub start: Cycle,
    /// One past the last cycle of the window (`start + epoch_len`,
    /// except for the final partial window closed at run end).
    pub end: Cycle,
    /// The deltas.
    pub counters: EpochCounters,
}

/// Accumulates events into fixed-`len` windows. Events arrive in
/// near-monotone simulated time (the event queue's order); a window
/// closes when an event stamps at or past its end.
#[derive(Clone, Debug)]
pub struct EpochSampler {
    len: Cycle,
    start: Cycle,
    pub(crate) current: EpochCounters,
    samples: Vec<EpochSample>,
}

impl EpochSampler {
    /// A sampler with `len`-cycle windows (min 1).
    pub fn new(len: Cycle) -> Self {
        EpochSampler {
            len: len.max(1),
            start: 0,
            current: EpochCounters::default(),
            samples: Vec::new(),
        }
    }

    /// Rolls windows forward so `now` falls inside the current one.
    /// Interior empty windows are emitted too — a flat-lined phase is
    /// data, not absence of data.
    pub fn advance(&mut self, now: Cycle) {
        while now >= self.start + self.len {
            let end = self.start + self.len;
            self.samples.push(EpochSample {
                start: self.start,
                end,
                counters: std::mem::take(&mut self.current),
            });
            self.start = end;
        }
    }

    /// Closes the final (possibly partial) window at `runtime`.
    pub fn finish(&mut self, runtime: Cycle) {
        self.advance(runtime.max(self.start));
        let end = runtime.max(self.start);
        if end > self.start || self.current != EpochCounters::default() {
            self.samples.push(EpochSample {
                start: self.start,
                end: end.max(self.start + 1),
                counters: std::mem::take(&mut self.current),
            });
            self.start = end;
        }
    }

    /// The closed windows, oldest first.
    pub fn samples(&self) -> &[EpochSample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_close_on_crossing_and_at_finish() {
        let mut s = EpochSampler::new(100);
        s.advance(10);
        s.current.demand_misses += 1;
        s.advance(250); // closes [0,100) and [100,200)
        s.current.demand_misses += 2;
        s.finish(260);
        let w = s.samples();
        assert_eq!(w.len(), 3);
        assert_eq!((w[0].start, w[0].end), (0, 100));
        assert_eq!(w[0].counters.demand_misses, 1);
        assert_eq!(w[1].counters.demand_misses, 0, "empty interior window");
        assert_eq!((w[2].start, w[2].end), (200, 260));
        assert_eq!(w[2].counters.demand_misses, 2);
    }

    #[test]
    fn windows_carry_their_own_latency_histograms() {
        let mut s = EpochSampler::new(100);
        s.advance(10);
        s.current.demand_latency.record(40);
        s.current.demand_latency.record(200);
        s.advance(150); // closes [0,100)
        s.current.walk_latency.record(16);
        s.finish(180);
        let w = s.samples();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].counters.demand_latency.count(), 2);
        assert_eq!(w[0].counters.demand_latency.sum(), 240);
        assert_eq!(w[0].counters.walk_latency.count(), 0);
        assert_eq!(w[1].counters.demand_latency.count(), 0, "window reset");
        assert_eq!(w[1].counters.walk_latency.count(), 1);
    }

    #[test]
    fn zero_length_runs_emit_nothing() {
        let mut s = EpochSampler::new(50);
        s.finish(0);
        assert!(s.samples().is_empty());
    }
}
