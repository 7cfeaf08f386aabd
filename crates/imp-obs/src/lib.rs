//! Observability for the IMP reproduction: a zero-cost-when-off
//! [`Probe`] the simulator threads through its hot paths, recording
//!
//! * **typed events** into a bounded [`Trace`] ring, stamped in
//!   *simulated* cycles and exportable as Chrome trace-event JSON
//!   ([`Trace::to_chrome_json`], loadable in Perfetto);
//! * **log2-bucketed [`Histogram`]s** of demand-miss latency, page-walk
//!   latency and prefetch-to-use distance — distribution shape, not
//!   just sum/count;
//! * **epoch samples** ([`EpochSample`]): per-N-cycle counter deltas
//!   plus per-window latency histograms, the time-resolved view of
//!   phase behavior (what an adaptive prefetcher manager keys on).
//!
//! The **prefetch-timeliness [`Ledger`]** lives here too, but the
//! simulator keeps it: every tracked prefetch follows issue → fill →
//! exactly one of {used, late, evicted-unused}, per PC, per
//! [`imp_common::stats::AccessClass`] and per chain hop. The simulator
//! decides each fate in its one ledger and tells the probe what it
//! decided; the [`ObsReport`] carries a finished copy of that ledger.
//!
//! A disabled probe ([`Probe::disabled`], the default) is a single
//! `Option` check per call site — the simulator's statistics and
//! timing are bit-identical with observation on, off, or absent,
//! because probes only ever *record*.
//!
//! # Example
//!
//! ```
//! use imp_common::stats::AccessClass;
//! use imp_common::{LineAddr, Pc};
//! use imp_obs::{Ledger, ObsConfig, Probe};
//!
//! let probe = Probe::new(&ObsConfig::metrics().with_epoch(1000));
//! let mut ledger = Ledger::default();
//! let (core, line, pc) = (0, LineAddr::from_line_number(4), Pc::new(0x40));
//! ledger.issue(core, line, pc, AccessClass::Indirect, 1, 100);
//! probe.prefetch_issue(100);
//! let outcome = ledger.fill(core, line, 250);
//! probe.prefetch_fill(core, line, outcome, 250);
//! if let Some(distance) = ledger.first_use(core, line, 300) {
//!     probe.prefetch_first_use(core, line, distance, 300);
//! }
//! let report = probe.finish_into_report(5_000, &ledger).unwrap();
//! assert_eq!(report.ledger.total().used, 1);
//! assert!(report.ledger.reconciles());
//! assert_eq!(report.use_distance.count(), 1);
//! assert_eq!(report.epochs.len(), 5);
//! ```

pub mod epoch;
pub mod hist;
pub mod ledger;
pub mod ring;
pub mod trace;

pub use epoch::{EpochCounters, EpochSample, EpochSampler};
pub use hist::{bucket_lower, bucket_of, bucket_upper, Histogram, BUCKETS};
pub use ledger::{merge_counts, FillOutcome, Ledger, LedgerCounts, MAX_HOPS};
pub use ring::TraceRing;
pub use trace::{EventKind, Trace, TraceEvent, Track};

use imp_common::{Cycle, LineAddr, Pc};
use std::cell::RefCell;
use std::rc::Rc;

/// What an enabled probe records beyond its histograms: an event trace
/// and epoch samples, each optional.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record typed events into a ring of this capacity.
    pub trace_capacity: Option<usize>,
    /// Snapshot counter deltas every this many simulated cycles.
    pub epoch: Option<Cycle>,
}

impl ObsConfig {
    /// Histograms only: no trace, no epochs.
    pub fn metrics() -> Self {
        ObsConfig {
            trace_capacity: None,
            epoch: None,
        }
    }

    /// Everything on: histograms, a `capacity`-event trace ring, and
    /// `epoch`-cycle sampling.
    pub fn full(capacity: usize, epoch: Cycle) -> Self {
        ObsConfig {
            trace_capacity: Some(capacity),
            epoch: Some(epoch),
        }
    }

    /// Adds event tracing with the given ring capacity.
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Adds epoch sampling every `cycles` simulated cycles.
    #[must_use]
    pub fn with_epoch(mut self, cycles: Cycle) -> Self {
        self.epoch = Some(cycles);
        self
    }
}

/// The recording state behind an enabled probe. Histograms are always
/// maintained while enabled; the trace ring and epoch sampler follow
/// the config.
#[derive(Debug)]
struct Recorder {
    demand_latency: Histogram,
    walk_latency: Histogram,
    use_distance: Histogram,
    trace: Option<Trace>,
    epochs: Option<EpochSampler>,
}

impl Recorder {
    fn new(cfg: &ObsConfig) -> Self {
        Recorder {
            demand_latency: Histogram::new(),
            walk_latency: Histogram::new(),
            use_distance: Histogram::new(),
            trace: cfg.trace_capacity.map(Trace::new),
            epochs: cfg.epoch.map(EpochSampler::new),
        }
    }

    fn tick(&mut self, now: Cycle) -> Option<&mut EpochCounters> {
        let e = self.epochs.as_mut()?;
        e.advance(now);
        Some(&mut e.current)
    }

    fn emit(&mut self, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.push(ev);
        }
    }
}

/// A cloneable observation handle. Disabled probes (the default) are a
/// `None` and every record call returns immediately; enabled probes
/// share one recorder across the simulator's subsystems.
///
/// `Rc`-based by design: a `System` is built and run on one thread
/// (sweep workers build in-thread), and the simulator's hot path must
/// not pay for atomics it never contends on.
#[derive(Clone, Debug, Default)]
pub struct Probe(Option<Rc<RefCell<Recorder>>>);

impl Probe {
    /// The no-op probe.
    pub fn disabled() -> Self {
        Probe(None)
    }

    /// A probe recording per `cfg`.
    pub fn new(cfg: &ObsConfig) -> Self {
        Probe(Some(Rc::new(RefCell::new(Recorder::new(cfg)))))
    }

    /// Whether this probe records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// A per-core view for the core engines.
    pub fn for_core(&self, core: u32) -> CoreProbe {
        CoreProbe {
            probe: self.clone(),
            core,
        }
    }

    /// A demand miss issued at `issue` completed at `fill` on `core`
    /// (PC `pc`, line `line`).
    #[inline]
    pub fn demand_complete(&self, core: u32, pc: Pc, line: LineAddr, issue: Cycle, fill: Cycle) {
        let Some(r) = &self.0 else { return };
        let mut r = r.borrow_mut();
        let latency = fill.saturating_sub(issue);
        r.demand_latency.record(latency);
        if let Some(e) = r.tick(fill) {
            e.demand_misses += 1;
            e.demand_latency_sum += latency;
            e.demand_latency.record(latency);
        }
        r.emit(TraceEvent {
            kind: EventKind::DemandMiss,
            track: Track::Core(core),
            start: issue,
            dur: latency.max(1),
            addr: line.base().raw(),
            aux: u64::from(pc.raw()),
        });
    }

    /// A prefetch MSHR entry was newly allocated at `now`.
    #[inline]
    pub fn prefetch_issue(&self, now: Cycle) {
        let Some(r) = &self.0 else { return };
        if let Some(e) = r.borrow_mut().tick(now) {
            e.pf_issued += 1;
        }
    }

    /// A demand access merged into `line`'s in-flight prefetch on
    /// `core` — the prefetch is late.
    #[inline]
    pub fn prefetch_demand_merge(&self, core: u32, line: LineAddr, now: Cycle) {
        let Some(r) = &self.0 else { return };
        let mut r = r.borrow_mut();
        if let Some(e) = r.tick(now) {
            e.pf_late += 1;
        }
        r.emit(TraceEvent {
            kind: EventKind::PrefetchLate,
            track: Track::Core(core),
            start: now,
            dur: 0,
            addr: line.base().raw(),
            aux: 0,
        });
    }

    /// A prefetch fill reached `core`'s L1 for `line`; `outcome` is what
    /// the ledger's [`Ledger::fill`] made of it.
    #[inline]
    pub fn prefetch_fill(&self, core: u32, line: LineAddr, outcome: FillOutcome, now: Cycle) {
        let Some(r) = &self.0 else { return };
        let mut r = r.borrow_mut();
        if let Some(e) = r.tick(now) {
            e.pf_fills += 1;
        }
        if let FillOutcome::Arrived { issue } | FillOutcome::Late { issue } = outcome {
            r.emit(TraceEvent {
                kind: EventKind::PrefetchFlight,
                track: Track::Core(core),
                start: issue,
                dur: now.saturating_sub(issue).max(1),
                addr: line.base().raw(),
                aux: 0,
            });
        }
    }

    /// First demand touch of a prefetched resident `line` on `core`,
    /// `distance` cycles after its fill (the ledger's
    /// [`Ledger::first_use`] closed the entry).
    #[inline]
    pub fn prefetch_first_use(&self, core: u32, line: LineAddr, distance: Cycle, now: Cycle) {
        let Some(r) = &self.0 else { return };
        let mut r = r.borrow_mut();
        r.use_distance.record(distance);
        if let Some(e) = r.tick(now) {
            e.pf_used += 1;
        }
        r.emit(TraceEvent {
            kind: EventKind::PrefetchFirstUse,
            track: Track::Core(core),
            start: now,
            dur: 0,
            addr: line.base().raw(),
            aux: distance,
        });
    }

    /// A prefetched `line` left `core`'s L1 without ever being
    /// demand-touched (the ledger's [`Ledger::evicted_unused`] closed
    /// the entry).
    #[inline]
    pub fn prefetch_evicted_unused(&self, core: u32, line: LineAddr, now: Cycle) {
        let Some(r) = &self.0 else { return };
        let mut r = r.borrow_mut();
        if let Some(e) = r.tick(now) {
            e.pf_evicted_unused += 1;
        }
        r.emit(TraceEvent {
            kind: EventKind::PrefetchEvictedUnused,
            track: Track::Core(core),
            start: now,
            dur: 0,
            addr: line.base().raw(),
            aux: 0,
        });
    }

    /// A demand translation on `core` that left the dTLB: an L2-TLB
    /// hit (`levels == 0`) or a page walk of `levels` radix levels,
    /// costing `cycles` from `start` (zero when the configured latency
    /// is). Callers do not report dTLB hits.
    #[inline]
    pub fn translation(&self, core: u32, vaddr: u64, start: Cycle, cycles: Cycle, levels: u32) {
        let Some(r) = &self.0 else { return };
        let mut r = r.borrow_mut();
        let kind = if levels == 0 {
            EventKind::L2TlbHit
        } else {
            r.walk_latency.record(cycles);
            if let Some(e) = r.tick(start + cycles) {
                e.walks += 1;
                e.walk_cycles += cycles;
                e.walk_latency.record(cycles);
            }
            EventKind::TlbWalk
        };
        r.emit(TraceEvent {
            kind,
            track: Track::Core(core),
            start,
            dur: cycles,
            addr: vaddr,
            aux: u64::from(levels),
        });
    }

    /// A coherence message of kind-index `kind` handled at home tile
    /// `home` for `line`.
    #[inline]
    pub fn coh_msg(&self, home: u32, kind: u32, line: LineAddr, now: Cycle) {
        let Some(r) = &self.0 else { return };
        let mut r = r.borrow_mut();
        if let Some(e) = r.tick(now) {
            e.coh_msgs += 1;
        }
        r.emit(TraceEvent {
            kind: EventKind::CohMsg,
            track: Track::L2Slice(home),
            start: now,
            dur: 0,
            addr: line.base().raw(),
            aux: u64::from(kind),
        });
    }

    /// A directory invalidation round at slice `home` for `line`:
    /// `targets` precise sharers, or `None` for an ACKwise broadcast.
    #[inline]
    pub fn dir_invalidate(&self, home: u32, line: LineAddr, targets: Option<u32>, now: Cycle) {
        let Some(r) = &self.0 else { return };
        let mut r = r.borrow_mut();
        r.tick(now);
        r.emit(TraceEvent {
            kind: EventKind::DirInvalidate,
            track: Track::Dir(home),
            start: now,
            dur: 0,
            addr: line.base().raw(),
            aux: targets.map_or(u64::MAX, u64::from),
        });
    }

    /// Core `core` waited at a barrier from `arrive` to `release`.
    #[inline]
    pub fn barrier_wait(&self, core: u32, arrive: Cycle, release: Cycle) {
        let Some(r) = &self.0 else { return };
        let mut r = r.borrow_mut();
        let wait = release.saturating_sub(arrive);
        if let Some(e) = r.tick(release) {
            e.barrier_cycles += wait;
        }
        r.emit(TraceEvent {
            kind: EventKind::BarrierWait,
            track: Track::Core(core),
            start: arrive,
            dur: wait.max(1),
            addr: 0,
            aux: 0,
        });
    }

    /// Closes the run at `runtime` and extracts the report around a
    /// finished copy of `ledger`, the run's timeliness ledger (the
    /// caller's ledger stays open). Returns `None` for a disabled
    /// probe. Callable on any clone; the report reflects everything
    /// every clone recorded.
    pub fn finish_into_report(&self, runtime: Cycle, ledger: &Ledger) -> Option<ObsReport> {
        let r = self.0.as_ref()?;
        let mut r = r.borrow_mut();
        if let Some(e) = r.epochs.as_mut() {
            e.finish(runtime);
        }
        let mut ledger = ledger.clone();
        ledger.finish();
        Some(ObsReport {
            runtime,
            demand_latency: r.demand_latency.clone(),
            walk_latency: r.walk_latency.clone(),
            use_distance: r.use_distance.clone(),
            ledger,
            epochs: r
                .epochs
                .as_ref()
                .map(|e| e.samples().to_vec())
                .unwrap_or_default(),
            trace: r.trace.clone(),
        })
    }
}

/// A probe pre-bound to one core, handed to the core engines so their
/// completion paths record without knowing the system topology.
#[derive(Clone, Debug, Default)]
pub struct CoreProbe {
    probe: Probe,
    core: u32,
}

impl CoreProbe {
    /// The no-op core probe (what engines hold until attached).
    pub fn disabled() -> Self {
        CoreProbe::default()
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.probe.is_enabled()
    }

    /// This core's demand miss (issued at `issue`, PC `pc`, line
    /// `line`) completed at `fill`.
    #[inline]
    pub fn demand_complete(&self, pc: Pc, line: LineAddr, issue: Cycle, fill: Cycle) {
        self.probe.demand_complete(self.core, pc, line, issue, fill);
    }
}

/// Everything one observed run produced.
#[derive(Clone, Debug)]
pub struct ObsReport {
    /// The run's total simulated cycles.
    pub runtime: Cycle,
    /// Demand-miss latency distribution (issue → fill, per miss).
    pub demand_latency: Histogram,
    /// Page-walk latency distribution (walks only, not L2-TLB hits).
    pub walk_latency: Histogram,
    /// Prefetch-to-use distance distribution (fill → first touch).
    pub use_distance: Histogram,
    /// The run's prefetch-timeliness ledger, finished: every tracked
    /// fill has exactly one fate.
    pub ledger: Ledger,
    /// Epoch time series (empty unless epoch sampling was configured).
    pub epochs: Vec<EpochSample>,
    /// The event trace (None unless tracing was configured).
    pub trace: Option<Trace>,
}

impl ObsReport {
    /// The per-hop form of the ledger's invariant; see
    /// [`Ledger::reconciles_per_hop`].
    pub fn reconciles_per_hop(&self) -> bool {
        self.ledger.reconciles_per_hop()
    }

    /// The small, thread-portable summary sweeps attach per cell.
    pub fn summary(&self) -> ObsSummary {
        ObsSummary {
            demand_p50: self.demand_latency.quantile(0.5),
            demand_p99: self.demand_latency.quantile(0.99),
            walk_p99: self.walk_latency.quantile(0.99),
            use_distance_p50: self.use_distance.quantile(0.5),
            ledger: *self.ledger.total(),
            per_hop: *self.ledger.per_hop(),
            epochs: self.epochs.len(),
        }
    }
}

/// A compact per-run summary (`Send + Sync`: plain counters only) for
/// sweep cells and service manifests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsSummary {
    /// Median demand-miss latency (bucket upper bound), if any misses.
    pub demand_p50: Option<Cycle>,
    /// p99 demand-miss latency (bucket upper bound), if any misses.
    pub demand_p99: Option<Cycle>,
    /// p99 page-walk latency, if any walks.
    pub walk_p99: Option<Cycle>,
    /// Median prefetch-to-use distance, if any used prefetches.
    pub use_distance_p50: Option<Cycle>,
    /// Ledger totals.
    pub ledger: LedgerCounts,
    /// Ledger counts per chain hop (index 0 = sequential; see
    /// [`MAX_HOPS`]). Per-hop accuracy is `per_hop[h].accuracy()`.
    pub per_hop: [LedgerCounts; MAX_HOPS],
    /// Number of epoch samples taken.
    pub epochs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_common::stats::AccessClass;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    #[test]
    fn disabled_probe_is_inert_and_reportless() {
        let p = Probe::disabled();
        assert!(!p.is_enabled());
        p.demand_complete(0, Pc::new(1), line(1), 0, 100);
        p.prefetch_issue(0);
        assert!(p.finish_into_report(1000, &Ledger::default()).is_none());
        assert!(Probe::new(&ObsConfig::metrics()).is_enabled());
        assert!(!CoreProbe::disabled().is_enabled());
    }

    #[test]
    fn clones_share_one_recorder() {
        let p = Probe::new(&ObsConfig::metrics());
        let core_view = p.for_core(3);
        core_view.demand_complete(Pc::new(0x8), line(2), 100, 250);
        p.demand_complete(1, Pc::new(0x8), line(3), 10, 20);
        let report = p.finish_into_report(500, &Ledger::default()).unwrap();
        assert_eq!(report.demand_latency.count(), 2);
        assert_eq!(report.demand_latency.sum(), 160);
    }

    #[test]
    fn full_config_records_all_layers() {
        let p = Probe::new(&ObsConfig::full(64, 100));
        let mut ledger = Ledger::default();
        let pc = Pc::new(0x40);
        // Timely and used at hop 1.
        ledger.issue(0, line(1), pc, AccessClass::Indirect, 1, 10);
        p.prefetch_issue(10);
        p.prefetch_fill(0, line(1), ledger.fill(0, line(1), 120), 120);
        let distance = ledger.first_use(0, line(1), 150).unwrap();
        p.prefetch_first_use(0, line(1), distance, 150);
        // Late at hop 2.
        ledger.issue(0, line(2), pc, AccessClass::Indirect, 2, 20);
        p.prefetch_issue(20);
        ledger.demand_merge(0, line(2));
        p.prefetch_demand_merge(0, line(2), 60);
        p.prefetch_fill(0, line(2), ledger.fill(0, line(2), 130), 130);
        p.translation(0, 0x1234, 200, 40, 4);
        p.translation(0, 0x5678, 300, 8, 0); // L2 hit: not a walk
        p.translation(0, 0x9abc, 310, 0, 0); // zero-latency L2 hit: recorded
        p.barrier_wait(1, 400, 450);
        p.coh_msg(2, 3, line(9), 410);
        p.dir_invalidate(2, line(9), None, 415);
        let report = p.finish_into_report(500, &ledger).unwrap();
        assert!(report.ledger.reconciles());
        assert!(report.reconciles_per_hop());
        let total = report.ledger.total();
        assert_eq!(total.fills, 2);
        assert_eq!((total.used, total.late), (1, 1));
        assert_eq!(report.ledger.per_hop()[1].used, 1);
        assert_eq!(report.ledger.per_hop()[2].late, 1);
        assert_eq!(report.walk_latency.count(), 1);
        assert_eq!(report.use_distance.count(), 1);
        assert_eq!(report.use_distance.sum(), 30);
        assert_eq!(report.epochs.len(), 5);
        let total_fills: u64 = report.epochs.iter().map(|e| e.counters.pf_fills).sum();
        assert_eq!(total_fills, 2);
        let trace = report.trace.as_ref().unwrap();
        let l2_hits = trace.iter().filter(|e| e.kind == EventKind::L2TlbHit);
        assert_eq!(l2_hits.count(), 2);
        assert!(trace.iter().any(|e| e.kind == EventKind::DirInvalidate));
        let flights = trace.iter().filter(|e| e.kind == EventKind::PrefetchFlight);
        assert_eq!(flights.count(), 2, "one flight span per tracked fill");
        let json = trace.to_chrome_json();
        assert!(json.contains("prefetch_first_use"));
        let s = report.summary();
        assert_eq!(s.ledger.fills, 2);
        assert_eq!(s.per_hop[1].accuracy(), 1.0);
        assert_eq!(s.per_hop[2].accuracy(), 0.0, "hop 2's only fill was late");
        assert_eq!(s.epochs, 5);
        assert!(s.demand_p50.is_none(), "no demand misses recorded");
        assert!(s.use_distance_p50.is_some());
    }

    #[test]
    fn the_report_finishes_a_copy_of_the_ledger() {
        let p = Probe::new(&ObsConfig::metrics());
        let mut ledger = Ledger::default();
        ledger.issue(0, line(1), Pc::new(0x40), AccessClass::Stream, 0, 10);
        ledger.fill(0, line(1), 20);
        let report = p.finish_into_report(100, &ledger).unwrap();
        assert_eq!(report.ledger.total().evicted_unused, 1, "resident at end");
        // The caller's ledger stays open: the line can still be used.
        assert_eq!(ledger.first_use(0, line(1), 30), Some(10));
        assert_eq!(ledger.total().evicted_unused, 0);
    }
}
