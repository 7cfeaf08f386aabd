//! Observation and request types shared by all prefetchers.

use crate::feedback::{Control, Feedback};
use imp_common::stats::AccessClass;
use imp_common::{Addr, FastMap, LineAddr, Pc, SectorMask};
use imp_obs::CoreProbe;
use std::ops::AddAssign;

/// One L1 access as observed by a prefetcher snooping the cache
/// (Figure 3: IMP sees both the access stream and the miss stream).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Static instruction identifier of the access.
    pub pc: Pc,
    /// Demanded byte address.
    pub addr: Addr,
    /// Access size in bytes.
    pub size: u32,
    /// True for stores.
    pub is_write: bool,
    /// True if the access hit in the L1 (misses feed the IPD).
    pub miss: bool,
}

impl Access {
    /// A load that hit in the L1.
    pub fn load_hit(pc: Pc, addr: Addr, size: u32) -> Self {
        Access {
            pc,
            addr,
            size,
            is_write: false,
            miss: false,
        }
    }

    /// A load that missed in the L1.
    pub fn load_miss(pc: Pc, addr: Addr, size: u32) -> Self {
        Access {
            pc,
            addr,
            size,
            is_write: false,
            miss: true,
        }
    }

    /// A store (hit or miss per `miss`).
    pub fn store(pc: Pc, addr: Addr, size: u32, miss: bool) -> Self {
        Access {
            pc,
            addr,
            size,
            is_write: true,
            miss,
        }
    }
}

/// What kind of prefetch a request is (used for statistics, for
/// multi-level chaining, and for per-hop attribution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchKind {
    /// Sequential (next-line / stream) prefetch, possibly of an index
    /// array.
    Sequential,
    /// Indirect prefetch generated from Eq. (2); `pt` is the Prefetch
    /// Table entry that produced it and `hop` its 1-based chain depth
    /// (1 = `A[B[i]]`, 2 = the outer hop of `A[B[C[i]]]`, ...).
    Indirect {
        /// Producing PT entry.
        pt: usize,
        /// 1-based chain hop of the producing pattern.
        hop: u8,
    },
    /// Translation-only chain-ahead request: the depth-k frontier asks
    /// the fabric to prefill the *translation* of the next hop's target
    /// page without fetching its data. Never issued to the cache
    /// hierarchy; the fabric routes it straight to the
    /// translation-prefetch port (and drops it when translation
    /// prefetching is off).
    TranslationOnly {
        /// 1-based chain hop of the page being pre-translated.
        hop: u8,
    },
}

impl PrefetchKind {
    /// The request's 1-based chain hop (0 for sequential prefetches,
    /// which trail the demand stream rather than chasing values).
    pub fn hop(self) -> u8 {
        match self {
            PrefetchKind::Sequential => 0,
            PrefetchKind::Indirect { hop, .. } | PrefetchKind::TranslationOnly { hop } => hop,
        }
    }

    /// True for translation-only chain-ahead requests.
    pub fn is_translation_only(self) -> bool {
        matches!(self, PrefetchKind::TranslationOnly { .. })
    }
}

/// A prefetch emitted toward the memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// PC of the access (or pattern's index stream) that triggered the
    /// request: [`StreamTable::DETACHED_PC`](crate::StreamTable) for
    /// secondary patterns with no instruction stream of their own. The
    /// timeliness ledger keys its per-PC coverage/accuracy counts on
    /// this.
    pub pc: Pc,
    /// The demanded byte address the prefetch anticipates.
    pub addr: Addr,
    /// Sectors of the line to fetch (full mask when partial cacheline
    /// accessing is off).
    pub sectors: SectorMask,
    /// Fetch in Exclusive/Modified state (the pattern's accesses write).
    pub exclusive: bool,
    /// Origin of the request.
    pub kind: PrefetchKind,
}

impl PrefetchRequest {
    /// The target cache line.
    pub fn line(&self) -> LineAddr {
        LineAddr::containing(self.addr)
    }

    /// True when the target address was computed from a *data value*
    /// (an indirect prediction). Sequential prefetches trail the demand
    /// stream and find their pages TLB-resident; indirect ones land on
    /// arbitrary pages, so they are the requests worth prefilling
    /// translations for (`TlbConfig::tlb_prefetch` routes them through
    /// the simulator's translation-prefetch port).
    /// [`PrefetchKind::TranslationOnly`] requests return `false` here:
    /// they do not *also* want a translation prefetch — they *are* one,
    /// and the fabric routes them before this predicate is consulted.
    pub fn wants_translation_prefetch(&self) -> bool {
        matches!(self.kind, PrefetchKind::Indirect { .. })
    }
}

/// Where IMP reads index values from.
///
/// In hardware IMP reads `B[i + delta]` out of the cache once the stream
/// prefetcher has brought the line in; `read_value` returns `None` when
/// the value is not yet available, and the caller may retry after the
/// corresponding line fill.
pub trait IndexValueSource {
    /// Reads a zero-extended little-endian unsigned value of `size`
    /// bytes at `addr`, or `None` if the location's value is not
    /// available to the prefetcher yet.
    fn read_value(&mut self, addr: Addr, size: u32) -> Option<u64>;
}

/// A table-backed [`IndexValueSource`] for unit tests and examples.
#[derive(Debug, Default)]
pub struct MapValueSource {
    values: FastMap<(u64, u32), u64>,
}

impl MapValueSource {
    /// Creates an empty source.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `value` as the `size`-byte integer at `addr`.
    pub fn insert(&mut self, addr: Addr, size: u32, value: u64) {
        self.values.insert((addr.raw(), size), value);
    }
}

impl IndexValueSource for MapValueSource {
    fn read_value(&mut self, addr: Addr, size: u32) -> Option<u64> {
        self.values.get(&(addr.raw(), size)).copied()
    }
}

/// Counters shared by all prefetcher implementations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrefetcherStats {
    /// Stream prefetches emitted.
    pub stream_prefetches: u64,
    /// Indirect prefetches emitted.
    pub indirect_prefetches: u64,
    /// Indirect patterns detected by the IPD.
    pub patterns_detected: u64,
    /// IPD detections that failed (third index with no match).
    pub detect_failures: u64,
    /// Secondary (multi-way) patterns detected.
    pub ways_detected: u64,
    /// Secondary (multi-level) patterns detected.
    pub levels_detected: u64,
    /// Prefetches issued with a sub-line sector mask.
    pub partial_prefetches: u64,
    /// Index-value reads that failed because the index line was not yet
    /// cache-resident (the prefetch was deferred).
    pub value_unavailable: u64,
    /// Deferred indirect prefetches dropped because the retry list was
    /// full.
    pub deferred_drops: u64,
    /// Deferred indirect prefetches successfully retried after their
    /// index line filled.
    pub deferred_retries: u64,
    /// Translation-only chain-ahead requests emitted at the depth-k
    /// data frontier (one hop beyond the deepest data prefetch).
    pub translation_ahead: u64,
}

/// Field-by-field sum: the one place counters from several models
/// (hybrid components, or models replaced mid-run) are merged.
impl AddAssign<&PrefetcherStats> for PrefetcherStats {
    fn add_assign(&mut self, rhs: &PrefetcherStats) {
        self.stream_prefetches += rhs.stream_prefetches;
        self.indirect_prefetches += rhs.indirect_prefetches;
        self.patterns_detected += rhs.patterns_detected;
        self.detect_failures += rhs.detect_failures;
        self.ways_detected += rhs.ways_detected;
        self.levels_detected += rhs.levels_detected;
        self.partial_prefetches += rhs.partial_prefetches;
        self.value_unavailable += rhs.value_unavailable;
        self.deferred_drops += rhs.deferred_drops;
        self.deferred_retries += rhs.deferred_retries;
        self.translation_ahead += rhs.translation_ahead;
    }
}

/// Everything a prefetcher hook may touch, bundled so the hot path
/// stays allocation-free: the caller-owned request buffer, the
/// triggering PC, the access class of the triggering request, a value
/// source for index reads, and an observability handle. Callers build
/// one over their pooled buffer and hand it to
/// [`L1Prefetcher::on_access_ctx`] / [`L1Prefetcher::on_prefetch_fill_ctx`].
pub struct PrefetchCtx<'a> {
    /// PC of the access or request that triggered this hook.
    pub pc: Pc,
    /// Access class of the trigger: [`AccessClass::Other`] for demand
    /// accesses, the request's class for fill chaining.
    pub class: AccessClass,
    /// Where index values are read from (the L1, in the simulator).
    pub values: &'a mut dyn IndexValueSource,
    /// Caller-owned output buffer (not cleared first) — push emitted
    /// requests here, or use [`PrefetchCtx::emit`].
    pub out: &'a mut Vec<PrefetchRequest>,
    /// Per-core observability handle (disabled outside a probed run).
    pub probe: &'a CoreProbe,
}

impl<'a> PrefetchCtx<'a> {
    /// A context for a demand-access observation.
    pub fn new(
        pc: Pc,
        class: AccessClass,
        values: &'a mut dyn IndexValueSource,
        out: &'a mut Vec<PrefetchRequest>,
        probe: &'a CoreProbe,
    ) -> Self {
        PrefetchCtx {
            pc,
            class,
            values,
            out,
            probe,
        }
    }

    /// Pushes one request onto the output buffer.
    #[inline]
    pub fn emit(&mut self, req: PrefetchRequest) {
        self.out.push(req);
    }
}

/// The [`AccessClass`] a request of `kind` belongs to.
pub fn class_of(kind: PrefetchKind) -> AccessClass {
    match kind {
        PrefetchKind::Sequential => AccessClass::Stream,
        PrefetchKind::Indirect { .. } | PrefetchKind::TranslationOnly { .. } => {
            AccessClass::Indirect
        }
    }
}

/// The interface between an L1 cache and its attached prefetcher.
///
/// Requests are pushed into the caller-supplied buffer inside the
/// [`PrefetchCtx`] rather than returned: prefetchers run on every
/// demand access, and reusing one buffer across accesses keeps the hot
/// path allocation-free.
///
/// [`on_access_ctx`] and [`stats`] are required; every other hook
/// defaults to doing nothing. A type that implements only `stats` is
/// rejected at compile time:
///
/// ```compile_fail,E0046
/// use imp_prefetch::{L1Prefetcher, PrefetcherStats};
///
/// struct StatsOnly(PrefetcherStats);
///
/// impl L1Prefetcher for StatsOnly {
///     fn stats(&self) -> &PrefetcherStats {
///         &self.0
///     }
/// }
/// ```
///
/// # Feedback
///
/// When an adaptive manager is configured, [`on_feedback`] delivers an
/// epoch [`Feedback`] digest and lets the prefetcher request its own
/// throttling via [`Control`]. The default ignores feedback.
///
/// [`on_access_ctx`]: L1Prefetcher::on_access_ctx
/// [`stats`]: L1Prefetcher::stats
/// [`on_feedback`]: L1Prefetcher::on_feedback
pub trait L1Prefetcher {
    /// Observes one demand access (hit or miss), pushing any prefetches
    /// to issue onto `ctx.out` (which is not cleared first).
    fn on_access_ctx(&mut self, access: Access, ctx: &mut PrefetchCtx<'_>);

    /// Notifies that a previously issued prefetch has filled the L1,
    /// pushing any follow-on prefetches (multi-level indirection) onto
    /// `ctx.out`.
    fn on_prefetch_fill_ctx(&mut self, request: PrefetchRequest, ctx: &mut PrefetchCtx<'_>) {
        let _ = (request, ctx);
    }

    /// Receives one epoch's [`Feedback`] digest from the adaptive
    /// manager and may return a [`Control`] requesting throttling, PC
    /// masking, or a prefetcher switch. Only called when a manager is
    /// configured (`SystemConfig::manager`); the default requests
    /// nothing.
    fn on_feedback(&mut self, feedback: &Feedback) -> Control {
        let _ = feedback;
        Control::none()
    }

    /// Notifies that the L1 evicted `line` (feeds the Granularity
    /// Predictor's sampling).
    fn on_eviction(&mut self, line: LineAddr) {
        let _ = line;
    }

    /// Observes a demand access for granularity sampling (which sectors
    /// of `line` the demand touched).
    fn on_demand_touch(&mut self, line: LineAddr, sectors: SectorMask) {
        let _ = (line, sectors);
    }

    /// Statistics snapshot.
    fn stats(&self) -> &PrefetcherStats;
}

/// Test shorthand for driving a prefetcher without a simulator: run a
/// hook over a fresh buffer and return what it emitted.
#[cfg(test)]
pub(crate) trait CollectExt: L1Prefetcher {
    fn on_access_collect(
        &mut self,
        access: Access,
        values: &mut dyn IndexValueSource,
    ) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        let probe = CoreProbe::disabled();
        let mut ctx = PrefetchCtx::new(access.pc, AccessClass::Other, values, &mut out, &probe);
        self.on_access_ctx(access, &mut ctx);
        out
    }

    fn on_prefetch_fill_collect(
        &mut self,
        request: PrefetchRequest,
        values: &mut dyn IndexValueSource,
    ) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        let probe = CoreProbe::disabled();
        let mut ctx =
            PrefetchCtx::new(request.pc, class_of(request.kind), values, &mut out, &probe);
        self.on_prefetch_fill_ctx(request, &mut ctx);
        out
    }
}

#[cfg(test)]
impl<P: L1Prefetcher + ?Sized> CollectExt for P {}

/// A prefetcher that never prefetches.
#[derive(Debug, Default)]
pub struct NullPrefetcher {
    stats: PrefetcherStats,
}

impl NullPrefetcher {
    /// Creates the null prefetcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl L1Prefetcher for NullPrefetcher {
    fn on_access_ctx(&mut self, _access: Access, _ctx: &mut PrefetchCtx<'_>) {}

    fn stats(&self) -> &PrefetcherStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_source_roundtrip() {
        let mut s = MapValueSource::new();
        s.insert(Addr::new(0x10), 4, 99);
        assert_eq!(s.read_value(Addr::new(0x10), 4), Some(99));
        assert_eq!(s.read_value(Addr::new(0x10), 8), None);
        assert_eq!(s.read_value(Addr::new(0x14), 4), None);
    }

    #[test]
    fn null_prefetcher_is_silent() {
        let mut p = NullPrefetcher::new();
        let mut s = MapValueSource::new();
        let reqs = p.on_access_collect(Access::load_miss(Pc::new(1), Addr::new(64), 8), &mut s);
        assert!(reqs.is_empty());
        assert_eq!(p.stats().stream_prefetches, 0);
    }

    #[test]
    fn request_line_is_derived_from_addr() {
        let r = PrefetchRequest {
            pc: Pc::new(0),
            addr: Addr::new(0x1238),
            sectors: SectorMask::FULL_L1,
            exclusive: false,
            kind: PrefetchKind::Sequential,
        };
        assert_eq!(r.line(), LineAddr::containing(Addr::new(0x1200)));
    }

    #[test]
    fn only_indirect_requests_want_translation_prefetch() {
        let mut r = PrefetchRequest {
            pc: Pc::new(0),
            addr: Addr::new(0x1238),
            sectors: SectorMask::FULL_L1,
            exclusive: false,
            kind: PrefetchKind::Sequential,
        };
        assert!(!r.wants_translation_prefetch());
        r.kind = PrefetchKind::Indirect { pt: 3, hop: 1 };
        assert!(r.wants_translation_prefetch());
        // Translation-only requests are routed, not re-translated.
        r.kind = PrefetchKind::TranslationOnly { hop: 3 };
        assert!(!r.wants_translation_prefetch());
        assert!(r.kind.is_translation_only());
    }

    #[test]
    fn hops_and_classes_track_the_kind() {
        assert_eq!(PrefetchKind::Sequential.hop(), 0);
        assert_eq!(PrefetchKind::Indirect { pt: 0, hop: 2 }.hop(), 2);
        assert_eq!(PrefetchKind::TranslationOnly { hop: 4 }.hop(), 4);
        assert_eq!(class_of(PrefetchKind::Sequential), AccessClass::Stream);
        assert_eq!(
            class_of(PrefetchKind::TranslationOnly { hop: 3 }),
            AccessClass::Indirect
        );
    }
}
