//! The full-system simulator: tiles (core + L1D + prefetcher + L2 slice +
//! directory slice), mesh NoC, memory controllers, and the event loop.
//!
//! The protocol is a simplified MSI directory protocol with ACKwise-4
//! sharer tracking (Table 1). Each home tile serializes transactions per
//! line; invalidations are collected with explicit acks; L2 evictions
//! recall L1 copies fire-and-forget (timing-only simplification — data
//! correctness is carried by the functional memory, not the caches).

use crate::msg::{Msg, MsgKind, MAX_TILES};
use imp_adapt::{EpochTracker, Manager, ManagerError};
use imp_cache::{AccessOutcome, Evicted, LineState, MshrAlloc, MshrFile, SectoredCache};
use imp_coherence::{Directory, HomeLine, InvTargets, Request, Txn, MAX_SHARERS};
use imp_common::config::{
    CoreModel, DramModelKind, MemMode, PartialMode, PrefetcherSpec, WalkModel,
};
use imp_common::stats::{
    AccessClass, CoreStats, PrefetchStats, SystemStats, TlbStats, TrafficStats,
};
use imp_common::{
    Addr, Cycle, EventQueue, LineAddr, SectorMask, SystemConfig, L2_SECTOR_BYTES, LINE_BYTES,
};
use imp_cpu::{CoreBlock, CoreEngine, InOrderCore, MemPort, MemResult, OooCore};
use imp_dram::{Ddr3Dram, Ddr3Timing, DramModel, FixedLatencyDram};
use imp_mem::FunctionalMemory;
use imp_noc::{mc_for_line, mc_tiles, Mesh};
use imp_obs::{CoreProbe, Ledger, ObsReport, Probe};
use imp_prefetch::registry::{self, BuildCtx, RegistryError};
use imp_prefetch::{
    class_of, Access, Control, IndexValueSource, L1Prefetcher, NullPrefetcher, PrefetchCtx,
    PrefetchKind, PrefetchRequest, PrefetcherStats,
};
use imp_trace::{BarrierMismatch, OpKind, Program};
use imp_vm::{
    PagePlacement, PrefetchTranslation, TranslationSource, Vm, VmConfigError, WalkMemory, PTE_BYTES,
};
use std::collections::VecDeque;
use std::fmt;

/// Why [`System::try_new`] rejected its inputs.
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// The prefetcher spec did not resolve against the plugin registry.
    Registry(RegistryError),
    /// The program's cores disagree on barrier counts (it would
    /// deadlock).
    Barrier(BarrierMismatch),
    /// The program was generated for a different core count than the
    /// configuration describes.
    CoreCountMismatch {
        /// Cores the program was generated for.
        program: usize,
        /// Cores the configuration describes.
        config: u32,
    },
    /// The TLB configuration is invalid (zero sets/ways, bad page size).
    Vm(VmConfigError),
    /// The adaptive-manager spec did not resolve (unknown policy or
    /// invalid parameter).
    Manager(ManagerError),
    /// The mesh has more tiles than a 16-bit tile id can name.
    TooManyTiles {
        /// Tiles the configuration describes.
        tiles: u32,
        /// The most tiles the simulator supports.
        max: u32,
    },
    /// The directory's ACKwise pointer count is wider than a directory
    /// record stores inline.
    AckwiseTooWide {
        /// The configured `ackwise_k`.
        k: u32,
        /// The widest supported `ackwise_k`.
        max: u32,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Registry(e) => write!(f, "{e}"),
            BuildError::Barrier(e) => write!(f, "{e}"),
            BuildError::CoreCountMismatch { program, config } => write!(
                f,
                "program was generated for {program} cores but the configuration has {config}"
            ),
            BuildError::Vm(e) => write!(f, "{e}"),
            BuildError::Manager(e) => write!(f, "{e}"),
            BuildError::TooManyTiles { tiles, max } => {
                write!(f, "{tiles} tiles exceed the simulator's limit of {max}")
            }
            BuildError::AckwiseTooWide { k, max } => {
                write!(f, "ACKwise k={k} exceeds the supported maximum of {max}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Why [`System::try_run`] stopped before the program finished.
#[derive(Clone, Debug)]
pub enum RunError {
    /// The event budget (default [`DEFAULT_EVENT_BUDGET`], see
    /// [`System::set_event_budget`]) was exhausted before every core
    /// retired. Carries the statistics collected so far, so a sweep can
    /// record the partial cell instead of aborting the process.
    EventBudgetExceeded {
        /// Events processed (= the budget that was exceeded).
        events: u64,
        /// Statistics at the moment the budget ran out.
        stats: Box<SystemStats>,
    },
    /// The event queue drained with unfinished cores: the program
    /// deadlocked (e.g. a core waiting on a barrier no one else reaches).
    Deadlock {
        /// Cores that had not finished.
        unfinished: usize,
        /// Total cores.
        cores: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::EventBudgetExceeded { events, .. } => {
                write!(f, "simulation exceeded event budget ({events} events)")
            }
            RunError::Deadlock { unfinished, cores } => write!(
                f,
                "event queue drained with {unfinished} of {cores} cores unfinished (deadlock)"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Default [`System::try_run`] event budget: generous enough that every
/// legitimate workload finishes, small enough to catch runaway cells.
pub const DEFAULT_EVENT_BUDGET: u64 = 20_000_000_000;

impl From<RegistryError> for BuildError {
    fn from(e: RegistryError) -> Self {
        BuildError::Registry(e)
    }
}

impl From<BarrierMismatch> for BuildError {
    fn from(e: BarrierMismatch) -> Self {
        BuildError::Barrier(e)
    }
}

impl From<VmConfigError> for BuildError {
    fn from(e: VmConfigError) -> Self {
        BuildError::Vm(e)
    }
}

impl From<ManagerError> for BuildError {
    fn from(e: ManagerError) -> Self {
        BuildError::Manager(e)
    }
}

/// The adaptive control plane's run state: a [`Manager`] (epoch length
/// and policy), the [`EpochTracker`] that turns the fabric's cumulative
/// ledger into per-epoch deltas, and the [`Control`] currently in force.
struct ManagerState {
    mgr: Manager,
    tracker: EpochTracker,
    /// Cycle at which the next epoch closes.
    next_epoch: Cycle,
    /// The control installed at the last epoch boundary; applied to
    /// every prefetch-request batch until the next boundary.
    control: Control,
    /// The prefetcher spec currently running (switches are applied
    /// once per distinct spec).
    active: PrefetcherSpec,
}

/// Discrete events of the simulation.
#[derive(Debug)]
enum Event {
    CoreWake(u32),
    Deliver(Msg),
}

// The event queue moves events by value; keep them at three words.
const _: () = assert!(std::mem::size_of::<Event>() == 24);

/// Per-core run state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CoreRun {
    Ready,
    WaitMem,
    WaitBarrier,
    Done,
}

/// Who is waiting on an outstanding L1 miss.
#[derive(Debug, Clone, Copy)]
enum Waiter {
    Demand {
        token: u64,
        write: bool,
        touch: SectorMask,
    },
    /// A store retired through the store buffer: no core to wake, but
    /// the filled line must be dirtied.
    Store {
        touch: SectorMask,
    },
    Prefetch {
        req: PrefetchRequest,
    },
    SwPrefetch,
    PerfPref {
        id: u64,
    },
}

/// Reads index values out of the L1 (IMP can only use values whose lines
/// are cache-resident, as the hardware would).
struct L1Values<'a> {
    l1: &'a SectoredCache,
    mem: &'a FunctionalMemory,
}

impl IndexValueSource for L1Values<'_> {
    fn read_value(&mut self, addr: Addr, size: u32) -> Option<u64> {
        let line = LineAddr::containing(addr);
        let l = self.l1.probe(line)?;
        // Clip the touch mask to the cache's sectoring (a non-sectored
        // cache has a single sector covering the whole line).
        let need = SectorMask::l1_touch(addr, size).intersect(self.l1.full_mask());
        if l.valid.contains(need) {
            Some(self.mem.read_uint(addr, size))
        } else {
            None
        }
    }
}

/// Everything except the core engines (so cores and fabric can be
/// borrowed simultaneously).
struct Fabric {
    cfg: SystemConfig,
    queue: EventQueue<Event>,
    l1: Vec<SectoredCache>,
    mshr: Vec<MshrFile<Waiter>>,
    pref: Vec<Box<dyn L1Prefetcher>>,
    pstats: Vec<PrefetchStats>,
    l2: Vec<SectoredCache>,
    /// Per-home directories: each line's sharers, open transaction and
    /// waiting requests.
    dir: Vec<Directory>,
    mesh: Mesh,
    drams: Vec<Box<dyn DramModel>>,
    mc_tiles: Vec<u32>,
    mem: FunctionalMemory,
    traffic: TrafficStats,
    completions: Vec<(u32, u64, Cycle)>,
    /// Observability hook (disabled by default — every record call is a
    /// branch on a `None` and changes no timing either way; see
    /// [`System::attach_probe`]).
    probe: Probe,
    /// Per-core views of `probe` handed to prefetchers through
    /// [`PrefetchCtx`] (pre-built so the hot path never clones).
    cprobes: Vec<CoreProbe>,
    /// The prefetch-timeliness ledger: each tracked prefetch's fate is
    /// decided here once, at issue, demand merge, fill, first use and
    /// leaving the L1, and the probe is told what was decided. The
    /// manager reads it every epoch and the probe's report carries a
    /// finished copy. Present when a manager runs or an enabled probe
    /// is attached; `None` otherwise.
    ledger: Option<Ledger>,
    /// Adaptive manager state; `None` — the default — leaves every
    /// path below bit-identical to an unmanaged build.
    mgr: Option<ManagerState>,
    /// Model-side prefetcher statistics carried over from prefetchers
    /// replaced by a manager-requested switch (zero until a switch
    /// happens); [`System::collect_stats`] adds them to the live
    /// model's counters.
    carried_pref: Vec<PrefetcherStats>,
    /// Reusable [`PrefetchRequest`] buffers for prefetcher callbacks
    /// (a pool, because fill hooks can recurse through
    /// [`Fabric::issue_prefetch`]). Keeps the per-access path
    /// allocation-free.
    req_bufs: Vec<Vec<PrefetchRequest>>,
    next_token: u64,
    /// Per-core dTLBs over a shared page table/walker; `None` under the
    /// default ideal translation (and in the Ideal/PerfectPrefetch
    /// memory modes), where every path below is bit-identical to the
    /// pre-`imp-vm` simulator. The page table identity-maps on first
    /// touch, so translation changes timing only — never which lines
    /// move. Boxed, because each translation takes it out of `self`
    /// and puts it back (see [`Fabric::demand_translate`]).
    vm: Option<Box<Vm>>,
    // PerfectPrefetch state: the shadow L1s, and per core the
    // outstanding fetches as (id, issue cycle), oldest first.
    shadow: Vec<SectoredCache>,
    pp_outstanding: Vec<VecDeque<(u64, Cycle)>>,
    pp_blocked: Vec<Option<(u64, u64)>>,
    pp_next_id: u64,
}

impl Fabric {
    fn home_of(&self, line: LineAddr) -> u32 {
        (line.number() % u64::from(self.cfg.cores)) as u32
    }

    fn take_req_buf(&mut self) -> Vec<PrefetchRequest> {
        self.req_bufs.pop().unwrap_or_default()
    }

    fn put_req_buf(&mut self, mut buf: Vec<PrefetchRequest>) {
        buf.clear();
        self.req_bufs.push(buf);
    }

    /// Applies the manager's standing [`Control`] to a freshly
    /// collected request batch: masked PCs are dropped, then the batch
    /// is truncated to the degree limit. A no-op without a manager (or
    /// under the `static` policy, whose control is always empty).
    fn apply_control(&self, reqs: &mut Vec<PrefetchRequest>) {
        let Some(m) = self.mgr.as_ref() else { return };
        if m.control.is_none() {
            return;
        }
        if !m.control.masked_pcs.is_empty() {
            // masked_pcs is sorted+deduped by `Control::merge`.
            reqs.retain(|r| m.control.masked_pcs.binary_search(&r.pc).is_err());
        }
        if let Some(max_hop) = m.control.depth_limit {
            // Deep-chase demotion: drop chained requests past the
            // allowed hop (sequential prefetches are hop 0 and always
            // survive this filter).
            reqs.retain(|r| r.kind.hop() <= max_hop);
        }
        if let Some(limit) = m.control.degree_limit {
            reqs.truncate(limit as usize);
        }
    }

    /// Total prefetch translations dropped by the TLB so far (base +
    /// huge sub-TLBs, all cores) — the pressure signal behind the
    /// demote-IMP rule.
    fn tlb_prefetch_drops_total(&self) -> u64 {
        let Some(vm) = self.vm.as_ref() else { return 0 };
        (0..self.cfg.cores as usize)
            .map(|c| vm.stats(c).prefetch_drops + vm.huge_stats(c).map_or(0, |s| s.prefetch_drops))
            .sum()
    }

    /// Closes every epoch boundary at or before `now`: distills the
    /// ledger into a [`Feedback`](imp_prefetch::Feedback) delta, asks
    /// the policy and each core's prefetcher for a [`Control`], applies
    /// a requested switch, and installs the merged control until the
    /// next boundary. It runs before every event, so between boundaries
    /// it returns before moving the manager state.
    fn manager_tick(&mut self, now: Cycle) {
        if !self.mgr.as_ref().is_some_and(|m| now >= m.next_epoch) {
            return;
        }
        let Some(mut m) = self.mgr.take() else { return };
        while now >= m.next_epoch {
            let end = m.next_epoch;
            let drops = self.tlb_prefetch_drops_total();
            let ledger = self
                .ledger
                .as_ref()
                .expect("a managed fabric keeps a ledger");
            let fb = m.tracker.feedback(ledger, end, drops);
            let mut ctl = m.mgr.on_epoch(&fb);
            for p in &mut self.pref {
                ctl = ctl.merge(p.on_feedback(&fb));
            }
            if let Some(spec) = ctl.switch_to.take() {
                if spec != m.active && self.switch_prefetcher(&spec) {
                    m.active = spec;
                }
            }
            m.control = ctl;
            m.next_epoch = end + m.mgr.epoch_len();
        }
        self.mgr = Some(m);
    }

    /// Rebuilds every core's prefetcher from `spec`, folding the
    /// outgoing models' detection counters into the carried statistics
    /// so nothing is lost at the seam. Returns `false` (leaving the
    /// running prefetchers untouched) if the registry rejects the spec
    /// — a mid-run switch must never abort a simulation.
    fn switch_prefetcher(&mut self, spec: &PrefetcherSpec) -> bool {
        let partial = self.cfg.partial != PartialMode::Off;
        let mut fresh: Vec<Box<dyn L1Prefetcher>> = Vec::with_capacity(self.pref.len());
        for c in 0..self.pref.len() {
            let ctx = BuildCtx {
                core: c as u32,
                imp: &self.cfg.imp,
                partial,
            };
            match registry::build(spec, &ctx) {
                Ok(p) => fresh.push(p),
                Err(_) => return false,
            }
        }
        for (k, old) in self.carried_pref.iter_mut().zip(&self.pref) {
            *k += old.stats();
        }
        self.pref = fresh;
        true
    }

    fn send(&mut self, msg: Msg, at: Cycle) {
        post(&mut self.mesh, &mut self.queue, msg, at);
    }

    /// Sends core `c`'s read (or, if `exclusive`, write) request for
    /// `sectors` of `line` to the line's home tile.
    fn send_request(
        &mut self,
        c: usize,
        line: LineAddr,
        sectors: SectorMask,
        exclusive: bool,
        now: Cycle,
    ) {
        let kind = if exclusive {
            MsgKind::GetX
        } else {
            MsgKind::GetS
        };
        let c = c as u32;
        self.send(
            Msg::new(kind, line, c, self.home_of(line), c)
                .sectors(sectors)
                .exclusive(exclusive),
            now,
        );
    }

    fn full_or(&self, partial_sectors: SectorMask) -> SectorMask {
        if self.cfg.partial == PartialMode::Off {
            SectorMask::FULL_L1
        } else {
            partial_sectors
        }
    }

    // ------------------------------------------------------------------
    // Address translation (imp-vm)
    // ------------------------------------------------------------------

    /// First-order walk traffic under `WalkModel::Flat`: each radix
    /// level reads one 8-byte page-table entry from DRAM (no NoC or
    /// shared-cache occupancy). Under `WalkModel::Cached` the real PTE
    /// reads are accounted in [`Fabric::pte_read`] instead.
    fn walk_traffic(&mut self, levels: u32) {
        if self.cfg.tlb.walk_dram_traffic && self.cfg.tlb.walk_model == WalkModel::Flat {
            self.traffic.dram_read_bytes += 8 * u64::from(levels);
            self.traffic.dram_accesses += u64::from(levels);
        }
    }

    /// Translates a demand access issued at `now`, returning the
    /// translation cycles it must stall for (0 on a TLB hit or under
    /// ideal translation). The `Vm` is taken out of `self` for the
    /// call so a cached walk can route its PTE reads back through this
    /// fabric.
    fn demand_translate(&mut self, c: usize, addr: Addr, now: Cycle) -> Cycle {
        let Some(mut vm) = self.vm.take() else {
            return 0;
        };
        let t = vm.demand_translate_via(c, addr, now, self);
        self.vm = Some(vm);
        let levels = match t.source {
            TranslationSource::DTlbHit => return 0,
            TranslationSource::L2TlbHit => 0,
            TranslationSource::Walk { levels } => {
                // Even a zero-latency flat walk reads its page-table
                // entries.
                self.walk_traffic(levels);
                levels
            }
        };
        self.probe
            .translation(c as u32, addr.raw(), now, t.walk_cycles, levels);
        t.walk_cycles
    }

    /// Translates a prefetch address under the configured policy.
    /// Returns the cycle at which the prefetch may issue (delayed past
    /// `now` by a non-blocking walk or an L2-TLB hit), or `None` when
    /// the policy dropped it.
    fn prefetch_translate(&mut self, c: usize, addr: Addr, now: Cycle) -> Option<Cycle> {
        let Some(mut vm) = self.vm.take() else {
            return Some(now);
        };
        let outcome = vm.prefetch_translate_via(c, addr, now, self);
        self.vm = Some(vm);
        match outcome {
            PrefetchTranslation::Ready(_) => Some(now),
            PrefetchTranslation::Walked { cycles, levels, .. } => {
                self.walk_traffic(levels);
                Some(now + cycles)
            }
            PrefetchTranslation::Dropped => None,
        }
    }

    /// Drives the `Vm`'s translation-prefetch port for a value-derived
    /// prefetch target: prefill the shared L2 TLB with the page's
    /// translation so this prefetch (and later ones to the page)
    /// survive `DropOnMiss`. Returns the cycle the translation is
    /// ready, which is when the data prefetch may continue.
    fn translation_prefetch(&mut self, c: usize, addr: Addr, now: Cycle) -> Cycle {
        let Some(mut vm) = self.vm.take() else {
            return now;
        };
        let tp = vm.prefetch_translation(c, addr, now, self);
        self.vm = Some(vm);
        if tp.walk_levels > 0 {
            self.walk_traffic(tp.walk_levels);
        }
        tp.ready
    }

    // ------------------------------------------------------------------
    // L1 / core side
    // ------------------------------------------------------------------

    fn observe_and_prefetch(&mut self, c: usize, access: Access, now: Cycle) {
        let mut reqs = self.take_req_buf();
        {
            let mut src = L1Values {
                l1: &self.l1[c],
                mem: &self.mem,
            };
            let mut ctx = PrefetchCtx::new(
                access.pc,
                AccessClass::Other,
                &mut src,
                &mut reqs,
                &self.cprobes[c],
            );
            self.pref[c].on_access_ctx(access, &mut ctx);
        }
        self.apply_control(&mut reqs);
        for r in reqs.drain(..) {
            self.issue_prefetch(c, r, now, 0);
        }
        self.put_req_buf(reqs);
    }

    fn issue_prefetch(&mut self, c: usize, req: PrefetchRequest, now: Cycle, depth: u32) {
        if self.cfg.mem_mode != MemMode::Realistic || depth > 4 {
            return;
        }
        // Translation-only chain-ahead requests never touch the cache
        // hierarchy: they prefill the shared L2 TLB for the hop one past
        // the data frontier, and vanish when translation prefetching is
        // off.
        if req.kind.is_translation_only() {
            if self.cfg.tlb.tlb_prefetch {
                self.translation_prefetch(c, req.addr, now);
            }
            return;
        }
        // IMP's value-derived addresses land on arbitrary virtual pages:
        // the prefetch only proceeds once translated (the configured
        // TranslationPolicy may drop or delay it here). With translation
        // prefetching on, an indirect prediction first prefills the
        // shared L2 TLB for its target page — the data prefetch then
        // survives DropOnMiss via an L2-TLB hit, as do later prefetches
        // to the same page.
        let now = if self.cfg.tlb.tlb_prefetch && req.wants_translation_prefetch() {
            self.translation_prefetch(c, req.addr, now)
        } else {
            now
        };
        let Some(now) = self.prefetch_translate(c, req.addr, now) else {
            return;
        };
        let line = req.line();
        let sectors = self.full_or(req.sectors).intersect(self.l1[c].full_mask());
        if let Some(l) = self.l1[c].probe(line) {
            if l.valid.contains(sectors) {
                // Already resident: run the fill hook so multi-level
                // chains continue.
                let mut chained = self.take_req_buf();
                {
                    let mut src = L1Values {
                        l1: &self.l1[c],
                        mem: &self.mem,
                    };
                    let mut ctx = PrefetchCtx::new(
                        req.pc,
                        class_of(req.kind),
                        &mut src,
                        &mut chained,
                        &self.cprobes[c],
                    );
                    self.pref[c].on_prefetch_fill_ctx(req, &mut ctx);
                }
                self.apply_control(&mut chained);
                for r in chained.drain(..) {
                    self.issue_prefetch(c, r, now, depth + 1);
                }
                self.put_req_buf(chained);
                return;
            }
        }
        match self.mshr[c].alloc(line, sectors, true, Waiter::Prefetch { req }) {
            MshrAlloc::Full => self.pstats[c].mshr_drops += 1,
            MshrAlloc::Merged => {}
            MshrAlloc::MergedNeedsMore(extra) => {
                self.send_request(c, line, extra, req.exclusive, now);
            }
            MshrAlloc::New => {
                let class = match req.kind {
                    PrefetchKind::Sequential => {
                        self.pstats[c].issued_stream += 1;
                        AccessClass::Stream
                    }
                    PrefetchKind::Indirect { .. } => {
                        self.pstats[c].issued_indirect += 1;
                        AccessClass::Indirect
                    }
                    PrefetchKind::TranslationOnly { .. } => {
                        unreachable!("translation-only requests are routed before allocation")
                    }
                };
                if let Some(l) = self.ledger.as_mut() {
                    l.issue(c as u32, line, req.pc, class, req.kind.hop(), now);
                    self.probe.prefetch_issue(now);
                }
                if sectors != self.l1[c].full_mask() {
                    self.pstats[c].partial_prefetches += 1;
                }
                self.send_request(c, line, sectors, req.exclusive, now);
            }
        }
    }

    fn demand_miss(
        &mut self,
        c: usize,
        line: LineAddr,
        fetch: SectorMask,
        is_write: bool,
        touch: SectorMask,
        now: Cycle,
    ) -> MemResult {
        let token = self.next_token;
        self.next_token += 1;
        // A merge into a pure-prefetch entry is a late prefetch.
        if let Some(e) = self.mshr[c].get(line) {
            if e.prefetch_only {
                self.pstats[c].late += 1;
                if let Some(l) = self.ledger.as_mut() {
                    l.demand_merge(c as u32, line);
                    self.probe.prefetch_demand_merge(c as u32, line, now);
                }
            }
        }
        let waiter = if is_write {
            Waiter::Store { touch }
        } else {
            Waiter::Demand {
                token,
                write: false,
                touch,
            }
        };
        match self.mshr[c].alloc(line, fetch, false, waiter) {
            MshrAlloc::Merged => {}
            MshrAlloc::MergedNeedsMore(extra) => {
                self.send_request(c, line, extra, is_write, now);
            }
            MshrAlloc::New | MshrAlloc::Full => {
                // Demand misses are never structurally refused: the MSHR
                // file is sized for prefetches; a demand always proceeds.
                self.send_request(c, line, fetch, is_write, now);
            }
        }
        if is_write {
            // Stores retire through the store buffer (1-cycle occupancy);
            // the line is fetched and dirtied in the background.
            MemResult::StoreBuffered(now + self.cfg.mem.l1d.latency)
        } else {
            MemResult::Miss(token)
        }
    }

    /// A demand access against the real L1/coherence path, issued at
    /// `now` (already past any translation stall).
    fn realistic_access(&mut self, c: usize, op: &imp_trace::Op, now: Cycle) -> MemResult {
        let addr = op.mem_addr();
        let line = LineAddr::containing(addr);
        let is_write = op.kind == OpKind::Store;
        let touch = SectorMask::l1_touch(addr, u32::from(op.size));
        let outcome = self.l1[c].demand_access(line, touch, is_write);
        let miss = !matches!(outcome, AccessOutcome::Hit { .. });
        self.observe_and_prefetch(
            c,
            Access {
                pc: op.pc,
                addr,
                size: u32::from(op.size),
                is_write,
                miss,
            },
            now,
        );
        match outcome {
            AccessOutcome::Hit {
                first_touch_of_prefetch,
            } => {
                if first_touch_of_prefetch {
                    self.pstats[c].covered += 1;
                    let ledger = self.ledger.as_mut();
                    if let Some(d) = ledger.and_then(|l| l.first_use(c as u32, line, now)) {
                        self.probe.prefetch_first_use(c as u32, line, d, now);
                    }
                }
                self.pref[c].on_demand_touch(line, touch);
                let needs_upgrade = is_write
                    && self.l1[c]
                        .probe(line)
                        .is_some_and(|l| l.state == LineState::Shared);
                if needs_upgrade {
                    // Upgrade in the background; the store itself
                    // retires through the store buffer.
                    let _ = self.demand_miss(c, line, touch, true, touch, now);
                }
                MemResult::Hit(now + self.cfg.mem.l1d.latency)
            }
            AccessOutcome::SectorMiss { missing, .. } => {
                self.demand_miss(c, line, missing, is_write, touch, now)
            }
            AccessOutcome::Miss => {
                // Demand misses fetch full lines; only IMP's
                // indirect prefetches use partial masks (§4.2).
                self.demand_miss(c, line, SectorMask::FULL_L1, is_write, touch, now)
            }
        }
    }

    fn l1_data(&mut self, msg: Msg, now: Cycle) {
        let c = usize::from(msg.dst);
        let Some(mut entry) = self.mshr[c].complete(msg.line) else {
            return;
        };
        let state = if msg.exclusive {
            LineState::Modified
        } else {
            LineState::Shared
        };
        let evicted = self.l1[c].fill(msg.line, entry.requested, state, entry.prefetch_only);
        if let Some(ev) = evicted {
            self.l1_evicted(c, ev, now);
        }
        let at = now + self.cfg.mem.l1d.latency;
        let mut chained = self.take_req_buf();
        for w in entry.waiters.drain(..) {
            match w {
                Waiter::Demand {
                    token,
                    write,
                    touch,
                } => {
                    // Mark touch/dirty on the freshly filled line.
                    let _ = self.l1[c].demand_access(msg.line, touch, write);
                    self.pref[c].on_demand_touch(msg.line, touch);
                    self.completions.push((c as u32, token, at));
                }
                Waiter::Store { touch } => {
                    let _ = self.l1[c].demand_access(msg.line, touch, true);
                    self.l1[c].mark_dirty(msg.line, touch);
                    self.pref[c].on_demand_touch(msg.line, touch);
                }
                Waiter::Prefetch { req } => {
                    if let Some(l) = self.ledger.as_mut() {
                        let outcome = l.fill(c as u32, msg.line, now);
                        self.probe.prefetch_fill(c as u32, msg.line, outcome, now);
                    }
                    let mut src = L1Values {
                        l1: &self.l1[c],
                        mem: &self.mem,
                    };
                    let mut ctx = PrefetchCtx::new(
                        req.pc,
                        class_of(req.kind),
                        &mut src,
                        &mut chained,
                        &self.cprobes[c],
                    );
                    self.pref[c].on_prefetch_fill_ctx(req, &mut ctx);
                }
                Waiter::SwPrefetch => {}
                Waiter::PerfPref { id } => {
                    if let Some(pos) = self.pp_outstanding[c].iter().position(|&(x, _)| x == id) {
                        self.pp_outstanding[c].remove(pos);
                    }
                    if let Some((bid, token)) = self.pp_blocked[c] {
                        if bid == id {
                            self.pp_blocked[c] = None;
                            self.completions.push((c as u32, token, at));
                        }
                    }
                }
            }
        }
        self.apply_control(&mut chained);
        for r in chained.drain(..) {
            self.issue_prefetch(c, r, now, 1);
        }
        self.put_req_buf(chained);
        self.mshr[c].recycle_waiters(entry.waiters);
    }

    /// A line left core `c`'s L1, by eviction or invalidation: settles
    /// a prefetched line's outcome in the statistics and the ledger,
    /// tells the probe, and tells the prefetcher.
    fn l1_left(&mut self, c: usize, ev: &Evicted, now: Cycle) {
        if ev.prefetched_untouched {
            self.pstats[c].unused += 1;
            let ledger = self.ledger.as_mut();
            if ledger.is_some_and(|l| l.evicted_unused(c as u32, ev.line)) {
                self.probe.prefetch_evicted_unused(c as u32, ev.line, now);
            }
        } else if ev.prefetched_touched {
            self.pstats[c].useful += 1;
        }
        self.pref[c].on_eviction(ev.line);
    }

    fn l1_evicted(&mut self, c: usize, ev: Evicted, now: Cycle) {
        self.l1_left(c, &ev, now);
        if !ev.dirty.is_empty() {
            let payload = mask_bytes(&self.l1[c], ev.dirty);
            let home = self.home_of(ev.line);
            self.send(
                Msg::new(MsgKind::WbL1, ev.line, c as u32, home, c as u32)
                    .sectors(ev.dirty)
                    .payload(payload),
                now,
            );
        }
    }

    fn l1_inv(&mut self, msg: Msg, now: Cycle) {
        let c = usize::from(msg.dst);
        let dirty = match self.l1[c].invalidate(msg.line) {
            Some(ev) => {
                self.l1_left(c, &ev, now);
                ev.dirty
            }
            None => SectorMask::EMPTY,
        };
        // Dirty data rides back with the ack conceptually; account its
        // bytes on the ack message.
        let payload = mask_bytes(&self.l1[c], dirty);
        self.send(
            Msg::new(
                MsgKind::InvAck,
                msg.line,
                c as u32,
                msg.src.into(),
                msg.requester.into(),
            )
            .sectors(dirty)
            .payload(payload),
            now,
        );
    }

    fn l1_fetch(&mut self, msg: Msg, now: Cycle, invalidate: bool) {
        let c = usize::from(msg.dst);
        let present = if invalidate {
            let ev = self.l1[c].invalidate(msg.line);
            if let Some(ref e) = ev {
                self.l1_left(c, e, now);
            }
            ev.is_some()
        } else {
            self.l1[c].downgrade(msg.line);
            self.l1[c].probe(msg.line).is_some()
        };
        let payload = if present { LINE_BYTES } else { 0 };
        self.send(
            Msg::new(
                MsgKind::FetchResp,
                msg.line,
                c as u32,
                msg.src.into(),
                msg.requester.into(),
            )
            .sectors(SectorMask::FULL_L1)
            .exclusive(invalidate)
            .payload(payload),
            now,
        );
    }

    fn mc_read(&mut self, msg: Msg, now: Cycle) {
        let mc = self
            .mc_tiles
            .iter()
            .position(|&t| t == u32::from(msg.dst))
            .expect("MemRead delivered to a non-MC tile");
        let bytes = u64::from(msg.sectors.count()) * L2_SECTOR_BYTES;
        let done = self.drams[mc].access(now, msg.line.base().raw(), bytes, false);
        self.traffic.dram_read_bytes += bytes;
        self.traffic.dram_accesses += 1;
        // Back to the home tile, which sent the read as its own requester.
        let home = u32::from(msg.requester);
        self.send(
            Msg::new(MsgKind::MemReadResp, msg.line, msg.dst.into(), home, home)
                .sectors(msg.sectors)
                .payload(bytes),
            done,
        );
    }

    fn mc_write(&mut self, msg: Msg, now: Cycle) {
        let mc = self
            .mc_tiles
            .iter()
            .position(|&t| t == u32::from(msg.dst))
            .expect("MemWrite delivered to a non-MC tile");
        let bytes = u64::from(msg.payload_bytes).max(L2_SECTOR_BYTES);
        let _ = self.drams[mc].access(now, msg.line.base().raw(), bytes, true);
        self.traffic.dram_write_bytes += bytes;
        self.traffic.dram_accesses += 1;
    }

    /// Home tile `h`'s directory, and the rest of what its handlers
    /// touch, borrowed apart so a directory record can stay borrowed
    /// for a whole message.
    fn home(&mut self, h: usize) -> (&mut Directory, Home<'_>) {
        (
            &mut self.dir[h],
            Home {
                h: h as u32,
                cfg: &self.cfg,
                mesh: &mut self.mesh,
                queue: &mut self.queue,
                l2: &mut self.l2[h],
                l1: &self.l1,
                probe: &self.probe,
                mc_tiles: &self.mc_tiles,
            },
        )
    }

    fn handle_msg(&mut self, msg: Msg, now: Cycle) {
        // Home-tile-bound protocol traffic lands on the destination's
        // L2-slice trace track (core- and MC-bound kinds would need
        // other tracks and dominate trace volume, so only the
        // directory-serialized kinds are recorded).
        if matches!(
            msg.kind,
            MsgKind::GetS | MsgKind::GetX | MsgKind::InvAck | MsgKind::FetchResp | MsgKind::WbL1
        ) {
            self.probe
                .coh_msg(msg.dst.into(), msg.kind.code(), msg.line, now);
        }
        match msg.kind {
            MsgKind::Data => self.l1_data(msg, now),
            MsgKind::Inv => self.l1_inv(msg, now),
            MsgKind::Fetch { invalidate } => self.l1_fetch(msg, now, invalidate),
            MsgKind::MemRead => self.mc_read(msg, now),
            MsgKind::MemWrite => self.mc_write(msg, now),
            MsgKind::GetS
            | MsgKind::GetX
            | MsgKind::InvAck
            | MsgKind::FetchResp
            | MsgKind::WbL1
            | MsgKind::MemReadResp => {
                let (dir, mut home) = self.home(usize::from(msg.dst));
                home.handle(dir, msg, now);
            }
        }
    }
}

/// Queues `msg` for delivery when the mesh gets it to its destination.
fn post(mesh: &mut Mesh, queue: &mut EventQueue<Event>, msg: Msg, at: Cycle) {
    let (arrival, _) = mesh.send(msg.src.into(), msg.dst.into(), msg.payload_bytes.into(), at);
    queue.push(arrival, Event::Deliver(msg));
}

/// Bytes represented by a sector mask of `cache` under its sectoring (a
/// non-sectored line's single sector is the whole line).
fn mask_bytes(cache: &SectoredCache, mask: SectorMask) -> u64 {
    let sectors = cache.sectors().max(1);
    let clipped = mask.intersect(cache.full_mask());
    u64::from(clipped.count()) * (LINE_BYTES / u64::from(sectors))
}

/// A home tile (L2 slice + directory) at work on one message: everything
/// its handlers touch except the directory, which each handler takes
/// as an argument and looks a line up in once.
struct Home<'a> {
    h: u32,
    cfg: &'a SystemConfig,
    mesh: &'a mut Mesh,
    queue: &'a mut EventQueue<Event>,
    l2: &'a mut SectoredCache,
    l1: &'a [SectoredCache],
    probe: &'a Probe,
    mc_tiles: &'a [u32],
}

impl Home<'_> {
    fn send(&mut self, msg: Msg, at: Cycle) {
        post(self.mesh, self.queue, msg, at);
    }

    fn handle(&mut self, dir: &mut Directory, msg: Msg, now: Cycle) {
        let line = msg.line;
        match msg.kind {
            MsgKind::GetS | MsgKind::GetX => {
                let req = Request {
                    requester: msg.requester,
                    sectors: msg.sectors,
                    exclusive: msg.kind == MsgKind::GetX,
                };
                dir.with_line(line, |d| {
                    if d.txn().is_some() {
                        d.enqueue(req);
                    } else {
                        self.start_txn(d, line, req, now);
                    }
                });
            }
            MsgKind::MemReadResp => {
                self.fill(dir, line, msg.sectors, now);
                dir.with_line(line, |d| {
                    if let Some(txn) = d.txn() {
                        txn.data_ready = true;
                    }
                    self.try_complete(d, line, now);
                });
            }
            MsgKind::FetchResp => {
                if msg.payload_bytes > 0 {
                    self.fill(dir, line, SectorMask::FULL_L2, now);
                    self.l2.mark_dirty(line, SectorMask::FULL_L2);
                }
                let owner = u32::from(msg.src);
                dir.with_line(line, |d| {
                    if msg.exclusive {
                        // Owner invalidated (write request).
                        d.remove(owner);
                    } else {
                        // Owner downgraded to Shared: Modified(o) -> Shared{o}.
                        d.add_sharer(owner);
                    }
                    if let Some(txn) = d.txn() {
                        txn.acks_pending = txn.acks_pending.saturating_sub(1);
                        txn.data_ready = true;
                    }
                    self.try_complete(d, line, now);
                });
            }
            MsgKind::InvAck => dir.with_line(line, |d| {
                d.remove(msg.src.into());
                if let Some(txn) = d.txn() {
                    txn.acks_pending = txn.acks_pending.saturating_sub(1);
                }
                self.try_complete(d, line, now);
            }),
            MsgKind::WbL1 => {
                let l2_mask = msg.sectors.widen_to_l2();
                self.fill(dir, line, l2_mask, now);
                self.l2.mark_dirty(line, l2_mask);
                dir.remove(line, msg.src.into());
            }
            _ => unreachable!("{:?} is not home-bound", msg.kind),
        }
    }

    fn start_txn(&mut self, d: &mut HomeLine<'_>, line: LineAddr, req: Request, now: Cycle) {
        let t = now + self.cfg.mem.l2_slice.latency;
        let mut txn = Txn::new(req);
        let requester = u32::from(req.requester);
        if let Some(o) = d.owner().filter(|&o| o != requester) {
            // Data comes from the current owner.
            txn.acks_pending = 1;
            let fetch = MsgKind::Fetch {
                invalidate: req.exclusive,
            };
            self.send(
                Msg::new(fetch, line, self.h, o, requester)
                    .sectors(SectorMask::FULL_L1)
                    .exclusive(req.exclusive),
                t,
            );
            d.open(txn);
            return;
        }
        if req.exclusive {
            let targets = d.invalidation_targets(Some(requester));
            let sent = self.invalidate(line, targets, Some(requester), t);
            txn.acks_pending = u16::try_from(sent).expect("one ack per other tile");
        }
        let l2_need = req.sectors.widen_to_l2();
        match self.l2.demand_access(line, l2_need, false) {
            AccessOutcome::Hit { .. } => txn.data_ready = true,
            AccessOutcome::SectorMiss { missing, .. } => self.dram_fetch(line, missing, t),
            AccessOutcome::Miss => self.dram_fetch(line, l2_need, t),
        }
        d.open(txn);
        self.try_complete(d, line, t);
    }

    /// Sends `Inv` for `line` to `targets` at `t`, returning how many
    /// went out. `requester` is the core being granted exclusive access,
    /// whom a broadcast skips; `None` is the home's own recall.
    fn invalidate(
        &mut self,
        line: LineAddr,
        targets: InvTargets,
        requester: Option<u32>,
        t: Cycle,
    ) -> u32 {
        let sent = targets.count(self.cfg.cores, u32::from(requester.is_some()));
        if targets != InvTargets::None {
            let precise = (!targets.is_broadcast()).then_some(sent);
            self.probe.dir_invalidate(self.h, line, precise, t);
        }
        let from = requester.unwrap_or(self.h);
        match targets {
            InvTargets::None => {}
            InvTargets::Precise(cores) => {
                for c in cores.iter() {
                    self.send(Msg::new(MsgKind::Inv, line, self.h, c, from), t);
                }
            }
            // ACKwise overflow: invalidate everyone (they all ack).
            InvTargets::Broadcast => {
                for c in (0..self.cfg.cores).filter(|&c| Some(c) != requester) {
                    self.send(Msg::new(MsgKind::Inv, line, self.h, c, from), t);
                }
            }
        }
        sent
    }

    fn dram_fetch(&mut self, line: LineAddr, l2_mask: SectorMask, t: Cycle) {
        let l2_mask = if self.cfg.partial == PartialMode::NocAndDram {
            l2_mask
        } else {
            SectorMask::FULL_L2
        };
        let mc = mc_for_line(line.number(), self.cfg.mem.mem_controllers);
        self.send(
            Msg::new(
                MsgKind::MemRead,
                line,
                self.h,
                self.mc_tiles[mc as usize],
                self.h,
            )
            .sectors(l2_mask),
            t,
        );
    }

    /// Completes the line's transaction if its acks and data are all
    /// in, then starts the next request waiting behind it.
    fn try_complete(&mut self, d: &mut HomeLine<'_>, line: LineAddr, at: Cycle) {
        if !d.txn().is_some_and(|t| t.is_ready()) {
            return;
        }
        let req = d.close().expect("checked above").req;
        let requester = u32::from(req.requester);
        if req.exclusive {
            d.set_modified(requester);
        } else {
            d.add_sharer(requester);
        }
        let payload = mask_bytes(&self.l1[usize::from(req.requester)], req.sectors);
        self.send(
            Msg::new(MsgKind::Data, line, self.h, requester, requester)
                .sectors(req.sectors)
                .exclusive(req.exclusive)
                .payload(payload),
            at,
        );
        if let Some(next) = d.dequeue() {
            self.start_txn(d, line, next, at);
        }
    }

    /// Fills `mask` of `line` into the L2 slice, recalling whatever the
    /// fill evicts.
    fn fill(&mut self, dir: &mut Directory, line: LineAddr, mask: SectorMask, now: Cycle) {
        if let Some(ev) = self.l2.fill(line, mask, LineState::Shared, false) {
            self.l2_evicted(dir, ev, now);
        }
    }

    fn l2_evicted(&mut self, dir: &mut Directory, ev: Evicted, now: Cycle) {
        // Recall any L1 copies (fire-and-forget; acks are ignored for
        // lines without transactions).
        let targets = dir.with_line(ev.line, |d| {
            let targets = d.invalidation_targets(None);
            d.clear();
            targets
        });
        self.invalidate(ev.line, targets, None, now);
        if !ev.dirty.is_empty() || ev.state == LineState::Modified {
            let bytes = if ev.dirty.is_empty() {
                LINE_BYTES
            } else {
                mask_bytes(self.l2, ev.dirty)
            };
            let mc = mc_for_line(ev.line.number(), self.cfg.mem.mem_controllers);
            self.send(
                Msg::new(
                    MsgKind::MemWrite,
                    ev.line,
                    self.h,
                    self.mc_tiles[mc as usize],
                    self.h,
                )
                .sectors(ev.dirty)
                .payload(bytes),
                now,
            );
        }
    }
}

/// Page walks as first-class memory traffic (`WalkModel::Cached`): each
/// page-table-entry read crosses the NoC to the PTE line's home L2
/// slice, hits there when the page-table working set is warm, and
/// otherwise fetches the line from DRAM — filling the L2 (evicting
/// whatever loses the set), occupying NoC links and DRAM bandwidth, and
/// showing up in the traffic statistics. Walks therefore contend with
/// demand traffic instead of charging a flat latency.
///
/// The reads use the timing substrate (mesh links, L2 arrays, DRAM
/// models) directly rather than the directory protocol: PTE lines live
/// in their own address region, are never written, and are never cached
/// in L1s, so there is no coherence state to track — but an L2 fill's
/// *evictions* go through the ordinary [`Fabric::l2_evicted`] path and
/// can recall demand lines from L1s.
impl WalkMemory for Fabric {
    fn pte_read(&mut self, core: usize, pte: Addr, now: Cycle) -> Cycle {
        let line = LineAddr::containing(pte);
        let home = self.home_of(line);
        let h = home as usize;
        let (at_home, _) = self.mesh.send(core as u32, home, 0, now);
        let probed = at_home + self.cfg.mem.l2_slice.latency;
        let ready = match self.l2[h].demand_access(line, SectorMask::FULL_L2, false) {
            AccessOutcome::Hit { .. } => probed,
            AccessOutcome::SectorMiss { .. } | AccessOutcome::Miss => {
                let mc = mc_for_line(line.number(), self.cfg.mem.mem_controllers) as usize;
                let mc_tile = self.mc_tiles[mc];
                let (at_mc, _) = self.mesh.send(home, mc_tile, 0, probed);
                let fetched = self.drams[mc].access(at_mc, line.base().raw(), LINE_BYTES, false);
                self.traffic.dram_read_bytes += LINE_BYTES;
                self.traffic.dram_accesses += 1;
                let (back, _) = self.mesh.send(mc_tile, home, LINE_BYTES, fetched);
                let (dir, mut home) = self.home(h);
                home.fill(dir, line, SectorMask::FULL_L2, back);
                back
            }
        };
        let (done, _) = self.mesh.send(home, core as u32, PTE_BYTES, ready);
        done
    }
}

impl MemPort for Fabric {
    fn access(&mut self, core: u32, op: &imp_trace::Op, now: Cycle) -> (MemResult, Cycle) {
        let c = core as usize;
        let addr = op.mem_addr();
        let line = LineAddr::containing(addr);
        let is_write = op.kind == OpKind::Store;
        match self.cfg.mem_mode {
            MemMode::Ideal => (MemResult::Hit(now + self.cfg.mem.l1d.latency), 0),
            MemMode::PerfectPrefetch => {
                let hit = matches!(
                    self.shadow[c].demand_access(line, SectorMask::FULL_L1, is_write),
                    AccessOutcome::Hit { .. }
                );
                if !hit {
                    self.shadow[c].fill(line, SectorMask::FULL_L1, LineState::Shared, false);
                    let id = self.pp_next_id;
                    self.pp_next_id += 1;
                    self.pp_outstanding[c].push_back((id, now));
                    if let MshrAlloc::New =
                        self.mshr[c].alloc(line, SectorMask::FULL_L1, true, Waiter::PerfPref { id })
                    {
                        self.send_request(c, line, SectorMask::FULL_L1, false, now);
                    }
                }
                // Throttle: never run more than `lead` cycles past the
                // oldest incomplete fetch.
                if let Some(&(front, issued)) = self.pp_outstanding[c].front() {
                    if now.saturating_sub(issued) > self.cfg.perfpref_lead {
                        let token = self.next_token;
                        self.next_token += 1;
                        self.pp_blocked[c] = Some((front, token));
                        return (MemResult::Miss(token), 0);
                    }
                }
                (MemResult::Hit(now + self.cfg.mem.l1d.latency), 0)
            }
            MemMode::Realistic => {
                // Demand accesses stall for the page-table walk before
                // touching the cache; everything downstream runs at the
                // post-walk cycle, so the walk delays fills and
                // prefetcher observations alike. With the default ideal
                // TLB the walk is 0 and this path is byte-for-byte the
                // pre-imp-vm behavior.
                let walk = self.demand_translate(c, addr, now);
                (self.realistic_access(c, op, now + walk), walk)
            }
        }
    }

    fn sw_prefetch(&mut self, core: u32, addr: Addr, now: Cycle) {
        if self.cfg.mem_mode != MemMode::Realistic {
            return;
        }
        let c = core as usize;
        // Software prefetches are non-binding: like hardware prefetches
        // they observe the translation policy instead of stalling.
        let Some(now) = self.prefetch_translate(c, addr, now) else {
            return;
        };
        let line = LineAddr::containing(addr);
        if self.l1[c].probe(line).is_some() {
            return;
        }
        if let MshrAlloc::New =
            self.mshr[c].alloc(line, SectorMask::FULL_L1, true, Waiter::SwPrefetch)
        {
            self.pstats[c].issued_stream += 1;
            self.send_request(c, line, SectorMask::FULL_L1, false, now);
        }
    }
}

/// The assembled system: call [`System::new`] with a configuration, a
/// program and the functional memory holding its arrays, then
/// [`System::run`].
pub struct System {
    cores: Vec<Box<dyn CoreEngine>>,
    state: Vec<CoreRun>,
    /// Cores parked at the current barrier, with their arrival cycles
    /// (the cycle is observability-only; release timing never reads it).
    barrier_waiting: Vec<(u32, Cycle)>,
    done_count: usize,
    event_budget: u64,
    events: u64,
    fab: Fabric,
}

impl System {
    /// Builds a system for `program` under `cfg`, resolving the
    /// configured prefetcher against the process-wide plugin registry
    /// (see `imp_prefetch::registry`).
    ///
    /// # Panics
    ///
    /// Panics on any condition [`System::try_new`] reports as a
    /// [`BuildError`]: an unresolvable prefetcher spec, a program whose
    /// core count does not match the configuration, or inconsistent
    /// barrier counts.
    pub fn new(cfg: SystemConfig, program: Program, mem: FunctionalMemory) -> Self {
        Self::try_new(cfg, program, mem).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a system for `program` under `cfg`, surfacing every
    /// invalid-input condition — prefetcher registry failures (unknown
    /// name, bad parameters), a core-count mismatch between program and
    /// configuration, and unbalanced barriers — as a typed
    /// [`BuildError`].
    ///
    /// The program's streams are frozen and shared into the per-core
    /// engines (`Arc` clones, no per-core copies), so constructing many
    /// systems over one generated program is cheap.
    ///
    /// # Errors
    ///
    /// See [`BuildError`].
    pub fn try_new(
        cfg: SystemConfig,
        program: Program,
        mem: FunctionalMemory,
    ) -> Result<Self, BuildError> {
        Self::try_new_placed(cfg, program, mem, &[])
    }

    /// [`System::try_new`] with a huge-page placement: addresses inside
    /// the given `(base, bytes)` extents translate at
    /// [`imp_common::TlbConfig::huge_page_bytes`] (through the per-core
    /// huge-page sub-TLBs and shallower page-table walks); everything
    /// else stays on base pages. Extents are aligned outward to whole
    /// huge pages and merged, exactly like transparent huge pages
    /// promote the pages a region overlaps. An empty slice — or an
    /// ideal/absent TLB — reproduces [`System::try_new`] bit for bit.
    ///
    /// The extents normally come from a workload's recorded
    /// region/placement layer with `Sim::page_policy` overrides
    /// applied; this is the lower-level entry point taking resolved
    /// address ranges.
    ///
    /// # Errors
    ///
    /// See [`BuildError`]; a placement with no huge-page sub-TLB or a
    /// base page size too large to promote surfaces as
    /// [`BuildError::Vm`].
    pub fn try_new_placed(
        cfg: SystemConfig,
        mut program: Program,
        mem: FunctionalMemory,
        huge_regions: &[(u64, u64)],
    ) -> Result<Self, BuildError> {
        if cfg.cores > MAX_TILES {
            return Err(BuildError::TooManyTiles {
                tiles: cfg.cores,
                max: MAX_TILES,
            });
        }
        if cfg.mem.ackwise_k > MAX_SHARERS as u32 {
            return Err(BuildError::AckwiseTooWide {
                k: cfg.mem.ackwise_k,
                max: MAX_SHARERS as u32,
            });
        }
        if program.cores() != cfg.cores as usize {
            return Err(BuildError::CoreCountMismatch {
                program: program.cores(),
                config: cfg.cores,
            });
        }
        program.validate_barriers()?;
        let n = cfg.cores as usize;
        let partial = cfg.partial != PartialMode::Off;
        let l1_sectors = if partial { cfg.mem.l1d.sectors } else { 1 };
        let l2_sectors = if partial { cfg.mem.l2_slice.sectors } else { 1 };

        let cores: Vec<Box<dyn CoreEngine>> = (0..n)
            .map(|c| -> Box<dyn CoreEngine> {
                let ops = program.stream(c); // shared, not copied
                match cfg.core_model {
                    CoreModel::InOrder => Box::new(InOrderCore::new(c as u32, ops)),
                    CoreModel::OutOfOrder => {
                        Box::new(OooCore::new(c as u32, ops, cfg.rob_entries as usize))
                    }
                }
            })
            .collect();

        let pref: Vec<Box<dyn L1Prefetcher>> = (0..n)
            .map(|c| -> Result<Box<dyn L1Prefetcher>, RegistryError> {
                if cfg.mem_mode != MemMode::Realistic {
                    return Ok(Box::new(NullPrefetcher::new()));
                }
                let ctx = BuildCtx {
                    core: c as u32,
                    imp: &cfg.imp,
                    partial,
                };
                registry::build(&cfg.prefetcher, &ctx)
            })
            .collect::<Result<_, _>>()?;

        let mshr_cap = match cfg.mem_mode {
            MemMode::PerfectPrefetch => 1 << 16,
            _ => cfg.mem.l1d.mshrs as usize,
        };

        // The VM subsystem only exists for finite TLBs in Realistic
        // mode; `None` keeps every path bit-identical to the seed.
        let vm = if cfg.mem_mode == MemMode::Realistic && !cfg.tlb.ideal {
            // Validate the base geometry before deriving the huge page
            // size from it (a bad `page_bytes` must surface as a typed
            // error, not a panic inside the placement build).
            imp_vm::validate_config(&cfg.tlb)?;
            let placement = if huge_regions.is_empty() {
                PagePlacement::empty()
            } else {
                PagePlacement::for_regions(huge_regions.iter().copied(), cfg.tlb.huge_page_bytes())
            };
            Some(Box::new(Vm::with_placement(&cfg.tlb, n, placement)?))
        } else {
            imp_vm::validate_config(&cfg.tlb)?;
            None
        };

        // The manager only runs in Realistic mode (there is nothing to
        // manage elsewhere), but a configured spec is validated in
        // every mode so a typo surfaces regardless of the sweep axis.
        let mgr = match &cfg.manager {
            None => None,
            Some(spec) => {
                let m = Manager::build(spec)?;
                if cfg.mem_mode == MemMode::Realistic {
                    Some(ManagerState {
                        next_epoch: m.epoch_len(),
                        mgr: m,
                        tracker: EpochTracker::new(),
                        control: Control::none(),
                        active: cfg.prefetcher.clone(),
                    })
                } else {
                    None
                }
            }
        };

        let drams: Vec<Box<dyn DramModel>> = (0..cfg.mem.mem_controllers)
            .map(|_| -> Box<dyn DramModel> {
                match cfg.mem.dram {
                    DramModelKind::Simple => Box::new(FixedLatencyDram::new(
                        cfg.mem.dram_latency,
                        cfg.mem.dram_bytes_per_cycle,
                    )),
                    DramModelKind::Ddr3 => Box::new(Ddr3Dram::new(Ddr3Timing::default())),
                }
            })
            .collect();

        let side = cfg.mesh_side();
        let fab = Fabric {
            queue: EventQueue::new(),
            l1: (0..n)
                .map(|_| {
                    SectoredCache::new(
                        cfg.mem.l1d.size_bytes,
                        cfg.mem.l1d.associativity,
                        l1_sectors,
                    )
                })
                .collect(),
            mshr: (0..n).map(|_| MshrFile::new(mshr_cap)).collect(),
            pref,
            pstats: vec![PrefetchStats::default(); n],
            l2: (0..n)
                .map(|_| {
                    SectoredCache::new(
                        cfg.mem.l2_slice.size_bytes,
                        cfg.mem.l2_slice.associativity,
                        l2_sectors,
                    )
                })
                .collect(),
            dir: (0..n)
                .map(|_| Directory::new(cfg.mem.ackwise_k as usize, cfg.cores))
                .collect(),
            mesh: Mesh::new(side, cfg.mem.hop_latency, cfg.mem.flit_bytes),
            drams,
            mc_tiles: mc_tiles(side, cfg.mem.mem_controllers),
            mem,
            traffic: TrafficStats::default(),
            completions: Vec::new(),
            probe: Probe::disabled(),
            cprobes: vec![CoreProbe::disabled(); n],
            ledger: mgr.as_ref().map(|_| Ledger::default()),
            mgr,
            carried_pref: vec![PrefetcherStats::default(); n],
            req_bufs: Vec::new(),
            next_token: 0,
            shadow: (0..n)
                .map(|_| SectoredCache::new(cfg.mem.l1d.size_bytes, cfg.mem.l1d.associativity, 1))
                .collect(),
            pp_outstanding: (0..n).map(|_| VecDeque::new()).collect(),
            pp_blocked: vec![None; n],
            pp_next_id: 0,
            vm,
            cfg,
        };
        Ok(System {
            cores,
            state: vec![CoreRun::Ready; n],
            barrier_waiting: Vec::new(),
            done_count: 0,
            event_budget: DEFAULT_EVENT_BUDGET,
            events: 0,
            fab,
        })
    }

    /// Attaches an observability probe: the fabric records prefetch
    /// timeliness, translation, coherence, and barrier events through
    /// it, and each core engine receives a [`imp_obs::CoreProbe`] for
    /// its demand-miss completions. An enabled probe gives the fabric a
    /// timeliness ledger if no manager did. Harvest the results with
    /// [`System::obs_report`] after the run.
    ///
    /// Probes observe only: attaching one (enabled or not) never
    /// changes timing, statistics, or which lines move.
    pub fn attach_probe(&mut self, probe: Probe) {
        if probe.is_enabled() {
            self.fab.ledger.get_or_insert_with(Ledger::default);
        }
        for (c, core) in self.cores.iter_mut().enumerate() {
            core.attach_probe(probe.for_core(c as u32));
        }
        self.fab.cprobes = (0..self.cores.len())
            .map(|c| probe.for_core(c as u32))
            .collect();
        self.fab.probe = probe;
    }

    /// The report of the attached probe, built around a finished copy
    /// of the fabric's timeliness ledger (the fabric's own ledger stays
    /// open, so a managed run keeps steering on it). `None` unless an
    /// enabled probe is attached.
    pub fn obs_report(&self) -> Option<ObsReport> {
        let ledger = self.fab.ledger.as_ref()?;
        let runtime = self.cores.iter().map(|c| c.stats().done_cycle).max();
        self.fab.probe.finish_into_report(runtime?, ledger)
    }

    /// Caps the number of events [`System::try_run`] will process before
    /// giving up with [`RunError::EventBudgetExceeded`]. Defaults to
    /// [`DEFAULT_EVENT_BUDGET`]. A timing knob only — it never changes
    /// the statistics of a run that finishes within budget.
    pub fn set_event_budget(&mut self, events: u64) {
        self.event_budget = events;
    }

    /// Runs the program to completion and returns the collected
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics on the conditions [`System::try_run`] reports as a
    /// [`RunError`]: a deadlocked program or an exhausted event budget.
    pub fn run(&mut self) -> SystemStats {
        match self.try_run() {
            Ok(stats) => stats,
            Err(RunError::EventBudgetExceeded { .. }) => {
                panic!("simulation exceeded event budget")
            }
            Err(RunError::Deadlock { unfinished, cores }) => panic!(
                "event queue drained with {unfinished} of {cores} cores unfinished (deadlock)"
            ),
        }
    }

    /// Runs the program to completion and returns the collected
    /// statistics, reporting runaway or deadlocked programs as typed
    /// errors instead of panicking.
    ///
    /// # Errors
    ///
    /// [`RunError::EventBudgetExceeded`] (with the partial statistics
    /// attached) when the configured event budget runs out;
    /// [`RunError::Deadlock`] when the event queue drains with
    /// unfinished cores.
    pub fn try_run(&mut self) -> Result<SystemStats, RunError> {
        let n = self.cores.len();
        for c in 0..n {
            self.fab.queue.push(0, Event::CoreWake(c as u32));
        }
        let mut guard: u64 = 0;
        while self.done_count < n {
            let Some((t, ev)) = self.fab.queue.pop() else {
                self.events = guard;
                return Err(RunError::Deadlock {
                    unfinished: n - self.done_count,
                    cores: n,
                });
            };
            guard += 1;
            if guard >= self.event_budget {
                self.events = guard;
                return Err(RunError::EventBudgetExceeded {
                    events: guard,
                    stats: Box::new(self.collect_stats()),
                });
            }
            // Epoch boundaries close against the event clock, before
            // the event dispatches: every epoch sees exactly the state
            // changes of events strictly before its end cycle.
            self.fab.manager_tick(t);
            match ev {
                // Stall fast-forward: wakes scheduled for a core that has
                // since blocked (on memory, a barrier, or retirement) are
                // stale — skip them without dispatching into the core,
                // jumping the clock straight to the next live event.
                Event::CoreWake(c) if self.state[c as usize] != CoreRun::Ready => {}
                Event::CoreWake(c) => self.drive_core(c, t),
                Event::Deliver(m) => {
                    self.fab.handle_msg(m, t);
                    self.drain_completions();
                }
            }
        }
        self.events = guard;
        // Drain in-flight protocol traffic so traffic statistics include
        // transactions that were still moving when the last core retired.
        while let Some((t, ev)) = self.fab.queue.pop() {
            if let Event::Deliver(m) = ev {
                self.fab.handle_msg(m, t);
                self.fab.completions.clear();
            }
        }
        Ok(self.collect_stats())
    }

    /// Panics unless the system is quiescent, as it must be once
    /// [`System::try_run`] returns `Ok`: no home record holds an open
    /// transaction or a waiting request, no MSHR is allocated, and no
    /// directory record is left tracking nothing.
    #[cfg(test)]
    pub(crate) fn assert_quiescent(&self) {
        for (h, d) in self.fab.dir.iter().enumerate() {
            assert_eq!(d.open_transactions(), 0, "open transactions at home {h}");
            assert_eq!(d.waiting_requests(), 0, "waiting requests at home {h}");
            assert_eq!(d.idle_records(), 0, "idle records at home {h}");
        }
        for (c, m) in self.fab.mshr.iter().enumerate() {
            assert!(m.is_empty(), "{} MSHRs allocated at core {c}", m.len());
        }
    }

    /// Events processed by the most recent [`System::try_run`] /
    /// [`System::run`] — a cost diagnostic (each event is one pop of the
    /// global queue), not part of the simulated statistics.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    fn drive_core(&mut self, c: u32, now: Cycle) {
        let ci = c as usize;
        if self.state[ci] != CoreRun::Ready {
            return;
        }
        match self.cores[ci].run(now, &mut self.fab) {
            CoreBlock::UntilTime(t) => {
                self.fab.queue.push(t.max(now + 1), Event::CoreWake(c));
            }
            CoreBlock::OnMemory => {
                self.state[ci] = CoreRun::WaitMem;
            }
            CoreBlock::AtBarrier => {
                self.state[ci] = CoreRun::WaitBarrier;
                self.barrier_waiting.push((c, now));
                if self.barrier_waiting.len() == self.cores.len() {
                    for (w, arrived) in std::mem::take(&mut self.barrier_waiting) {
                        self.state[w as usize] = CoreRun::Ready;
                        self.fab.probe.barrier_wait(w, arrived, now + 1);
                        self.fab.queue.push(now + 1, Event::CoreWake(w));
                    }
                }
            }
            CoreBlock::Done => {
                self.state[ci] = CoreRun::Done;
                self.cores[ci].finish(now);
                self.done_count += 1;
            }
        }
        self.drain_completions();
    }

    fn drain_completions(&mut self) {
        while let Some((c, token, at)) = self.fab.completions.pop() {
            let ci = c as usize;
            self.cores[ci].mem_complete(token, at);
            if self.state[ci] == CoreRun::WaitMem {
                self.state[ci] = CoreRun::Ready;
            }
            self.fab.queue.push(at, Event::CoreWake(c));
        }
    }

    /// Collects the statistics so far. Everything is folded into the
    /// returned copy, so repeated collections return the same numbers.
    fn collect_stats(&self) -> SystemStats {
        let mut prefetch = self.fab.pstats.clone();
        // Final sweep: resident prefetched lines count toward accuracy.
        for (c, l1) in self.fab.l1.iter().enumerate() {
            for line in l1.iter_lines() {
                if line.prefetched && line.touched {
                    prefetch[c].useful += 1;
                } else if line.prefetched && !line.touched {
                    prefetch[c].unused += 1;
                }
            }
        }
        // Merge detection counters from the prefetcher models, plus
        // anything carried over from models replaced by a manager
        // switch (zero in unmanaged runs).
        for (c, p) in self.fab.pref.iter().enumerate() {
            let mut s = self.fab.carried_pref[c].clone();
            s += p.stats();
            let out = &mut prefetch[c];
            out.patterns_detected = s.patterns_detected;
            out.detect_failures = s.detect_failures;
            out.value_unavailable = s.value_unavailable;
            out.generated_indirect = s.indirect_prefetches;
            out.deferred_drops = s.deferred_drops;
            out.deferred_retries = s.deferred_retries;
        }
        let cores: Vec<CoreStats> = self.cores.iter().map(|c| c.stats().clone()).collect();
        let runtime = cores.iter().map(|c| c.done_cycle).max().unwrap_or(0);
        let mut traffic = self.fab.traffic.clone();
        traffic.noc_flit_hops = self.fab.mesh.flit_hops();
        traffic.noc_messages = self.fab.mesh.messages();
        let n = cores.len();
        let (tlb, tlb_huge, tlb_l2) = match &self.fab.vm {
            Some(vm) => (
                (0..n).map(|c| vm.stats(c).clone()).collect(),
                (0..n)
                    .map(|c| vm.huge_stats(c).cloned().unwrap_or_default())
                    .collect(),
                vm.l2_stats().cloned().unwrap_or_default(),
            ),
            None => (
                vec![TlbStats::default(); n],
                vec![TlbStats::default(); n],
                TlbStats::default(),
            ),
        };
        SystemStats {
            runtime,
            cores,
            prefetch,
            tlb,
            tlb_huge,
            tlb_l2,
            traffic,
        }
    }
}
