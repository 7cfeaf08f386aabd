//! Core timing models: the paper's default in-order single-issue core and
//! the modest out-of-order core (32-entry reorder buffer) of Section
//! 6.3.1.
//!
//! Cores consume an [`imp_trace::Op`] stream and interact with the memory
//! hierarchy through a [`MemPort`] implemented by the full-system
//! simulator. A core runs in bounded episodes (to keep the global event
//! order tight), returning a [`CoreBlock`] describing what it is waiting
//! for.

mod inorder;
mod ooo;

pub use inorder::InOrderCore;
pub use ooo::OooCore;

use imp_common::stats::CoreStats;
use imp_common::{Addr, Cycle};
use imp_trace::Op;

/// Result of a demand access issued to the memory port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemResult {
    /// The access completes at the returned cycle: an L1 hit, any
    /// access under the Ideal mode, or a PerfectPrefetch access that
    /// its lead does not throttle.
    Hit(Cycle),
    /// The access missed; the port will call
    /// [`CoreEngine::mem_complete`] with this token when data arrives.
    Miss(u64),
    /// A store that missed but retires through the store buffer: the
    /// core proceeds at the returned cycle while the line is fetched in
    /// the background (counts as a miss for statistics).
    StoreBuffered(Cycle),
}

/// The memory side presented to a core by the simulator.
pub trait MemPort {
    /// Issues a demand load/store. `op` must be a memory op. Returns the
    /// result and the cycles the access first stalled for translation:
    /// an L2-TLB hit's latency or a page walk, zero on a dTLB hit. The
    /// result's cycle values already include that stall; cores account
    /// it in `CoreStats::walk_stall_cycles`.
    fn access(&mut self, core: u32, op: &Op, now: Cycle) -> (MemResult, Cycle);

    /// Issues a (non-binding, non-blocking) software prefetch.
    fn sw_prefetch(&mut self, core: u32, addr: Addr, now: Cycle);
}

/// Why a core stopped running its episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreBlock {
    /// Nothing to wait for; resume at this cycle (compute progress or
    /// episode budget exhausted).
    UntilTime(Cycle),
    /// Waiting for one or more outstanding memory accesses; the
    /// simulator wakes the core after `mem_complete`.
    OnMemory,
    /// Reached a barrier; the simulator wakes the core when all cores
    /// arrive.
    AtBarrier,
    /// The op stream is exhausted.
    Done,
}

/// A core timing model.
pub trait CoreEngine {
    /// Runs from `now` until blocked; returns the blocking condition.
    fn run(&mut self, now: Cycle, port: &mut dyn MemPort) -> CoreBlock;

    /// Reports completion of the outstanding access `token` at `at`.
    fn mem_complete(&mut self, token: u64, at: Cycle);

    /// Execution statistics.
    fn stats(&self) -> &CoreStats;

    /// Finalizes statistics at program completion time.
    fn finish(&mut self, at: Cycle);

    /// Attaches an observation probe; the engine records its demand-miss
    /// completions (issue/fill/PC/line) through it. The default keeps
    /// engines that don't observe — including downstream plugin
    /// implementations — source-compatible.
    fn attach_probe(&mut self, probe: imp_obs::CoreProbe) {
        let _ = probe;
    }
}

/// Maximum cycles a core advances inside one episode before yielding to
/// the event loop. Bounds the timing skew between cores (the reference
/// Graphite simulator tolerates much larger lax-synchronization skew).
pub const EPISODE_BUDGET: Cycle = 256;

#[cfg(test)]
mod tests {
    use super::*;
    use imp_trace::OpKind;

    /// Every access pays a 100-cycle walk; loads then hit, stores miss
    /// into the store buffer.
    pub(crate) struct WalkPort;

    impl MemPort for WalkPort {
        fn access(&mut self, _core: u32, op: &Op, now: Cycle) -> (MemResult, Cycle) {
            let result = if op.kind == OpKind::Store {
                MemResult::StoreBuffered(now + 101)
            } else {
                MemResult::Hit(now + 101)
            };
            (result, 100)
        }
        fn sw_prefetch(&mut self, _core: u32, _addr: Addr, _now: Cycle) {}
    }
}
