//! A modest out-of-order core (Section 6.3.1): 32-entry reorder buffer,
//! single-issue dispatch/retire, loads issued at dispatch unless their
//! address depends on an incomplete earlier load (the `dep` field of the
//! op stream encodes `A[B[i]]`'s dependence on the `B[i]` load).

use crate::{CoreBlock, CoreEngine, MemPort, MemResult, EPISODE_BUDGET};
use imp_common::stats::{AccessClass, CoreStats};
use imp_common::{Cycle, LineAddr, Pc};
use imp_obs::CoreProbe;
use imp_trace::{Op, OpKind};
use std::collections::VecDeque;
use std::sync::Arc;

#[derive(Clone, Copy, Debug)]
struct RobSlot {
    /// Completion cycle; `None` while an access is outstanding.
    complete: Option<Cycle>,
    /// Load sequence number if this slot is a load (for dependents).
    load_seq: Option<u64>,
    class: AccessClass,
    issued: Cycle,
}

/// Out-of-order core with a bounded reorder buffer.
#[derive(Debug)]
pub struct OooCore {
    id: u32,
    ops: Arc<[Op]>,
    idx: usize,
    rob: VecDeque<RobSlot>,
    rob_cap: usize,
    last_dispatch: Cycle,
    /// The most recent loads, newest last: each one's sequence number
    /// and completion time (`None` while its miss is outstanding).
    recent_loads: VecDeque<(u64, Option<Cycle>)>,
    next_load_seq: u64,
    /// Outstanding misses: (token, load sequence number, PC, line). One
    /// per incomplete ROB slot at most.
    tokens: Vec<(u64, u64, Pc, LineAddr)>,
    stats: CoreStats,
    probe: CoreProbe,
}

const RECENT_LOAD_WINDOW: usize = 8;

impl OooCore {
    /// Creates an OoO core with a `rob_cap`-entry reorder buffer running
    /// `ops` (shared, not copied; see [`crate::InOrderCore::new`]).
    pub fn new(id: u32, ops: impl Into<Arc<[Op]>>, rob_cap: usize) -> Self {
        OooCore {
            id,
            ops: ops.into(),
            idx: 0,
            rob: VecDeque::with_capacity(rob_cap),
            rob_cap,
            last_dispatch: 0,
            recent_loads: VecDeque::with_capacity(RECENT_LOAD_WINDOW + 1),
            next_load_seq: 0,
            tokens: Vec::with_capacity(rob_cap),
            stats: CoreStats::default(),
            probe: CoreProbe::disabled(),
        }
    }

    fn retire_completed(&mut self, now: Cycle) {
        while let Some(head) = self.rob.front() {
            match head.complete {
                Some(c) if c <= now => {
                    self.rob.pop_front();
                }
                _ => break,
            }
        }
    }

    /// Completion time of the dependency `dep` loads back, if resolved.
    /// `Err(())` means the dependency is a still-outstanding access.
    fn dep_complete(&self, dep: u8) -> Result<Option<Cycle>, ()> {
        if dep == 0 {
            return Ok(None);
        }
        let n = self.recent_loads.len();
        let Some(&(_, complete)) = self.recent_loads.get(n.wrapping_sub(dep as usize)) else {
            return Ok(None); // dependency left the window: assume resolved
        };
        complete.map(Some).ok_or(())
    }

    fn note_load(&mut self, seq: u64, complete: Option<Cycle>) {
        self.recent_loads.push_back((seq, complete));
        if self.recent_loads.len() > RECENT_LOAD_WINDOW {
            self.recent_loads.pop_front();
        }
    }
}

impl CoreEngine for OooCore {
    fn run(&mut self, now: Cycle, port: &mut dyn MemPort) -> CoreBlock {
        let deadline = now + EPISODE_BUDGET;
        let mut t = now;
        loop {
            self.retire_completed(t);
            let Some(&op) = self.ops.get(self.idx) else {
                if self.rob.iter().any(|s| s.complete.is_none()) {
                    return CoreBlock::OnMemory;
                }
                return match self.rob.iter().filter_map(|s| s.complete).max() {
                    Some(c) if c > t => CoreBlock::UntilTime(c),
                    _ => {
                        self.stats.done_cycle = t;
                        CoreBlock::Done
                    }
                };
            };
            // Structural stall: ROB full.
            if self.rob.len() >= self.rob_cap {
                let head = self.rob.front().expect("rob non-empty");
                return match head.complete {
                    None => CoreBlock::OnMemory,
                    Some(c) => CoreBlock::UntilTime(c.max(t + 1)),
                };
            }
            if t >= deadline {
                return CoreBlock::UntilTime(t);
            }
            match op.kind {
                OpKind::Barrier => {
                    // Barriers drain the ROB.
                    if self.rob.iter().any(|s| s.complete.is_none()) {
                        return CoreBlock::OnMemory;
                    }
                    if let Some(c) = self.rob.iter().filter_map(|s| s.complete).max() {
                        if c > t {
                            return CoreBlock::UntilTime(c);
                        }
                    }
                    self.rob.clear();
                    self.idx += 1;
                    return CoreBlock::AtBarrier;
                }
                OpKind::Compute => {
                    let cycles = op.addr;
                    let dispatch = t.max(self.last_dispatch + 1);
                    let n = cycles.max(1);
                    self.stats.instructions += cycles;
                    self.rob.push_back(RobSlot {
                        complete: Some(dispatch + n),
                        load_seq: None,
                        class: AccessClass::Other,
                        issued: dispatch,
                    });
                    self.last_dispatch = dispatch + n - 1;
                    self.idx += 1;
                    t = t.max(dispatch);
                }
                OpKind::SwPrefetch => {
                    let dispatch = t.max(self.last_dispatch + 1);
                    self.stats.instructions += 1;
                    port.sw_prefetch(self.id, op.mem_addr(), dispatch);
                    self.last_dispatch = dispatch;
                    self.idx += 1;
                    t = t.max(dispatch);
                }
                OpKind::Load | OpKind::Store => {
                    // Address dependence on an earlier load.
                    let ready = match self.dep_complete(op.dep) {
                        Err(()) => return CoreBlock::OnMemory,
                        Ok(Some(c)) => c,
                        Ok(None) => 0,
                    };
                    let dispatch = t.max(self.last_dispatch + 1).max(ready);
                    if dispatch >= deadline {
                        return CoreBlock::UntilTime(dispatch);
                    }
                    self.stats.instructions += 1;
                    self.stats.l1_accesses += 1;
                    let seq = self.next_load_seq;
                    self.next_load_seq += 1;
                    let (result, walk) = port.access(self.id, &op, dispatch);
                    self.stats.walk_stall_cycles += walk;
                    match result {
                        MemResult::StoreBuffered(done) => {
                            self.stats.l1_misses[op.class.index()] += 1;
                            self.rob.push_back(RobSlot {
                                complete: Some(done),
                                load_seq: Some(seq),
                                class: op.class,
                                issued: dispatch,
                            });
                        }
                        MemResult::Hit(done) => {
                            self.stats.l1_hits += 1;
                            self.rob.push_back(RobSlot {
                                complete: Some(done),
                                load_seq: Some(seq),
                                class: op.class,
                                issued: dispatch,
                            });
                            if op.kind == OpKind::Load {
                                self.note_load(seq, Some(done));
                            }
                        }
                        MemResult::Miss(token) => {
                            self.stats.l1_misses[op.class.index()] += 1;
                            self.rob.push_back(RobSlot {
                                complete: None,
                                load_seq: Some(seq),
                                class: op.class,
                                issued: dispatch,
                            });
                            self.tokens.push((
                                token,
                                seq,
                                op.pc,
                                LineAddr::containing(op.mem_addr()),
                            ));
                            if op.kind == OpKind::Load {
                                self.note_load(seq, None);
                            }
                        }
                    }
                    self.last_dispatch = dispatch;
                    self.idx += 1;
                    t = t.max(dispatch);
                }
            }
        }
    }

    fn mem_complete(&mut self, token: u64, at: Cycle) {
        let Some(k) = self.tokens.iter().position(|t| t.0 == token) else {
            return;
        };
        let (_, seq, pc, line) = self.tokens.swap_remove(k);
        for slot in &mut self.rob {
            if slot.load_seq == Some(seq) && slot.complete.is_none() {
                slot.complete = Some(at);
                let latency = at.saturating_sub(slot.issued);
                self.stats.mem_latency_sum += latency;
                self.stats.mem_latency_count += 1;
                self.stats.stall_cycles[slot.class.index()] += latency.saturating_sub(1);
                self.probe.demand_complete(pc, line, slot.issued, at);
            }
        }
        if let Some(l) = self.recent_loads.iter_mut().find(|l| l.0 == seq) {
            l.1 = Some(at);
        }
    }

    fn stats(&self) -> &CoreStats {
        &self.stats
    }

    fn finish(&mut self, at: Cycle) {
        self.stats.done_cycle = self.stats.done_cycle.max(at);
    }

    fn attach_probe(&mut self, probe: CoreProbe) {
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_common::{Addr, Pc};

    struct FakePort {
        miss_latency: Cycle,
        /// A miss latency for one address that overrides `miss_latency`.
        latency_at: Option<(u64, Cycle)>,
        outstanding: Vec<(u64, Cycle)>,
        /// Every access as (address, dispatch cycle), in issue order.
        issued: Vec<(u64, Cycle)>,
        next_token: u64,
        hit: bool,
    }

    impl FakePort {
        fn new(hit: bool, miss_latency: Cycle) -> Self {
            FakePort {
                miss_latency,
                latency_at: None,
                outstanding: vec![],
                issued: vec![],
                next_token: 0,
                hit,
            }
        }
    }

    impl MemPort for FakePort {
        fn access(&mut self, _core: u32, op: &Op, now: Cycle) -> (MemResult, Cycle) {
            let addr = op.mem_addr().raw();
            self.issued.push((addr, now));
            if self.hit {
                (MemResult::Hit(now + 1), 0)
            } else {
                let latency = match self.latency_at {
                    Some((a, l)) if a == addr => l,
                    _ => self.miss_latency,
                };
                self.next_token += 1;
                self.outstanding.push((self.next_token, now + latency));
                (MemResult::Miss(self.next_token), 0)
            }
        }
        fn sw_prefetch(&mut self, _core: u32, _addr: Addr, _now: Cycle) {}
    }

    fn load(addr: u64) -> Op {
        Op::load(Addr::new(addr), 8, Pc::new(1), AccessClass::Indirect)
    }

    /// Drives core + fake port until done, delivering memory completions
    /// in time order. Returns the finish cycle.
    fn run_to_done(core: &mut OooCore, port: &mut FakePort) -> Cycle {
        let mut now = 0;
        for _ in 0..100_000 {
            match core.run(now, port) {
                CoreBlock::Done => return now,
                CoreBlock::UntilTime(t) => now = t.max(now + 1),
                CoreBlock::OnMemory => {
                    port.outstanding.sort_by_key(|&(_, c)| c);
                    let (tok, c) = port.outstanding.remove(0);
                    now = now.max(c);
                    core.mem_complete(tok, c);
                }
                CoreBlock::AtBarrier => {}
            }
        }
        panic!("did not finish");
    }

    #[test]
    fn independent_misses_overlap() {
        // 8 independent loads, 100-cycle misses: an OoO core overlaps
        // them; total time must be far below 8 x 100.
        let ops: Vec<Op> = (0..8).map(|i| load(0x1000 + i * 0x1000)).collect();
        let mut core = OooCore::new(0, ops, 32);
        let mut port = FakePort::new(false, 100);
        let t = run_to_done(&mut core, &mut port);
        assert!(
            t < 200,
            "overlapped loads should take ~100 cycles, took {t}"
        );
        assert_eq!(core.stats().l1_accesses, 8);
    }

    #[test]
    fn dependent_load_serializes() {
        // load B; load A (depends on B): the second cannot issue until
        // the first completes.
        let ops = vec![load(0x1000), load(0x2000).with_dep(1)];
        let mut core = OooCore::new(0, ops, 32);
        let mut port = FakePort::new(false, 100);
        let t = run_to_done(&mut core, &mut port);
        assert!(t >= 200, "dependent chain must serialize, took {t}");
    }

    #[test]
    fn a_miss_completing_outside_the_load_window_leaves_it_intact() {
        // Loads dispatch one a cycle from cycle 1. Load 0 misses for 50
        // cycles and loads 1-8 for 100, so load 8 (cycle 9) pushes load
        // 0 out of the 8-load window before load 0 completes at cycle
        // 51. Load 9 depends on load 8 and must dispatch at load 8's
        // completion (cycle 109), not at load 0's.
        let mut ops: Vec<Op> = (0..9).map(|i| load(0x1000 + i * 0x1000)).collect();
        ops.push(load(0xa000).with_dep(1));
        let mut core = OooCore::new(0, ops, 32);
        let mut port = FakePort::new(false, 100);
        port.latency_at = Some((0x1000, 50));
        run_to_done(&mut core, &mut port);
        assert_eq!(port.issued.len(), 10);
        assert_eq!(port.issued[8], (0x9000, 9));
        assert_eq!(port.issued[9], (0xa000, 109));
        assert!(core.tokens.is_empty(), "every miss completed");
    }

    #[test]
    fn rob_capacity_limits_overlap() {
        // 64 independent misses with a 4-entry ROB: at most 4 in flight.
        let ops: Vec<Op> = (0..64).map(|i| load(0x1000 + i * 0x1000)).collect();
        let mut small = OooCore::new(0, ops.clone(), 4);
        let mut port = FakePort::new(false, 100);
        let t_small = run_to_done(&mut small, &mut port);

        let mut big = OooCore::new(0, ops, 64);
        let mut port2 = FakePort::new(false, 100);
        let t_big = run_to_done(&mut big, &mut port2);
        assert!(
            t_small > t_big,
            "smaller ROB must be slower: small={t_small} big={t_big}"
        );
    }

    #[test]
    fn all_hits_is_roughly_one_ipc() {
        let ops: Vec<Op> = (0..100).map(|i| load(0x40 * i)).collect();
        let mut core = OooCore::new(0, ops, 32);
        let mut port = FakePort::new(true, 0);
        let t = run_to_done(&mut core, &mut port);
        assert!(t <= 300, "hits should sustain ~1 IPC, took {t}");
        assert_eq!(core.stats().l1_hits, 100);
    }

    #[test]
    fn tlb_walk_delays_completion_and_is_accounted() {
        let ops = vec![
            load(0x1000),
            Op::store(Addr::new(0x2000), 8, Pc::new(2), AccessClass::Other),
        ];
        let mut core = OooCore::new(0, ops, 32);
        let mut now = 0;
        while let CoreBlock::UntilTime(t) = core.run(now, &mut crate::tests::WalkPort) {
            now = t.max(now + 1);
        }
        assert_eq!(core.stats().walk_stall_cycles, 200);
        assert_eq!(core.stats().l1_hits, 1);
        assert_eq!(core.stats().l1_misses[AccessClass::Other.index()], 1);
        let done = core.stats().done_cycle;
        assert!(
            (102..202).contains(&done),
            "each access completes after its walk, and the two walks overlap: {done}"
        );
    }

    #[test]
    fn barrier_drains_rob() {
        let ops = vec![load(0x1000), Op::barrier(), Op::compute(1)];
        let mut core = OooCore::new(0, ops, 32);
        let mut port = FakePort::new(false, 50);
        let mut now = 0;
        // First run blocks on the outstanding load (barrier can't pass).
        assert_eq!(core.run(now, &mut port), CoreBlock::OnMemory);
        let (tok, c) = port.outstanding.remove(0);
        core.mem_complete(tok, c);
        now = c;
        // Now the barrier is reached.
        let b = core.run(now, &mut port);
        assert!(
            matches!(b, CoreBlock::AtBarrier | CoreBlock::UntilTime(_)),
            "{b:?}"
        );
    }
}
