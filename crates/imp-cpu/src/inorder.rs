//! The paper's default core: in-order, single-issue, blocking on every
//! demand miss (Table 1). Memory stall cycles are attributed to the
//! ground-truth class of the blocking access (Figures 1 and 2).

use crate::{CoreBlock, CoreEngine, MemPort, MemResult, EPISODE_BUDGET};
use imp_common::stats::{AccessClass, CoreStats};
use imp_common::{Cycle, LineAddr, Pc};
use imp_obs::CoreProbe;
use imp_trace::{Op, OpKind};
use std::sync::Arc;

#[derive(Clone, Copy, Debug)]
struct PendingMem {
    class: AccessClass,
    issued: Cycle,
    pc: Pc,
    line: LineAddr,
}

/// In-order, single-issue core.
#[derive(Debug)]
pub struct InOrderCore {
    id: u32,
    ops: Arc<[Op]>,
    idx: usize,
    pending: Option<PendingMem>,
    stats: CoreStats,
    probe: CoreProbe,
}

impl InOrderCore {
    /// Creates a core with id `id` running `ops`. A shared stream (e.g.
    /// from [`imp_trace::Program::stream`]) is not copied: handing the
    /// same `Arc<[Op]>` to many systems costs a reference count each.
    pub fn new(id: u32, ops: impl Into<Arc<[Op]>>) -> Self {
        InOrderCore {
            id,
            ops: ops.into(),
            idx: 0,
            pending: None,
            stats: CoreStats::default(),
            probe: CoreProbe::disabled(),
        }
    }

    /// Fraction of the op stream already executed (diagnostics).
    pub fn progress(&self) -> f64 {
        if self.ops.is_empty() {
            1.0
        } else {
            self.idx as f64 / self.ops.len() as f64
        }
    }
}

impl CoreEngine for InOrderCore {
    fn run(&mut self, now: Cycle, port: &mut dyn MemPort) -> CoreBlock {
        assert!(
            self.pending.is_none(),
            "core resumed while blocked on memory"
        );
        let deadline = now + EPISODE_BUDGET;
        let mut t = now;
        while t < deadline {
            let Some(&op) = self.ops.get(self.idx) else {
                self.stats.done_cycle = t;
                return CoreBlock::Done;
            };
            match op.kind {
                OpKind::Compute => {
                    let cycles = op.addr;
                    self.stats.instructions += cycles;
                    self.idx += 1;
                    t += cycles.max(1);
                }
                OpKind::Barrier => {
                    self.idx += 1;
                    return CoreBlock::AtBarrier;
                }
                OpKind::SwPrefetch => {
                    self.stats.instructions += 1;
                    port.sw_prefetch(self.id, op.mem_addr(), t);
                    self.idx += 1;
                    t += 1;
                }
                OpKind::Load | OpKind::Store => {
                    self.stats.instructions += 1;
                    self.stats.l1_accesses += 1;
                    let (result, walk) = port.access(self.id, &op, t);
                    self.stats.walk_stall_cycles += walk;
                    match result {
                        MemResult::Hit(done) => {
                            self.stats.l1_hits += 1;
                            self.idx += 1;
                            t = done;
                        }
                        MemResult::StoreBuffered(done) => {
                            self.stats.l1_misses[op.class.index()] += 1;
                            self.idx += 1;
                            t = done;
                        }
                        MemResult::Miss(_) => {
                            self.stats.l1_misses[op.class.index()] += 1;
                            self.pending = Some(PendingMem {
                                class: op.class,
                                issued: t,
                                pc: op.pc,
                                line: LineAddr::containing(op.mem_addr()),
                            });
                            self.idx += 1;
                            return CoreBlock::OnMemory;
                        }
                    }
                }
            }
        }
        CoreBlock::UntilTime(t)
    }

    fn mem_complete(&mut self, _token: u64, at: Cycle) {
        let p = self.pending.take().expect("no outstanding access");
        let latency = at.saturating_sub(p.issued);
        self.stats.mem_latency_sum += latency;
        self.stats.mem_latency_count += 1;
        // The stall is the latency beyond the 1-cycle hit cost.
        self.stats.stall_cycles[p.class.index()] += latency.saturating_sub(1);
        self.probe.demand_complete(p.pc, p.line, p.issued, at);
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
    use imp_common::stats::AccessClass;
    use imp_common::{Addr, Pc};

    /// A scriptable port: addresses below `hit_below` hit, others miss.
    struct FakePort {
        hit_below: u64,
        tokens: u64,
        prefetches: Vec<Addr>,
    }

    impl MemPort for FakePort {
        fn access(&mut self, _core: u32, op: &Op, now: Cycle) -> (MemResult, Cycle) {
            if op.addr < self.hit_below {
                (MemResult::Hit(now + 1), 0)
            } else {
                self.tokens += 1;
                (MemResult::Miss(self.tokens), 0)
            }
        }
        fn sw_prefetch(&mut self, _core: u32, addr: Addr, _now: Cycle) {
            self.prefetches.push(addr);
        }
    }

    fn load(addr: u64, class: AccessClass) -> Op {
        Op::load(Addr::new(addr), 8, Pc::new(1), class)
    }

    #[test]
    fn hits_take_one_cycle_each() {
        let ops = vec![
            Op::compute(5),
            load(0x10, AccessClass::Stream),
            load(0x20, AccessClass::Stream),
        ];
        let mut core = InOrderCore::new(0, ops);
        let mut port = FakePort {
            hit_below: u64::MAX,
            tokens: 0,
            prefetches: vec![],
        };
        assert_eq!(core.run(0, &mut port), CoreBlock::Done);
        assert_eq!(core.stats().instructions, 7);
        assert_eq!(core.stats().l1_hits, 2);
        assert_eq!(core.stats().total_misses(), 0);
    }

    #[test]
    fn miss_blocks_and_attributes_stall() {
        let ops = vec![load(0x1000, AccessClass::Indirect), Op::compute(1)];
        let mut core = InOrderCore::new(0, ops);
        let mut port = FakePort {
            hit_below: 0,
            tokens: 0,
            prefetches: vec![],
        };
        assert_eq!(core.run(0, &mut port), CoreBlock::OnMemory);
        assert_eq!(core.stats().l1_misses[AccessClass::Indirect.index()], 1);
        core.mem_complete(1, 101);
        // 101 cycles total latency, 100 beyond the hit cost.
        assert_eq!(
            core.stats().stall_cycles[AccessClass::Indirect.index()],
            100
        );
        assert_eq!(core.stats().mem_latency_sum, 101);
        assert_eq!(core.run(101, &mut port), CoreBlock::Done);
    }

    #[test]
    fn long_compute_yields_in_episodes() {
        let ops = vec![Op::compute(10_000)];
        let mut core = InOrderCore::new(0, ops);
        let mut port = FakePort {
            hit_below: u64::MAX,
            tokens: 0,
            prefetches: vec![],
        };
        match core.run(0, &mut port) {
            CoreBlock::UntilTime(t) => assert!(t >= 10_000),
            b => panic!("unexpected {b:?}"),
        }
        assert_eq!(core.run(10_000, &mut port), CoreBlock::Done);
    }

    #[test]
    fn barrier_reported_and_resumes_past_it() {
        let ops = vec![Op::barrier(), Op::compute(1)];
        let mut core = InOrderCore::new(0, ops);
        let mut port = FakePort {
            hit_below: u64::MAX,
            tokens: 0,
            prefetches: vec![],
        };
        assert_eq!(core.run(0, &mut port), CoreBlock::AtBarrier);
        assert_eq!(core.run(50, &mut port), CoreBlock::Done);
        assert_eq!(core.stats().instructions, 1);
    }

    #[test]
    fn sw_prefetch_does_not_block() {
        let ops = vec![
            Op::sw_prefetch(Addr::new(0x5000), Pc::new(2)),
            Op::compute(1),
        ];
        let mut core = InOrderCore::new(0, ops);
        let mut port = FakePort {
            hit_below: 0,
            tokens: 0,
            prefetches: vec![],
        };
        assert_eq!(core.run(0, &mut port), CoreBlock::Done);
        assert_eq!(port.prefetches, vec![Addr::new(0x5000)]);
        assert_eq!(core.stats().instructions, 2);
    }

    #[test]
    fn tlb_walk_blocks_and_is_accounted() {
        let ops = vec![
            load(0x1000, AccessClass::Indirect),
            Op::store(Addr::new(0x2000), 8, Pc::new(2), AccessClass::Other),
        ];
        let mut core = InOrderCore::new(0, ops);
        assert_eq!(core.run(0, &mut crate::tests::WalkPort), CoreBlock::Done);
        assert_eq!(core.stats().walk_stall_cycles, 200);
        assert_eq!(core.stats().l1_hits, 1);
        assert_eq!(core.stats().l1_misses[AccessClass::Other.index()], 1);
        assert!(core.stats().done_cycle >= 202, "walks serialize the core");
    }

    #[test]
    #[should_panic(expected = "resumed while blocked")]
    fn resume_while_pending_is_a_bug() {
        let ops = vec![load(0x1000, AccessClass::Other)];
        let mut core = InOrderCore::new(0, ops);
        let mut port = FakePort {
            hit_below: 0,
            tokens: 0,
            prefetches: vec![],
        };
        core.run(0, &mut port);
        core.run(1, &mut port);
    }
}
