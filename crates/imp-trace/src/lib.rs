//! Instrumented operation streams.
//!
//! The workloads of the paper (Section 5.3) are real algorithms; what the
//! simulator consumes is, per core, a stream of *operations*: compute
//! bursts, tagged loads/stores, software prefetches and barriers. The tag
//! carries the ground-truth [`AccessClass`] (indirect / stream / other)
//! used for Figures 1 and 2, the static [`Pc`] of the access site (IMP's
//! Prefetch Table is PC-indexed), and a dependency distance used by the
//! out-of-order core model of Section 6.3.1.
//!
//! Ops are kept to 16 bytes so multi-million-instruction programs stay
//! cheap to store. Finished streams are frozen into shared `Arc<[Op]>`
//! buffers, so cloning a [`Program`] (to fan one generated workload out
//! over many simulator configurations) costs a reference count, not a
//! copy. Programs also serialize to the versioned binary `.imptrace`
//! format in [`mod@file`] for record/replay across processes.
//!
//! # Example
//!
//! ```
//! use imp_trace::{Op, Program};
//! use imp_common::{Addr, Pc, stats::AccessClass};
//!
//! let mut p = Program::new("demo", 2);
//! p.core_mut(0).push(Op::load(Addr::new(0x100), 4, Pc::new(1), AccessClass::Stream));
//! p.barrier();
//! assert_eq!(p.ops(0).len(), 2);
//! assert_eq!(p.ops(1).len(), 1); // just the barrier
//!
//! p.freeze();
//! let cheap = p.clone(); // shares the frozen streams
//! assert_eq!(cheap.ops(0), p.ops(0));
//! ```

pub mod file;

pub use file::{TraceError, TraceFile};

use imp_common::stats::AccessClass;
use imp_common::{Addr, Pc};
use std::fmt;
use std::sync::Arc;

/// The kind of one operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum OpKind {
    /// `n` cycles (= `n` single-cycle instructions) of computation;
    /// `n` is stored in the `addr` field.
    Compute,
    /// A demand load.
    Load,
    /// A demand store.
    Store,
    /// A software prefetch instruction (non-binding, non-blocking).
    SwPrefetch,
    /// Synchronization barrier across all cores.
    Barrier,
}

/// One operation in a core's instruction stream. 16 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Op {
    /// Byte address for memory ops; cycle count for `Compute`.
    pub addr: u64,
    /// Static instruction identifier of the access site.
    pub pc: Pc,
    /// Operation kind.
    pub kind: OpKind,
    /// Access size in bytes (memory ops only).
    pub size: u8,
    /// Ground-truth access class (memory ops only).
    pub class: AccessClass,
    /// Dependency distance for the OoO model: this load/store's address
    /// depends on the value produced by the `dep`-th previous *load* in
    /// the same stream (0 = independent). An indirect access `A[B[i]]`
    /// has `dep = 1` right after its index load of `B[i]`.
    pub dep: u8,
}

impl Op {
    /// `cycles` cycles of computation (counted as `cycles` instructions).
    pub fn compute(cycles: u32) -> Self {
        Op {
            addr: u64::from(cycles),
            pc: Pc::new(0),
            kind: OpKind::Compute,
            size: 0,
            class: AccessClass::Other,
            dep: 0,
        }
    }

    /// A demand load.
    pub fn load(addr: Addr, size: u8, pc: Pc, class: AccessClass) -> Self {
        Op {
            addr: addr.raw(),
            pc,
            kind: OpKind::Load,
            size,
            class,
            dep: 0,
        }
    }

    /// A demand store.
    pub fn store(addr: Addr, size: u8, pc: Pc, class: AccessClass) -> Self {
        Op {
            addr: addr.raw(),
            pc,
            kind: OpKind::Store,
            size,
            class,
            dep: 0,
        }
    }

    /// A software prefetch of the line containing `addr`.
    pub fn sw_prefetch(addr: Addr, pc: Pc) -> Self {
        Op {
            addr: addr.raw(),
            pc,
            kind: OpKind::SwPrefetch,
            size: 8,
            class: AccessClass::Other,
            dep: 0,
        }
    }

    /// A barrier.
    pub fn barrier() -> Self {
        Op {
            addr: 0,
            pc: Pc::new(0),
            kind: OpKind::Barrier,
            size: 0,
            class: AccessClass::Other,
            dep: 0,
        }
    }

    /// Marks this op as address-dependent on the `n`-th previous load.
    #[must_use]
    pub fn with_dep(mut self, n: u8) -> Self {
        self.dep = n;
        self
    }

    /// The memory address (memory ops).
    pub fn mem_addr(&self) -> Addr {
        Addr::new(self.addr)
    }

    /// Number of instructions this op represents.
    pub fn instruction_count(&self) -> u64 {
        match self.kind {
            OpKind::Compute => self.addr,
            OpKind::Barrier => 0,
            _ => 1,
        }
    }

    /// True for loads and stores (the ops that access the cache).
    pub fn is_demand(&self) -> bool {
        matches!(self.kind, OpKind::Load | OpKind::Store)
    }
}

/// One core's op stream: a growable buffer while the workload generator
/// is appending, an immutable shared `Arc<[Op]>` once frozen.
#[derive(Clone, Debug)]
enum Stream {
    Building(Vec<Op>),
    Frozen(Arc<[Op]>),
}

impl Stream {
    fn ops(&self) -> &[Op] {
        match self {
            Stream::Building(v) => v,
            Stream::Frozen(ops) => ops,
        }
    }

    fn freeze(&mut self) {
        if let Stream::Building(v) = self {
            *self = Stream::Frozen(Arc::from(std::mem::take(v)));
        }
    }
}

/// A complete multi-core program: one op stream per core.
///
/// Streams are append-only buffers during generation; [`Program::freeze`]
/// turns them into shared `Arc<[Op]>` allocations, after which `clone()`
/// is O(cores) reference-count bumps — the representation that lets one
/// generated workload back many concurrent simulator instances.
#[derive(Clone, Debug, Default)]
pub struct Program {
    name: String,
    streams: Vec<Stream>,
}

impl Program {
    /// Creates an empty program for `cores` cores.
    pub fn new(name: &str, cores: usize) -> Self {
        Program {
            name: name.to_string(),
            streams: (0..cores).map(|_| Stream::Building(Vec::new())).collect(),
        }
    }

    /// Program name (the workload that generated it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.streams.len()
    }

    /// The op stream of one core.
    pub fn ops(&self, core: usize) -> &[Op] {
        self.streams[core].ops()
    }

    /// Mutable access to one core's stream, for appending ops.
    ///
    /// Calling this on a frozen program thaws that core's stream back
    /// into a private buffer (one copy); generators that build and then
    /// freeze never pay it.
    pub fn core_mut(&mut self, core: usize) -> &mut Vec<Op> {
        let slot = &mut self.streams[core];
        if let Stream::Frozen(ops) = slot {
            *slot = Stream::Building(ops.to_vec());
        }
        match slot {
            Stream::Building(v) => v,
            Stream::Frozen(_) => unreachable!("stream thawed above"),
        }
    }

    /// Freezes every stream into its shared immutable form. Idempotent;
    /// already-frozen streams are untouched.
    pub fn freeze(&mut self) {
        for slot in &mut self.streams {
            slot.freeze();
        }
    }

    /// The shared handle to one core's stream, freezing it first if
    /// needed. Cloning the returned `Arc` is how consumers (the per-core
    /// engines of `imp-sim`) share the stream without copying it.
    pub fn stream(&mut self, core: usize) -> Arc<[Op]> {
        let slot = &mut self.streams[core];
        slot.freeze();
        match slot {
            Stream::Frozen(ops) => Arc::clone(ops),
            Stream::Building(_) => unreachable!("stream frozen above"),
        }
    }

    /// Appends a barrier to every core's stream.
    pub fn barrier(&mut self) {
        for core in 0..self.streams.len() {
            self.core_mut(core).push(Op::barrier());
        }
    }

    /// Instructions per core.
    pub fn instructions_per_core(&self) -> Vec<u64> {
        self.streams
            .iter()
            .map(|s| s.ops().iter().map(Op::instruction_count).sum())
            .collect()
    }

    /// Total instructions over all cores.
    pub fn total_instructions(&self) -> u64 {
        self.instructions_per_core().iter().sum()
    }

    /// Total demand memory operations over all cores.
    pub fn total_memory_ops(&self) -> u64 {
        self.streams
            .iter()
            .map(|s| s.ops().iter().filter(|o| o.is_demand()).count() as u64)
            .sum()
    }

    /// Checks that every core has the same number of barriers (a program
    /// whose cores disagree would deadlock at the first unmatched
    /// barrier); returns the barrier count.
    ///
    /// # Errors
    ///
    /// Returns [`BarrierMismatch`] carrying the per-core counts when the
    /// cores disagree.
    pub fn validate_barriers(&self) -> Result<usize, BarrierMismatch> {
        let counts: Vec<usize> = self
            .streams
            .iter()
            .map(|s| s.ops().iter().filter(|o| o.kind == OpKind::Barrier).count())
            .collect();
        match counts.split_first() {
            Some((first, rest)) if rest.iter().any(|c| c != first) => {
                Err(BarrierMismatch { counts })
            }
            Some((first, _)) => Ok(*first),
            None => Ok(0),
        }
    }
}

/// Cores disagree on how many barriers their streams contain; running
/// this program would deadlock at the first unmatched barrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BarrierMismatch {
    /// Barrier count per core, in core order.
    pub counts: Vec<usize>,
}

impl fmt::Display for BarrierMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "barrier count mismatch across cores: {:?}", self.counts)
    }
}

impl std::error::Error for BarrierMismatch {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_is_compact() {
        assert_eq!(std::mem::size_of::<Op>(), 16);
    }

    #[test]
    fn instruction_counting() {
        assert_eq!(Op::compute(7).instruction_count(), 7);
        assert_eq!(Op::barrier().instruction_count(), 0);
        let l = Op::load(Addr::new(8), 8, Pc::new(3), AccessClass::Indirect);
        assert_eq!(l.instruction_count(), 1);
        assert_eq!(
            Op::sw_prefetch(Addr::new(8), Pc::new(4)).instruction_count(),
            1
        );
    }

    #[test]
    fn program_totals() {
        let mut p = Program::new("t", 2);
        p.core_mut(0).push(Op::compute(10));
        p.core_mut(0)
            .push(Op::load(Addr::new(0), 4, Pc::new(1), AccessClass::Stream));
        p.core_mut(1)
            .push(Op::store(Addr::new(8), 4, Pc::new(2), AccessClass::Other));
        p.barrier();
        assert_eq!(p.total_instructions(), 12);
        assert_eq!(p.total_memory_ops(), 2);
        assert_eq!(p.validate_barriers(), Ok(1));
        assert_eq!(p.name(), "t");
        assert_eq!(p.cores(), 2);
    }

    #[test]
    fn unbalanced_barriers_detected() {
        let mut p = Program::new("bad", 2);
        p.core_mut(0).push(Op::barrier());
        let err = p.validate_barriers().unwrap_err();
        assert_eq!(err.counts, vec![1, 0]);
        assert!(err.to_string().contains("barrier count mismatch"));
    }

    #[test]
    fn freezing_shares_streams_and_preserves_contents() {
        let mut p = Program::new("f", 2);
        p.core_mut(0)
            .push(Op::load(Addr::new(0), 4, Pc::new(1), AccessClass::Stream));
        p.core_mut(1).push(Op::compute(3));
        let before: Vec<Vec<Op>> = (0..2).map(|c| p.ops(c).to_vec()).collect();

        let a = p.stream(0); // freezes core 0 on demand
        p.freeze(); // idempotent, covers core 1
        let b = p.stream(0);
        assert!(Arc::ptr_eq(&a, &b), "frozen stream is shared, not copied");

        let mut clone = p.clone();
        for (c, ops) in before.iter().enumerate() {
            assert_eq!(clone.ops(c), &ops[..]);
        }
        assert!(Arc::ptr_eq(&a, &clone.stream(0)), "clones share it too");

        // Mutation after freeze thaws into a private buffer.
        let mut thawed = p.clone();
        thawed.core_mut(0).push(Op::compute(1));
        assert_eq!(thawed.ops(0).len(), 2);
        assert_eq!(p.ops(0).len(), 1, "original untouched");
    }

    #[test]
    fn dependency_marking() {
        let l = Op::load(Addr::new(0), 8, Pc::new(1), AccessClass::Indirect).with_dep(1);
        assert_eq!(l.dep, 1);
        assert_eq!(l.with_dep(2).dep, 2);
    }
}
