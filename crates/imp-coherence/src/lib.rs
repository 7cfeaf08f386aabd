//! ACKwise directory coherence (paper Table 1, citing Kurian et al.).
//!
//! ACKwise_k tracks up to `k` sharers precisely in limited directory
//! pointers; when an (k+1)-th sharer arrives the entry degrades to a
//! count, and invalidations must broadcast to every core (all of which
//! acknowledge). The paper uses k = 4.
//!
//! A [`Directory`] is a home tile's whole per-line table: each record
//! holds the line's ACKwise state, the transaction the home is serving
//! for it, and the requests queued behind that transaction. The
//! full-system simulator drives it one message at a time through
//! [`Directory::with_line`] and moves the actual messages.
//!
//! # Example
//!
//! ```
//! use imp_coherence::{Directory, InvTargets};
//! use imp_common::LineAddr;
//!
//! let mut d = Directory::new(4, 64);
//! let line = LineAddr::from_line_number(7);
//! for c in 0..3 {
//!     d.add_sharer(line, c);
//! }
//! match d.invalidation_targets(line, Some(0)) {
//!     InvTargets::Precise(v) => assert_eq!(v.iter().collect::<Vec<_>>(), vec![1, 2]),
//!     t => panic!("expected precise targets, got {t:?}"),
//! }
//! ```

use imp_common::{FastMap, LineAddr, SectorMask};
use std::collections::hash_map::Entry;
use std::fmt;

/// Sharer pointers a record stores inline: the widest ACKwise_k a
/// [`Directory`] supports (the paper's k). Four keep a record at 24
/// bytes, so a map slot is no larger than a heap-backed sharer list's.
pub const MAX_SHARERS: usize = 4;

/// Up to [`MAX_SHARERS`] core ids, stored inline in insertion order.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CoreList {
    len: u8,
    ids: [u16; MAX_SHARERS],
}

impl CoreList {
    const EMPTY: CoreList = CoreList {
        len: 0,
        ids: [0; MAX_SHARERS],
    };

    fn one(core: u32) -> Self {
        let mut l = Self::EMPTY;
        l.push(core);
        l
    }

    fn push(&mut self, core: u32) {
        self.ids[self.len as usize] = core as u16;
        self.len += 1;
    }

    /// Number of cores listed.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no core is listed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `core` is listed.
    pub fn contains(&self, core: u32) -> bool {
        self.ids[..self.len()].iter().any(|&c| u32::from(c) == core)
    }

    /// The listed cores, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ids[..self.len()].iter().map(|&c| u32::from(c))
    }

    /// This list without `core`, order kept.
    fn without(&self, core: Option<u32>) -> CoreList {
        let mut out = Self::EMPTY;
        for c in self.iter().filter(|&c| Some(c) != core) {
            out.push(c);
        }
        out
    }
}

impl fmt::Debug for CoreList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Sharer tracking for one line under ACKwise_k.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharerSet {
    /// At most `k` precisely known sharers.
    Precise(CoreList),
    /// More than `k` sharers: only a count is kept; invalidation must
    /// broadcast.
    Overflow {
        /// Number of sharers believed to exist (monotone over-estimate;
        /// silent evictions are not reported).
        count: u32,
    },
}

/// Directory state of one line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the line.
    Uncached,
    /// One or more caches hold read-only copies.
    Shared(SharerSet),
    /// Exactly one cache holds a writable copy.
    Modified(u32),
}

/// Who must receive invalidations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvTargets {
    /// Nothing to invalidate.
    None,
    /// These cores, precisely, in the order they became sharers.
    Precise(CoreList),
    /// All cores (except the requester); ACKwise overflow.
    Broadcast,
}

impl InvTargets {
    /// Number of invalidation messages these targets imply in a system
    /// of `cores` cores with `requester_excluded` recipients already
    /// removed (1 for a precise request, 0 for a recall with no
    /// requester). Precise counts are exact; a broadcast invalidates
    /// everyone but the excluded recipients.
    pub fn count(&self, cores: u32, requester_excluded: u32) -> u32 {
        match self {
            InvTargets::None => 0,
            InvTargets::Precise(t) => t.len() as u32,
            InvTargets::Broadcast => cores.saturating_sub(requester_excluded),
        }
    }

    /// True for the ACKwise-overflow broadcast case.
    pub fn is_broadcast(&self) -> bool {
        matches!(self, InvTargets::Broadcast)
    }
}

/// A read or write request as the home tile serves it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// The core that asked.
    pub requester: u16,
    /// Sectors it wants, at L1 granularity.
    pub sectors: SectorMask,
    /// Write intent: the requester ends up the Modified owner.
    pub exclusive: bool,
}

/// The transaction a home tile is serving for a line. Requests for the
/// same line wait behind it until it completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Txn {
    /// The request being served.
    pub req: Request,
    /// Invalidation or fetch acknowledgements still outstanding (at
    /// most one per other core).
    pub acks_pending: u16,
    /// Whether the line's data is in the L2 slice.
    pub data_ready: bool,
}

impl Txn {
    /// A fresh transaction for `req`, waiting on nothing yet.
    pub fn new(req: Request) -> Self {
        Txn {
            req,
            acks_pending: 0,
            data_ready: false,
        }
    }

    /// True once every ack is in and the data is ready.
    pub fn is_ready(&self) -> bool {
        self.acks_pending == 0 && self.data_ready
    }
}

const NIL: u32 = u32::MAX;

/// A line's waiting requests: a circular list threaded through the
/// directory's shared [`WaitPool`], named by its tail slot (whose
/// `next` is the head), or `NIL` when empty.
#[derive(Clone, Copy, Debug)]
struct Fifo {
    tail: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo { tail: NIL };

    fn is_empty(&self) -> bool {
        self.tail == NIL
    }
}

#[derive(Debug)]
struct WaitSlot {
    req: Request,
    next: u32,
}

/// Storage for every line's waiting requests. Slots are recycled through
/// a free list, so queueing allocates nothing once the pool has grown to
/// the run's peak backlog.
#[derive(Debug, Default)]
struct WaitPool {
    slots: Vec<WaitSlot>,
    free: Vec<u32>,
    waiting: usize,
}

impl WaitPool {
    fn push(&mut self, q: &mut Fifo, req: Request) {
        let slot = WaitSlot { req, next: NIL };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[i as usize].next = if q.is_empty() {
            i
        } else {
            std::mem::replace(&mut self.slots[q.tail as usize].next, i)
        };
        q.tail = i;
        self.waiting += 1;
    }

    fn pop(&mut self, q: &mut Fifo) -> Option<Request> {
        if q.is_empty() {
            return None;
        }
        let head = self.slots[q.tail as usize].next;
        if head == q.tail {
            q.tail = NIL;
        } else {
            self.slots[q.tail as usize].next = self.slots[head as usize].next;
        }
        self.free.push(head);
        self.waiting -= 1;
        Some(self.slots[head as usize].req)
    }
}

/// Everything a home tile keeps for one line.
#[derive(Clone, Copy, Debug)]
struct Record {
    state: DirState,
    txn: Option<Txn>,
    waiting: Fifo,
}

// Records are the directory's map values: keep them compact.
const _: () = assert!(std::mem::size_of::<Record>() == 24);

impl Record {
    const IDLE: Record = Record {
        state: DirState::Uncached,
        txn: None,
        waiting: Fifo::EMPTY,
    };

    fn is_idle(&self) -> bool {
        self.state == DirState::Uncached && self.txn.is_none() && self.waiting.is_empty()
    }
}

/// ACKwise_k transitions on one line's state.
impl DirState {
    fn owner(&self) -> Option<u32> {
        match *self {
            DirState::Modified(o) => Some(o),
            _ => None,
        }
    }

    fn add_sharer(&mut self, core: u32, k: usize, cores: u32) {
        match self {
            DirState::Uncached => {
                *self = DirState::Shared(SharerSet::Precise(CoreList::one(core)));
            }
            DirState::Shared(SharerSet::Precise(v)) => {
                if !v.contains(core) {
                    if v.len() < k {
                        v.push(core);
                    } else {
                        let count = v.len() as u32 + 1;
                        *self = DirState::Shared(SharerSet::Overflow { count });
                    }
                }
            }
            DirState::Shared(SharerSet::Overflow { count }) => {
                *count = (*count + 1).min(cores);
            }
            DirState::Modified(owner) => {
                // Downgrade path: owner plus the new reader share.
                let mut v = CoreList::one(*owner);
                if *owner != core {
                    v.push(core);
                }
                *self = DirState::Shared(SharerSet::Precise(v));
            }
        }
    }

    fn remove(&mut self, core: u32) {
        match self {
            DirState::Uncached => {}
            DirState::Shared(SharerSet::Precise(v)) => {
                *v = v.without(Some(core));
                if v.is_empty() {
                    *self = DirState::Uncached;
                }
            }
            DirState::Shared(SharerSet::Overflow { count }) => {
                *count = count.saturating_sub(1);
                if *count == 0 {
                    *self = DirState::Uncached;
                }
            }
            DirState::Modified(o) => {
                if *o == core {
                    *self = DirState::Uncached;
                }
            }
        }
    }

    fn invalidation_targets(&self, exclude: Option<u32>) -> InvTargets {
        match self {
            DirState::Uncached => InvTargets::None,
            DirState::Modified(o) => {
                if Some(*o) == exclude {
                    InvTargets::None
                } else {
                    InvTargets::Precise(CoreList::one(*o))
                }
            }
            DirState::Shared(SharerSet::Precise(v)) => {
                let t = v.without(exclude);
                if t.is_empty() {
                    InvTargets::None
                } else {
                    InvTargets::Precise(t)
                }
            }
            DirState::Shared(SharerSet::Overflow { .. }) => InvTargets::Broadcast,
        }
    }
}

/// A home tile's directory slice: one record per line homed here that
/// has sharers, an open transaction, or waiting requests. A record is
/// dropped the moment it holds none of these.
#[derive(Debug)]
pub struct Directory {
    k: usize,
    cores: u32,
    records: FastMap<LineAddr, Record>,
    waits: WaitPool,
}

impl Directory {
    /// Creates a directory with `k` sharer pointers over `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds [`MAX_SHARERS`] or `cores` exceeds 65 536
    /// (sharer pointers are 16 bits wide).
    pub fn new(k: usize, cores: u32) -> Self {
        assert!(k <= MAX_SHARERS, "ACKwise k={k} exceeds {MAX_SHARERS}");
        assert!(cores <= 1 << 16, "{cores} cores exceed 16-bit core ids");
        Directory {
            k,
            cores,
            records: FastMap::default(),
            waits: WaitPool::default(),
        }
    }

    /// Total cores in the system.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Runs `f` on `line`'s record, creating an idle one if there is
    /// none, and drops the record afterwards if `f` left it idle. One
    /// hash lookup in all cases.
    pub fn with_line<T>(&mut self, line: LineAddr, f: impl FnOnce(&mut HomeLine<'_>) -> T) -> T {
        let (k, cores) = (self.k, self.cores);
        match self.records.entry(line) {
            Entry::Occupied(mut o) => {
                let out = f(&mut HomeLine {
                    rec: o.get_mut(),
                    waits: &mut self.waits,
                    k,
                    cores,
                });
                if o.get().is_idle() {
                    o.remove();
                }
                out
            }
            Entry::Vacant(v) => {
                let mut rec = Record::IDLE;
                let out = f(&mut HomeLine {
                    rec: &mut rec,
                    waits: &mut self.waits,
                    k,
                    cores,
                });
                if !rec.is_idle() {
                    v.insert(rec);
                }
                out
            }
        }
    }

    /// Current state of `line`.
    pub fn state(&self, line: LineAddr) -> DirState {
        self.records
            .get(&line)
            .map_or(DirState::Uncached, |r| r.state)
    }

    /// The owning core if the line is Modified somewhere.
    pub fn owner(&self, line: LineAddr) -> Option<u32> {
        self.state(line).owner()
    }

    /// True if any cache may hold the line.
    pub fn is_cached(&self, line: LineAddr) -> bool {
        self.state(line) != DirState::Uncached
    }

    /// Records `core` as a sharer (after serving a read).
    pub fn add_sharer(&mut self, line: LineAddr, core: u32) {
        self.with_line(line, |d| d.add_sharer(core));
    }

    /// Records `core` as the exclusive owner (after serving a write).
    pub fn set_modified(&mut self, line: LineAddr, core: u32) {
        self.with_line(line, |d| d.set_modified(core));
    }

    /// Removes a core from the sharer set / ownership (writeback or
    /// invalidation ack). Overflow counts only decrement; they never
    /// regain precision (matching limited-pointer hardware).
    pub fn remove(&mut self, line: LineAddr, core: u32) {
        self.with_line(line, |d| d.remove(core));
    }

    /// Drops all sharer tracking for `line` (L2 eviction recall).
    pub fn clear(&mut self, line: LineAddr) {
        self.with_line(line, |d| d.clear());
    }

    /// Who must be invalidated to grant `exclude` (the requester, if
    /// any) exclusive access. Precise sets list the sharers; overflow
    /// broadcasts (the ACKwise mechanism).
    pub fn invalidation_targets(&self, line: LineAddr, exclude: Option<u32>) -> InvTargets {
        self.state(line).invalidation_targets(exclude)
    }

    /// Number of records held: lines with sharers, an open transaction,
    /// or waiting requests.
    pub fn tracked_lines(&self) -> usize {
        self.records.len()
    }

    /// Lines with an open transaction.
    pub fn open_transactions(&self) -> usize {
        self.records.values().filter(|r| r.txn.is_some()).count()
    }

    /// Requests waiting behind open transactions, over all lines.
    pub fn waiting_requests(&self) -> usize {
        self.waits.waiting
    }

    /// Records that track nothing. Always zero: a record is dropped as
    /// soon as it goes idle.
    pub fn idle_records(&self) -> usize {
        self.records.values().filter(|r| r.is_idle()).count()
    }
}

/// One line's record, borrowed from its [`Directory`] for the handling
/// of one message (see [`Directory::with_line`]).
pub struct HomeLine<'a> {
    rec: &'a mut Record,
    waits: &'a mut WaitPool,
    k: usize,
    cores: u32,
}

impl HomeLine<'_> {
    /// The owning core if the line is Modified somewhere.
    pub fn owner(&self) -> Option<u32> {
        self.rec.state.owner()
    }

    /// Records `core` as a sharer.
    pub fn add_sharer(&mut self, core: u32) {
        self.rec.state.add_sharer(core, self.k, self.cores);
    }

    /// Records `core` as the exclusive owner.
    pub fn set_modified(&mut self, core: u32) {
        self.rec.state = DirState::Modified(core);
    }

    /// Removes `core` from the sharers or ownership.
    pub fn remove(&mut self, core: u32) {
        self.rec.state.remove(core);
    }

    /// Drops all sharer tracking. The open transaction and the waiting
    /// requests stay.
    pub fn clear(&mut self) {
        self.rec.state = DirState::Uncached;
    }

    /// See [`Directory::invalidation_targets`].
    pub fn invalidation_targets(&self, exclude: Option<u32>) -> InvTargets {
        self.rec.state.invalidation_targets(exclude)
    }

    /// The open transaction, if any.
    pub fn txn(&mut self) -> Option<&mut Txn> {
        self.rec.txn.as_mut()
    }

    /// Opens `txn` on this line.
    pub fn open(&mut self, txn: Txn) {
        debug_assert!(self.rec.txn.is_none(), "one transaction per line");
        self.rec.txn = Some(txn);
    }

    /// Closes the open transaction, returning it.
    pub fn close(&mut self) -> Option<Txn> {
        self.rec.txn.take()
    }

    /// Queues `req` behind the open transaction.
    pub fn enqueue(&mut self, req: Request) {
        self.waits.push(&mut self.rec.waiting, req);
    }

    /// The oldest waiting request, removed from the queue.
    pub fn dequeue(&mut self) -> Option<Request> {
        self.waits.pop(&mut self.rec.waiting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    fn precise(cores: &[u32]) -> CoreList {
        let mut l = CoreList::EMPTY;
        for &c in cores {
            l.push(c);
        }
        l
    }

    #[test]
    fn inv_targets_count_covers_all_shapes() {
        assert_eq!(InvTargets::None.count(16, 1), 0);
        assert_eq!(InvTargets::Precise(precise(&[2, 5, 9])).count(16, 1), 3);
        assert_eq!(InvTargets::Broadcast.count(16, 1), 15);
        assert_eq!(
            InvTargets::Broadcast.count(16, 0),
            16,
            "recall, no requester"
        );
        assert!(InvTargets::Broadcast.is_broadcast());
        assert!(!InvTargets::Precise(precise(&[1])).is_broadcast());
    }

    #[test]
    fn read_then_write_transitions() {
        let mut d = Directory::new(4, 16);
        d.add_sharer(line(1), 3);
        assert_eq!(
            d.state(line(1)),
            DirState::Shared(SharerSet::Precise(precise(&[3])))
        );
        d.set_modified(line(1), 5);
        assert_eq!(d.owner(line(1)), Some(5));
        d.remove(line(1), 5);
        assert_eq!(d.state(line(1)), DirState::Uncached);
    }

    #[test]
    fn ackwise_overflow_at_k_plus_one() {
        let mut d = Directory::new(4, 16);
        for c in 0..4 {
            d.add_sharer(line(9), c);
        }
        assert!(matches!(
            d.state(line(9)),
            DirState::Shared(SharerSet::Precise(_))
        ));
        d.add_sharer(line(9), 4);
        assert_eq!(
            d.state(line(9)),
            DirState::Shared(SharerSet::Overflow { count: 5 })
        );
        assert_eq!(
            d.invalidation_targets(line(9), Some(0)),
            InvTargets::Broadcast
        );
    }

    #[test]
    fn precise_invalidation_excludes_requester() {
        let mut d = Directory::new(4, 16);
        d.add_sharer(line(2), 1);
        d.add_sharer(line(2), 2);
        d.add_sharer(line(2), 7);
        assert_eq!(
            d.invalidation_targets(line(2), Some(2)),
            InvTargets::Precise(precise(&[1, 7]))
        );
    }

    #[test]
    fn duplicate_sharer_not_double_counted() {
        let mut d = Directory::new(4, 16);
        d.add_sharer(line(3), 1);
        d.add_sharer(line(3), 1);
        assert_eq!(
            d.state(line(3)),
            DirState::Shared(SharerSet::Precise(precise(&[1])))
        );
    }

    #[test]
    fn modified_downgrades_to_shared_pair_on_read() {
        let mut d = Directory::new(4, 16);
        d.set_modified(line(4), 6);
        d.add_sharer(line(4), 2);
        assert_eq!(
            d.state(line(4)),
            DirState::Shared(SharerSet::Precise(precise(&[6, 2])))
        );
    }

    #[test]
    fn overflow_count_saturates_at_core_count() {
        let mut d = Directory::new(2, 4);
        for c in 0..4 {
            d.add_sharer(line(5), c);
        }
        d.add_sharer(line(5), 0); // duplicate adds in overflow still count
        assert_eq!(
            d.state(line(5)),
            DirState::Shared(SharerSet::Overflow { count: 4 })
        );
    }

    #[test]
    fn remove_from_overflow_decrements_and_clears() {
        let mut d = Directory::new(1, 8);
        d.add_sharer(line(6), 0);
        d.add_sharer(line(6), 1);
        assert!(matches!(
            d.state(line(6)),
            DirState::Shared(SharerSet::Overflow { count: 2 })
        ));
        d.remove(line(6), 0);
        d.remove(line(6), 1);
        assert_eq!(d.state(line(6)), DirState::Uncached);
        // Still broadcast while any overflow count remains.
        d.add_sharer(line(7), 0);
        d.add_sharer(line(7), 1);
        d.remove(line(7), 0);
        assert_eq!(d.invalidation_targets(line(7), None), InvTargets::Broadcast);
    }

    #[test]
    fn clear_drops_entry() {
        let mut d = Directory::new(4, 16);
        d.add_sharer(line(8), 0);
        d.clear(line(8));
        assert!(!d.is_cached(line(8)));
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn uncached_line_needs_no_invalidation() {
        let d = Directory::new(4, 16);
        assert_eq!(d.invalidation_targets(line(10), None), InvTargets::None);
    }

    #[test]
    fn waiting_requests_are_fifo_per_line_and_records_drop_when_idle() {
        let mut d = Directory::new(4, 16);
        let req = |requester| Request {
            requester,
            sectors: SectorMask::FULL_L1,
            exclusive: false,
        };
        d.with_line(line(1), |h| {
            h.open(Txn::new(req(0)));
            h.enqueue(req(1));
            h.enqueue(req(2));
        });
        d.with_line(line(2), |h| {
            h.open(Txn::new(req(3)));
            h.enqueue(req(4));
        });
        assert_eq!(d.open_transactions(), 2);
        assert_eq!(d.waiting_requests(), 3);
        for (l, expect) in [(1, vec![1, 2]), (2, vec![4])] {
            let got = d.with_line(line(l), |h| {
                h.close();
                std::iter::from_fn(|| h.dequeue().map(|r| r.requester)).collect::<Vec<_>>()
            });
            assert_eq!(got, expect);
        }
        assert_eq!(d.waiting_requests(), 0);
        assert_eq!(d.tracked_lines(), 0, "drained records are dropped");
        // Freed wait slots are reused, not grown.
        d.with_line(line(3), |h| {
            h.open(Txn::new(req(5)));
            h.enqueue(req(6));
        });
        assert_eq!(d.waits.slots.len(), 3);
        assert_eq!(d.idle_records(), 0);
    }

    #[test]
    fn clear_keeps_the_open_transaction() {
        let mut d = Directory::new(4, 16);
        d.add_sharer(line(4), 1);
        d.with_line(line(4), |h| {
            h.open(Txn::new(Request {
                requester: 2,
                sectors: SectorMask::FULL_L1,
                exclusive: true,
            }))
        });
        d.clear(line(4));
        assert_eq!(d.state(line(4)), DirState::Uncached);
        assert_eq!(d.open_transactions(), 1);
        assert_eq!(d.tracked_lines(), 1);
    }
}
