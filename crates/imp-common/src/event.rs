//! A deterministic discrete-event queue.
//!
//! Events with equal timestamps are popped in insertion order, which makes
//! whole-system simulations replay identically run to run.
//!
//! Internally the queue is a *calendar wheel*: a ring of
//! `WHEEL_SLOTS` FIFO buckets covers the near future (where almost
//! every simulation event lands — core wakes at `now + 1`, fixed NoC
//! hop and DRAM latencies), so push and pop are O(1) array operations
//! instead of binary-heap sift-downs. Events beyond the wheel horizon
//! go to a sorted overflow heap and are merged back in timestamp order
//! at pop time. The observable order is identical to a plain priority
//! queue with a `(time, seq)` key: strictly by time, FIFO within a
//! time.
//!
//! Only overflow entries carry a sequence number. Wheel buckets are
//! FIFO already, and an overflow entry never loses a tie to a wheel
//! entry: for any time `t`, every pending overflow entry at `t` was
//! pushed before every pending wheel entry at `t` (see
//! [`EventQueue::pop`]).

use crate::Cycle;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Number of near-future buckets the calendar wheel covers (one bucket
/// per cycle). Must be a power of two and a multiple of 64.
const WHEEL_SLOTS: usize = 1024;
const WHEEL_MASK: usize = WHEEL_SLOTS - 1;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

/// A time-ordered queue of events of type `E`.
///
/// # Example
///
/// ```
/// use imp_common::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(10, "b");
/// q.push(5, "a");
/// q.push(10, "c");
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b"))); // FIFO among equal times
/// assert_eq!(q.pop(), Some((10, "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Bucket `t & WHEEL_MASK` holds the events at absolute time `t`
    /// for every `t` in `[base, base + WHEEL_SLOTS)`, in push order.
    wheel: Box<[VecDeque<E>]>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WHEEL_WORDS],
    /// Events currently resident in the wheel.
    wheel_len: usize,
    /// The earliest time the wheel can currently hold. Never moves
    /// backwards, and only advances to times whose earlier buckets have
    /// drained, so each bucket always holds at most one distinct time.
    base: Cycle,
    /// Events outside the wheel window: far-future timestamps, plus the
    /// (degenerate) case of a push earlier than `base`.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// Push counter; orders equal-time overflow entries.
    seq: u64,
    len: usize,
}

#[derive(Debug)]
struct Entry<E> {
    time: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: (0..WHEEL_SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            wheel_len: 0,
            base: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }

    /// Schedules `payload` at absolute time `time`.
    #[inline]
    pub fn push(&mut self, time: Cycle, payload: E) {
        self.len += 1;
        if time >= self.base && time - self.base < WHEEL_SLOTS as Cycle {
            let b = (time as usize) & WHEEL_MASK;
            self.wheel[b].push_back(payload);
            self.occupied[b / 64] |= 1 << (b % 64);
            self.wheel_len += 1;
        } else {
            let seq = self.seq;
            self.seq += 1;
            self.overflow.push(Reverse(Entry { time, seq, payload }));
        }
    }

    /// Removes and returns the earliest event.
    ///
    /// On a time tie the overflow heap wins, which keeps FIFO order:
    /// an overflow entry at `t` was always pushed before any wheel
    /// entry at `t`. It went to the overflow either because `t` lay
    /// past the window (`t >= base + WHEEL_SLOTS` then), so no earlier
    /// push could have put `t` in the wheel since `base` never moves
    /// back; or because `t < base`, and `base` only passes `t` once
    /// the wheel holds nothing at `t`, after which no push can put `t`
    /// in the wheel again.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.len == 0 {
            return None;
        }
        let wheel_min = self.wheel_min();
        let take_overflow = match (wheel_min, self.overflow.peek()) {
            (None, Some(_)) => true,
            (Some((wt, _)), Some(Reverse(o))) => o.time <= wt,
            _ => false,
        };
        self.len -= 1;
        if take_overflow {
            let Reverse(e) = self.overflow.pop().expect("peeked above");
            // Never move `base` backwards: a push earlier than `base`
            // must not re-open buckets that already drained.
            self.base = self.base.max(e.time);
            return Some((e.time, e.payload));
        }
        let (time, b) = wheel_min.expect("len > 0 and overflow did not win");
        let payload = self.wheel[b].pop_front().expect("occupied bucket");
        if self.wheel[b].is_empty() {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.wheel_len -= 1;
        self.base = time;
        Some((time, payload))
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        let wheel = self.wheel_min().map(|(t, _)| t);
        let over = self.overflow.peek().map(|Reverse(e)| e.time);
        match (wheel, over) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (Some(t), None) | (None, Some(t)) => Some(t),
            (None, None) => None,
        }
    }

    /// Earliest wheel event as `(time, bucket)`: the first
    /// occupied bucket scanning the occupancy bitmap in circular order
    /// from `base` (bucket order from `base` is time order, since each
    /// bucket holds one distinct time within the window).
    #[inline]
    fn wheel_min(&self) -> Option<(Cycle, usize)> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.base as usize) & WHEEL_MASK;
        let (sw, sb) = (start / 64, start % 64);
        let mut bucket = None;
        let first = self.occupied[sw] & (!0u64 << sb);
        if first != 0 {
            bucket = Some(sw * 64 + first.trailing_zeros() as usize);
        } else {
            for i in 1..=WHEEL_WORDS {
                let wi = (sw + i) % WHEEL_WORDS;
                let mut w = self.occupied[wi];
                if wi == sw {
                    // Wrapped all the way around: only the bits below
                    // the start position remain unchecked.
                    w &= (1u64 << sb) - 1;
                }
                if w != 0 {
                    bucket = Some(wi * 64 + w.trailing_zeros() as usize);
                    break;
                }
            }
        }
        let b = bucket.expect("wheel_len > 0 implies an occupied bucket");
        let time = self.base + ((b.wrapping_sub(start) & WHEEL_MASK) as Cycle);
        Some((time, b))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(3, 30);
        q.push(1, 10);
        q.push(2, 20);
        q.push(1, 11);
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![(1, 10), (1, 11), (2, 20), (3, 30)]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(7, ());
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn large_interleaving_is_stable() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(i % 10, i);
        }
        let mut last: Option<(u64, u64)> = None;
        while let Some((t, v)) = q.pop() {
            if let Some((lt, lv)) = last {
                // Within equal times, payloads must come out in insertion order.
                if t == lt {
                    assert!(v > lv);
                }
                assert!(t >= lt);
            }
            last = Some((t, v));
        }
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = EventQueue::new();
        q.push(WHEEL_SLOTS as u64 * 5, "far");
        q.push(1, "near");
        q.push(WHEEL_SLOTS as u64 * 5, "far2");
        assert_eq!(q.pop(), Some((1, "near")));
        // After the jump, the wheel re-bases at the overflow time.
        assert_eq!(q.pop(), Some((WHEEL_SLOTS as u64 * 5, "far")));
        q.push(WHEEL_SLOTS as u64 * 5 + 1, "next");
        assert_eq!(q.pop(), Some((WHEEL_SLOTS as u64 * 5, "far2")));
        assert_eq!(q.pop(), Some((WHEEL_SLOTS as u64 * 5 + 1, "next")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_fifo_across_wheel_and_overflow() {
        let mut q = EventQueue::new();
        // Pushed while out of the window: lands in overflow.
        let t = WHEEL_SLOTS as u64 + 100;
        q.push(t, 0);
        q.push(200, 99);
        assert_eq!(q.pop(), Some((200, 99)));
        // Now `t` is within the (re-based) window: lands in the wheel.
        q.push(t, 1);
        // The overflow entry was pushed first, so it must pop first.
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 1)));
    }

    #[test]
    fn push_earlier_than_base_still_pops_first() {
        let mut q = EventQueue::new();
        q.push(500, "late");
        q.push(500, "late2");
        assert_eq!(q.pop(), Some((500, "late")));
        // A (degenerate) push into the past must still come out before
        // anything later.
        q.push(100, "past");
        q.push(501, "later");
        assert_eq!(q.pop(), Some((100, "past")));
        assert_eq!(q.pop(), Some((500, "late2")));
        assert_eq!(q.pop(), Some((501, "later")));
    }

    #[test]
    fn wheel_wraps_across_its_horizon() {
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for round in 0..10u64 {
            for i in 0..7u64 {
                let t = round * 700 + i * 97;
                q.push(t, (round, i));
                expect.push((t, (round, i)));
            }
        }
        expect.sort_by_key(|&(t, _)| t); // stable: preserves push order per time
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, expect);
    }
}
