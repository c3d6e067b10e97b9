//! A small time-ordered event queue over `f64` timestamps.
//!
//! `BinaryHeap` needs `Ord`; simulation times are `f64`. This wrapper does
//! the total-order plumbing once (rejecting NaN at insertion) so engine
//! code stays clean. Ties are broken FIFO by insertion sequence, making
//! simulations deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A min-heap of `(time, payload)` events.
///
/// # Example
///
/// ```
/// let mut q = hetgc_sim::EventQueue::new();
/// q.push(2.0, "late");
/// q.push(1.0, "early");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN (a NaN timestamp is always a logic bug in
    /// the caller; surfacing it immediately beats a heap invariant
    /// violation later).
    pub fn push(&mut self, time: f64, payload: T) {
        assert!(!time.is_nan(), "event time must not be NaN");
        self.heap.push(Entry {
            time,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(3.0, 'c');
        q.push(1.0, 'a');
        q.push(2.0, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        q.push(1.0, "first");
        q.push(1.0, "second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.heap.is_empty());
        assert_eq!(q.pop(), None);
        q.push(5.0, ());
        assert_eq!(q.heap.len(), 1);
        assert!(!q.heap.is_empty());
        assert_eq!(q.pop(), Some((5.0, ())));
    }

    #[test]
    fn infinity_sorts_last() {
        let mut q = EventQueue::new();
        q.push(f64::INFINITY, "never");
        q.push(1.0, "soon");
        assert_eq!(q.pop().unwrap().1, "soon");
        assert_eq!(q.pop().unwrap().1, "never");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        EventQueue::new().push(f64::NAN, ());
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<u8> = EventQueue::default();
        assert!(q.heap.is_empty());
    }
}
