//! A minimal discrete-event simulation core.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry.
struct Entry<E> {
    at: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; FIFO (seq) breaks time ties so
        // same-instant events run in schedule order.
        other.at.total_cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue.
///
/// # Example
///
/// ```
/// use sor_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(5.0, "b");
/// q.schedule(1.0, "a");
/// q.schedule(5.0, "c"); // same instant: FIFO after "b"
/// let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("now", &self.now)
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now: 0.0 }
    }

    /// Schedules `event` at absolute time `at`. Scheduling in the past
    /// clamps to "now" (delivery still happens, immediately).
    pub fn schedule(&mut self, at: f64, event: E) {
        let at = at.max(self.now);
        self.heap.push(Entry { at, seq: self.seq, event });
        self.seq += 1;
    }

    /// Pops the next event, advancing the queue clock.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let e = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.event))
    }

    /// Time of the next event without popping.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.at)
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 3);
        q.schedule(1.0, 1);
        q.schedule(2.0, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(7.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(4.0, ());
        q.schedule(9.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 4.0);
        q.pop();
        assert_eq!(q.now(), 9.0);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "first");
        q.pop();
        q.schedule(1.0, "late"); // in the past
        let (at, e) = q.pop().unwrap();
        assert_eq!(e, "late");
        assert_eq!(at, 5.0);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        q.schedule(1.0, ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(1.0));
    }
}
