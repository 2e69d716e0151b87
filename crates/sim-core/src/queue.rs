//! The event queue: a time-ordered priority queue with deterministic
//! FIFO tie-breaking, holding each run of same-instant events as one
//! heap entry.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// What a heap entry carries: one event, or the index of a run in the
/// queue's run slab. When the event is an enum with a spare tag value,
/// the index fits in that niche, so an entry is no larger than the event
/// entry alone would be.
enum Slot<E> {
    One(E),
    Run(u32),
}

/// A future event: its firing time plus an insertion sequence number so
/// that events scheduled for the same instant pop in insertion order. A
/// run's events hold consecutive seqs and its entry keeps the first: no
/// other key falls between them, so the entry sorts exactly where the
/// run's next event would.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    slot: Slot<E>,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// Events pushed for the same [`SimTime`] are returned in push order, which
/// keeps multi-component simulations (engine signals, executor wake-ups,
/// scheduler placements) reproducible without fragile epsilon offsets.
///
/// # Example
///
/// ```
/// use pipefill_sim_core::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let t = SimTime::from_secs_f64(1.0);
/// q.push(t, "a");
/// q.push_run(t, ["b", "c"]);
/// assert_eq!(q.len(), 3);
/// assert_eq!(q.pop(), Some((t, "a")));
/// assert_eq!(q.pop(), Some((t, "b")));
/// assert_eq!(q.pop(), Some((t, "c")));
/// assert!(q.is_empty());
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Run slab: each queued run's remaining events, next event last.
    runs: Vec<Vec<E>>,
    /// Slab slots free for the next run; their buffers keep their
    /// capacity, so a push allocates nothing once the slab is warm.
    free: Vec<u32>,
    /// Queued run events beyond each run's first, so that `len` counts
    /// events rather than heap entries.
    run_tail: usize,
    next_seq: u64,
    credited: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending entries
    /// before the backing heap reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            runs: Vec::new(),
            free: Vec::new(),
            run_tail: 0,
            next_seq: 0,
            credited: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at,
            seq,
            slot: Slot::One(payload),
        });
    }

    /// Schedules every event of `events` to fire at `at`, in order, as
    /// one heap entry. Pops are exactly those of pushing the events one
    /// by one: they hold consecutive seqs, so no other event can sort
    /// between them. An empty run schedules nothing.
    pub fn push_run(&mut self, at: SimTime, events: impl IntoIterator<Item = E>) {
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                self.runs.push(Vec::new());
                u32::try_from(self.runs.len() - 1).expect("fewer than 2^32 runs pending")
            }
        };
        let run = &mut self.runs[index as usize];
        run.extend(events);
        if run.is_empty() {
            self.free.push(index);
            return;
        }
        run.reverse();
        let seq = self.next_seq;
        self.next_seq += run.len() as u64;
        self.run_tail += run.len() - 1;
        self.heap.push(Entry {
            at,
            seq,
            slot: Slot::Run(index),
        });
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties break in push order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let top = self.heap.peek()?;
        if let Slot::Run(index) = top.slot {
            let run = &mut self.runs[index as usize];
            // Events remain after this one: the entry stays where it is.
            if run.len() > 1 {
                self.run_tail -= 1;
                let at = top.at;
                return run.pop().map(|event| (at, event));
            }
        }
        let Entry { at, slot, .. } = self.heap.pop()?;
        match slot {
            Slot::One(event) => Some((at, event)),
            Slot::Run(index) => {
                self.free.push(index);
                self.runs[index as usize].pop().map(|event| (at, event))
            }
        }
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.run_tail
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Credits `n` events as dispatched without running them through the
    /// queue. A handler that analytically skips a stretch of simulation
    /// (e.g. steady-state fast-forward) calls this with the number of
    /// events the skipped stretch would have fired, so that
    /// [`crate::Simulation::dispatched`] stays identical whether the
    /// stretch was simulated event-by-event or replayed in closed form.
    pub fn credit(&mut self, n: u64) {
        self.credited += n;
    }

    /// Takes (and resets) the credit accumulated since the last call.
    /// The simulation driver drains this after every dispatched event.
    pub fn take_credit(&mut self) -> u64 {
        std::mem::take(&mut self.credited)
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs_f64(3.0), 3);
        q.push(SimTime::from_secs_f64(1.0), 1);
        q.push(SimTime::from_secs_f64(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs_f64(5.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        let base = SimTime::ZERO;
        q.push(base + SimDuration::from_secs(2), "late");
        q.push(base + SimDuration::from_secs(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(base + SimDuration::from_millis(1500), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs_f64(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(1.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((SimTime::from_secs_f64(1.0), ())));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn a_run_entry_costs_no_more_than_an_event_entry() {
        // Shaped like the cluster simulation's event alphabet: a tag and
        // one word of payload.
        #[expect(dead_code, reason = "only the layout is measured; no value is built")]
        enum Event {
            A(usize),
            B(usize),
            C(usize),
        }
        assert_eq!(
            std::mem::size_of::<Entry<Event>>(),
            16 + std::mem::size_of::<Event>()
        );
    }
}
