//! Bounded earliest-deadline-first request queue.
//!
//! One [`EdfQueue`] per registered robot. The queue itself never blocks:
//! it lives under its robot's dispatch lock in the engine, and the
//! engine's executor pool decides when to pop it.

use crate::engine::{ServeRequest, Ticket};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// A request sitting in a robot's queue, with everything needed to
/// execute it and fulfil its ticket.
#[derive(Debug)]
pub(crate) struct Pending {
    /// Absolute deadline; `None` sorts after every concrete deadline.
    pub deadline: Option<Instant>,
    /// Admission sequence number — FIFO tiebreak among equal deadlines.
    pub seq: u64,
    /// The request payload.
    pub req: ServeRequest,
    /// When the request was accepted (for the latency histogram).
    pub enqueued: Instant,
    /// The caller's handle awaiting the result.
    pub ticket: Ticket,
    /// Whether this request holds its robot's half-open circuit-breaker
    /// probe slot (its outcome must be reported back to the breaker).
    pub probe: bool,
}

/// EDF key: earliest deadline first, `None` last, then admission order.
fn urgency(a: &Pending, b: &Pending) -> Ordering {
    let by_deadline = match (a.deadline, b.deadline) {
        (Some(x), Some(y)) => x.cmp(&y),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => Ordering::Equal,
    };
    by_deadline.then(a.seq.cmp(&b.seq))
}

impl PartialEq for Pending {
    fn eq(&self, other: &Pending) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Pending) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Pending) -> Ordering {
        // `BinaryHeap` is a max-heap; reverse the urgency order so the
        // heap's top is the most urgent request.
        urgency(self, other).reverse()
    }
}

/// A bounded EDF queue of one robot's pending requests.
pub(crate) struct EdfQueue {
    heap: BinaryHeap<Pending>,
    capacity: usize,
}

impl EdfQueue {
    pub fn new(capacity: usize) -> EdfQueue {
        EdfQueue {
            heap: BinaryHeap::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits a request, or hands it back if the queue is at capacity
    /// (the caller sheds it — backpressure is explicit, never blocking).
    // The large Err is the point: shedding returns the whole request so
    // the caller can resolve its ticket; boxing would allocate on the
    // hot admission path.
    #[allow(clippy::result_large_err)]
    pub fn try_push(&mut self, pending: Pending) -> Result<(), Pending> {
        if self.heap.len() >= self.capacity {
            return Err(pending);
        }
        self.heap.push(pending);
        Ok(())
    }

    /// Requests waiting.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Pops the EDF head plus up to `max - 1` further ∇FD requests to
    /// coalesce into one batched execution; `None` when the queue is
    /// empty.
    pub fn pop_batch(&mut self, max: usize) -> Option<Vec<Pending>> {
        let first = self.heap.pop()?;
        // Only independent single-step ∇FD work coalesces; trajectory
        // workloads (rollouts, mixed chains) pop alone, so one long
        // rollout occupies exactly one instance and the coalescable
        // batches queued behind it drain normally.
        let coalesce = first.req.kind.is_coalescable();
        let mut batch = vec![first];
        while coalesce && batch.len() < max.max(1) {
            match self.heap.peek() {
                Some(next) if next.req.kind.is_coalescable() => {
                    batch.push(self.heap.pop().expect("peeked"));
                }
                _ => break,
            }
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeRequest;
    use std::time::Duration;

    fn pending(seq: u64, deadline_us: Option<u64>, base: Instant) -> Pending {
        Pending {
            deadline: deadline_us.map(|us| base + Duration::from_micros(us)),
            seq,
            req: ServeRequest::gradient("r", vec![], vec![], vec![]),
            enqueued: base,
            ticket: Ticket::new(),
            probe: false,
        }
    }

    #[test]
    fn pops_in_deadline_order_with_fifo_tiebreak() {
        let mut q = EdfQueue::new(8);
        let base = Instant::now();
        for (seq, dl) in [(0, Some(500)), (1, None), (2, Some(100)), (3, Some(100))] {
            q.try_push(pending(seq, dl, base)).unwrap();
        }
        let batch = q.pop_batch(4).unwrap();
        let seqs: Vec<u64> = batch.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![2, 3, 0, 1], "EDF order, None last, FIFO ties");
    }

    #[test]
    fn sheds_when_full_and_pops_until_empty() {
        let mut q = EdfQueue::new(2);
        let base = Instant::now();
        q.try_push(pending(0, None, base)).unwrap();
        q.try_push(pending(1, None, base)).unwrap();
        assert!(q.try_push(pending(2, None, base)).is_err(), "at capacity");

        assert_eq!(q.pop_batch(1).unwrap().len(), 1);
        assert_eq!(q.pop_batch(1).unwrap().len(), 1);
        assert!(q.pop_batch(1).is_none(), "drained");
    }

    #[test]
    fn equal_deadlines_pop_in_strict_admission_order() {
        let mut q = EdfQueue::new(16);
        let base = Instant::now();
        // All the same absolute deadline; admission order scrambled
        // relative to seq so a heap bug would show.
        for seq in [5, 1, 9, 3, 7] {
            q.try_push(pending(seq, Some(1_000), base)).unwrap();
        }
        let batch = q.pop_batch(5).unwrap();
        let seqs: Vec<u64> = batch.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![1, 3, 5, 7, 9], "FIFO by seq at equal deadlines");
    }

    #[test]
    fn rejection_hands_back_the_newcomer_and_preserves_queue_contents() {
        let mut q = EdfQueue::new(2);
        let base = Instant::now();
        // Two lax-deadline requests fill the queue; an *urgent* newcomer
        // is still the one rejected — bounded queues never evict.
        q.try_push(pending(0, Some(10_000), base)).unwrap();
        q.try_push(pending(1, Some(20_000), base)).unwrap();
        let bounced = q.try_push(pending(2, Some(1), base)).unwrap_err();
        assert_eq!(bounced.seq, 2, "the newcomer bounces, urgent or not");

        let batch = q.pop_batch(4).unwrap();
        let seqs: Vec<u64> = batch.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![0, 1], "queued requests untouched by the shed");
    }

    #[test]
    fn trajectory_requests_pop_alone_and_never_join_gradient_batches() {
        let mut q = EdfQueue::new(16);
        let base = Instant::now();
        let mut push = |seq: u64, req: ServeRequest| {
            q.try_push(Pending {
                deadline: Some(base + Duration::from_micros(100 + seq)),
                seq,
                req,
                enqueued: base,
                ticket: Ticket::new(),
                probe: false,
            })
            .unwrap();
        };
        // A rollout lands between two coalescable ∇FD requests.
        push(0, ServeRequest::rollout("r", vec![], vec![], vec![], 4));
        push(1, ServeRequest::gradient("r", vec![], vec![], vec![]));
        push(2, ServeRequest::gradient("r", vec![], vec![], vec![]));

        // The rollout is most urgent and pops strictly alone …
        let batch = q.pop_batch(8).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].seq, 0);
        // … while the ∇FD requests behind it still coalesce normally.
        let batch = q.pop_batch(8).unwrap();
        let seqs: Vec<u64> = batch.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn gradient_batch_stops_at_a_queued_trajectory_request() {
        let mut q = EdfQueue::new(16);
        let base = Instant::now();
        let mut push = |seq: u64, req: ServeRequest| {
            q.try_push(Pending {
                deadline: Some(base + Duration::from_micros(100 + seq)),
                seq,
                req,
                enqueued: base,
                ticket: Ticket::new(),
                probe: false,
            })
            .unwrap();
        };
        push(0, ServeRequest::gradient("r", vec![], vec![], vec![]));
        push(1, ServeRequest::mixed("r", vec![], vec![], vec![]));
        push(2, ServeRequest::gradient("r", vec![], vec![], vec![]));

        let batch = q.pop_batch(8).unwrap();
        let seqs: Vec<u64> = batch.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![0], "coalescing halts at the mixed request");
        assert_eq!(q.pop_batch(8).unwrap()[0].seq, 1);
        assert_eq!(q.pop_batch(8).unwrap()[0].seq, 2);
    }
}
