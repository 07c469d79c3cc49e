//! Bounded, deadline-ordered admission queue.
//!
//! Capacity is a hard bound — a full queue gives the job back to the
//! caller (who turns it into a `queue_full` rejection) instead of growing.
//! Workers pop in earliest-deadline-first order, tie-broken by admission
//! sequence, so the EDF order is total and deterministic.

use crate::protocol::InferRequest;
use crate::Response;
use std::cmp::{Ordering as CmpOrdering, Reverse};
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};

/// Delivery callback: called exactly once with the request's response.
pub type Responder = Box<dyn FnOnce(Response) + Send + 'static>;

/// One admitted request waiting for (or holding) a worker.
pub(crate) struct Job {
    /// Admission sequence number (EDF tie-break; makes ordering total).
    pub seq: u64,
    /// Virtual cycle at which the request's budget expires.
    pub expiry_cycle: u64,
    /// The parsed request.
    pub request: InferRequest,
    /// One-shot response delivery.
    pub respond: Responder,
}

impl PartialEq for Job {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for Job {}
impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Job {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (self.expiry_cycle, self.seq).cmp(&(other.expiry_cycle, other.seq))
    }
}

struct Inner {
    heap: BinaryHeap<Reverse<Job>>,
    closed: bool,
    /// While held, workers block in [`AdmissionQueue::pop_group`] without taking
    /// jobs — the deterministic way tests fill the queue to a chosen depth.
    held: bool,
}

/// The bounded queue shared between the admission path and the workers.
pub(crate) struct AdmissionQueue {
    capacity: usize,
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl AdmissionQueue {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner { heap: BinaryHeap::new(), closed: false, held: false }),
            ready: Condvar::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().heap.len()
    }

    /// Tries to admit a job. On success returns the depth *after* the
    /// push; a full or closed queue returns the job to the caller.
    pub fn push(&self, job: Job) -> Result<usize, Job> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed || inner.heap.len() >= self.capacity {
            return Err(job);
        }
        inner.heap.push(Reverse(job));
        let depth = inner.heap.len();
        drop(inner);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocks for the earliest-deadline job, then greedily coalesces
    /// further queued jobs that are `compatible` with it — scanned in EDF
    /// order — until the group holds `max_images` requested images.
    /// Returns the group (EDF-ordered, the deadline-critical job first)
    /// and the depth after the pops, or `None` once closed and empty.
    ///
    /// Incompatible and overflow jobs go straight back into the heap, so
    /// a group pop never reorders what later pops observe. `max_images`
    /// of 0 or 1 disables coalescing: every group holds exactly one job.
    pub fn pop_group(
        &self,
        max_images: usize,
        compatible: impl Fn(&InferRequest, &InferRequest) -> bool,
    ) -> Option<(Vec<Job>, usize)> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if !inner.held {
                if let Some(Reverse(first)) = inner.heap.pop() {
                    let mut images = first.request.batch;
                    let mut group = vec![first];
                    if images < max_images {
                        // Drain to a sorted scan (min-heap pops are EDF
                        // order), keep what doesn't fit.
                        let mut keep: Vec<Job> = Vec::with_capacity(inner.heap.len());
                        while let Some(Reverse(job)) = inner.heap.pop() {
                            if images + job.request.batch <= max_images
                                && compatible(&group[0].request, &job.request)
                            {
                                images += job.request.batch;
                                group.push(job);
                            } else {
                                keep.push(job);
                            }
                        }
                        for job in keep {
                            inner.heap.push(Reverse(job));
                        }
                    }
                    let depth = inner.heap.len();
                    return Some((group, depth));
                }
                if inner.closed {
                    return None;
                }
            }
            inner = self.ready.wait(inner).unwrap();
        }
    }

    /// Holds or releases workers. While held, pops block even when jobs
    /// are queued; admissions continue normally.
    pub fn set_held(&self, held: bool) {
        self.inner.lock().unwrap().held = held;
        self.ready.notify_all();
    }

    /// True once [`AdmissionQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// Stops admissions; blocked workers drain the remainder then exit.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// Removes and returns every queued job (the shutdown hard-deadline
    /// path, which cancels them).
    pub fn drain_remaining(&self) -> Vec<Job> {
        let mut inner = self.inner.lock().unwrap();
        let mut jobs: Vec<Job> = Vec::with_capacity(inner.heap.len());
        while let Some(Reverse(job)) = inner.heap.pop() {
            jobs.push(job);
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_models::DatasetKind;

    fn job(seq: u64, expiry: u64) -> Job {
        Job {
            seq,
            expiry_cycle: expiry,
            request: InferRequest {
                id: format!("j{seq}"),
                dataset: DatasetKind::Digits,
                sample_seed: 0,
                batch: 1,
                deadline_cycles: None,
                poison: false,
            },
            respond: Box::new(|_| {}),
        }
    }

    #[test]
    fn pops_in_deadline_order_with_seq_tiebreak() {
        let q = AdmissionQueue::new(8);
        q.push(job(0, 300)).map_err(|_| ()).unwrap();
        q.push(job(1, 100)).map_err(|_| ()).unwrap();
        q.push(job(2, 100)).map_err(|_| ()).unwrap();
        q.push(job(3, 200)).map_err(|_| ()).unwrap();
        q.close();
        let order: Vec<u64> = std::iter::from_fn(|| {
            q.pop_group(1, |_, _| true).map(|(g, _)| {
                assert_eq!(g.len(), 1, "max_images 1 must not coalesce");
                g[0].seq
            })
        })
        .collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn pop_group_coalesces_compatible_jobs_in_deadline_order() {
        let q = AdmissionQueue::new(8);
        q.push(job(0, 300)).map_err(|_| ()).unwrap();
        q.push(job(1, 100)).map_err(|_| ()).unwrap();
        let mut incompatible = job(2, 150);
        incompatible.request.poison = true;
        q.push(incompatible).map_err(|_| ()).unwrap();
        q.push(job(3, 200)).map_err(|_| ()).unwrap();
        q.close();
        let compat = |a: &InferRequest, b: &InferRequest| !a.poison && !b.poison;
        // EDF-critical job 1 leads; 3 and 0 coalesce in EDF order; the
        // poison job is skipped and left queued.
        let (group, depth) = q.pop_group(8, compat).unwrap();
        let seqs: Vec<u64> = group.iter().map(|j| j.seq).collect();
        assert_eq!(seqs, vec![1, 3, 0]);
        assert_eq!(depth, 1);
        let (group, _) = q.pop_group(8, compat).unwrap();
        assert_eq!(group[0].seq, 2);
        assert!(q.pop_group(8, compat).is_none(), "closed and empty");
    }

    #[test]
    fn pop_group_respects_the_image_budget() {
        let q = AdmissionQueue::new(8);
        for seq in 0..4 {
            let mut j = job(seq, 100 + seq);
            j.request.batch = 2;
            q.push(j).map_err(|_| ()).unwrap();
        }
        q.close();
        // Budget of 5 images fits two 2-image jobs after the first.
        let (group, depth) = q.pop_group(5, |_, _| true).unwrap();
        assert_eq!(group.len(), 2);
        assert_eq!(depth, 2);
    }

    #[test]
    fn full_queue_returns_the_job() {
        let q = AdmissionQueue::new(2);
        assert!(q.push(job(0, 1)).is_ok());
        assert!(q.push(job(1, 1)).is_ok());
        let bounced = q.push(job(2, 1));
        assert!(bounced.is_err());
        assert_eq!(bounced.err().unwrap().seq, 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_rejects_and_unblocks() {
        let q = AdmissionQueue::new(2);
        q.close();
        assert!(q.push(job(0, 1)).is_err());
        assert!(q.pop_group(1, |_, _| true).is_none());
    }
}
