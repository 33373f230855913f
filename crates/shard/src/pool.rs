//! A small persistent worker pool for scatter-gather fan-out.
//!
//! Spawning a thread per access would dwarf the work being fanned out
//! (a shard partial is often a few page reads); the pool keeps `T`
//! long-lived workers pulling jobs off a shared queue. [`WorkerPool::scatter`]
//! takes one job per shard, runs the last one on the calling thread and
//! the rest on the pool, and blocks until **all** results are in,
//! returning them in submission order regardless of completion order —
//! the merge step depends on a stable shard → result mapping.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use parking_lot::Mutex;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed-size pool of worker threads with an ordered scatter primitive.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                thread::Builder::new()
                    .name(format!("shard-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the queue lock only for the dequeue, not
                        // while running the job.
                        let job = rx.lock().recv();
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // pool dropped
                        }
                    })
                    .expect("spawn shard worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Run every job and return their results **in job order**. Blocks
    /// until all jobs finish. The last job runs on the calling thread,
    /// which would otherwise sit idle waiting for the gather; the rest
    /// go to the pool. A panicking job does not poison the pool: the
    /// payload is captured where the job ran and re-raised here, on the
    /// caller, once every job has reported.
    pub fn scatter<R: Send + 'static>(
        &self,
        mut jobs: Vec<Box<dyn FnOnce() -> R + Send + 'static>>,
    ) -> Vec<R> {
        let n = jobs.len();
        let inline = jobs.pop();
        let (rtx, rrx) = channel::<(usize, thread::Result<R>)>();
        let tx = self.tx.as_ref().expect("pool is alive until dropped");
        for (idx, job) in jobs.into_iter().enumerate() {
            let rtx = rtx.clone();
            tx.send(Box::new(move || {
                let out = catch_unwind(AssertUnwindSafe(job));
                // The gather side may have bailed on an earlier panic;
                // a dead receiver is fine.
                let _ = rtx.send((idx, out));
            }))
            .expect("worker queue open");
        }
        drop(rtx);
        let mut slots: Vec<Option<thread::Result<R>>> = (0..n).map(|_| None).collect();
        if let Some(job) = inline {
            slots[n - 1] = Some(catch_unwind(AssertUnwindSafe(job)));
        }
        for _ in 1..n {
            let (idx, out) = rrx.recv().expect("every scattered job reports");
            slots[idx] = Some(out);
        }
        slots
            .into_iter()
            .map(|slot| match slot.expect("all result slots filled") {
                Ok(r) => r,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel makes every worker's recv fail and exit.
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_returns_results_in_job_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16)
            .map(|i| {
                let f: Box<dyn FnOnce() -> usize + Send> = Box::new(move || {
                    // Finish out of submission order.
                    std::thread::sleep(std::time::Duration::from_millis(((16 - i) % 5) as u64));
                    i * i
                });
                f
            })
            .collect();
        let got = pool.scatter(jobs);
        assert_eq!(got, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn a_lone_job_runs_on_the_calling_thread() {
        let pool = WorkerPool::new(2);
        let caller = thread::current().id();
        let one: Vec<Box<dyn FnOnce() -> thread::ThreadId + Send>> =
            vec![Box::new(|| thread::current().id())];
        assert_eq!(pool.scatter(one), vec![caller], "no thread hop");
        // Of several jobs only the last stays on the caller.
        let three: Vec<Box<dyn FnOnce() -> thread::ThreadId + Send>> = (0..3)
            .map(|_| {
                let f: Box<dyn FnOnce() -> thread::ThreadId + Send> =
                    Box::new(|| thread::current().id());
                f
            })
            .collect();
        let ran_on = pool.scatter(three);
        assert_ne!(ran_on[0], caller);
        assert_ne!(ran_on[1], caller);
        assert_eq!(ran_on[2], caller);
    }

    #[test]
    fn a_panicking_inline_job_re_raises_on_the_caller() {
        let pool = WorkerPool::new(1);
        let bad: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| panic!("inline failed"))];
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.scatter(bad)));
        assert!(outcome.is_err(), "panic must surface on the caller");
        let ok: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 1), Box::new(|| 2)];
        assert_eq!(pool.scatter(ok), vec![1, 2]);
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = WorkerPool::new(2);
        let bad: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| panic!("job failed")), Box::new(|| 7)];
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.scatter(bad)));
        assert!(outcome.is_err(), "panic must surface on the caller");
        // The pool still works after the panic.
        let ok: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 1), Box::new(|| 2)];
        assert_eq!(pool.scatter(ok), vec![1, 2]);
    }
}
