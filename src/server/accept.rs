//! The dispatch layer under the evented front ends: a fixed pool of
//! worker threads draining one queue of ready-to-run jobs. The event
//! loop ([`super::event`]) owns every socket and parses requests
//! incrementally; only *complete* requests are boxed up as jobs and
//! queued here, so a worker is never parked on a slow client — the pool
//! size bounds concurrent request execution, not connection count.
//!
//! The queue is a `Mutex<VecDeque<Job>>` plus a `Condvar`: idle workers
//! wait on the condvar (which releases the lock), and a submit wakes
//! exactly one of them, so a job costs one wake. No job runs under the
//! lock.
//!
//! **Poisoning.** The lock guards only the queue, which every push and
//! pop leaves valid, and no job runs while it is held, so a poisoned
//! lock's data is taken as it is (`PoisonError::into_inner`), as the
//! catalog does with its own locks. A panic inside a request's handler
//! never reaches the worker: the event loop's job catches it and answers
//! `500`/`internal`.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;

/// One complete request's execution, state and reply path captured.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Set by [`DispatchPool::join`]: workers exit once the queue is empty.
    closed: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
}

/// A clonable handle for submitting jobs (the event loop keeps one).
#[derive(Clone)]
pub(crate) struct JobQueue(Arc<Shared>);

impl JobQueue {
    /// Queue `job` and wake one idle worker, if any is waiting.
    pub(crate) fn submit(&self, job: Job) {
        self.0.queue.lock().unwrap_or_else(PoisonError::into_inner).jobs.push_back(job);
        self.0.ready.notify_one();
    }
}

pub(crate) struct DispatchPool {
    queue: JobQueue,
    workers: Vec<thread::JoinHandle<()>>,
}

impl DispatchPool {
    /// Start `workers` worker threads named `{name}-worker-{i}`.
    pub(crate) fn start(name: &str, workers: usize) -> DispatchPool {
        let queue = JobQueue(Arc::default());
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&queue.0);
                thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        DispatchPool { queue, workers: worker_handles }
    }

    pub(crate) fn queue(&self) -> JobQueue {
        self.queue.clone()
    }

    /// Close the queue and join every worker; jobs already queued still
    /// run. Submit nothing after this (the event loop has exited by then).
    pub(crate) fn join(&mut self) {
        self.queue.0.queue.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.queue.0.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            job();
            queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        } else if queue.closed {
            break;
        } else {
            queue = shared.ready.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    /// Voluntary context switches summed over this process's threads
    /// whose name starts with `prefix` (the kernel keeps the first 15
    /// bytes of a thread name).
    fn voluntary_switches(prefix: &str) -> u64 {
        let field = |status: &str, key: &str| {
            status.lines().find_map(|l| l.strip_prefix(key)).map(|v| v.trim().to_string())
        };
        std::fs::read_dir("/proc/self/task")
            .expect("procfs is mounted")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
            .filter(|status| field(status, "Name:").is_some_and(|n| n.starts_with(prefix)))
            .filter_map(|status| field(&status, "voluntary_ctxt_switches:")?.parse::<u64>().ok())
            .sum()
    }

    /// Jobs submitted one at a time to an idle pool wake one worker each:
    /// the worker sleeps once per job. A worker holding the queue lock
    /// across its wait would also wake the next idle worker just to park
    /// it on the lock (2 switches per job).
    #[test]
    fn an_idle_pool_wakes_one_worker_per_job() {
        const JOBS: u32 = 200;
        for (name, workers) in [("wake2", 2), ("wake4", 4)] {
            let mut pool = DispatchPool::start(name, workers);
            let queue = pool.queue();
            let prefix = format!("{name}-worker-");
            let done = Arc::new(AtomicU32::new(0));
            let before = voluntary_switches(&prefix);
            for k in 1..=JOBS {
                let (ran, test) = (Arc::clone(&done), thread::current());
                queue.submit(Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    test.unpark();
                }));
                while done.load(Ordering::SeqCst) < k {
                    thread::park();
                }
                // Let the worker go back to waiting, as between requests.
                thread::sleep(Duration::from_millis(1));
            }
            let per_job = (voluntary_switches(&prefix) - before) as f64 / f64::from(JOBS);
            pool.join();
            assert!(per_job <= 1.5, "{workers} workers: {per_job:.2} voluntary switches per job");
        }
    }
}
