//! The persistent pool: parked worker threads, epoch-published jobs.
//!
//! # Parking protocol
//!
//! Workers sleep on a single `Condvar`. Publishing a job takes the
//! state lock, bumps the **epoch**, stores the type-erased job, and
//! `notify_all`s. Each worker remembers the last epoch it saw: a wakeup
//! with an unseen epoch means "new job" (run it if this slot
//! participates), a wakeup with a seen epoch is spurious (sleep again).
//! The epoch is what lets the job stay published while workers run —
//! a worker can never execute the same job twice, so there is no
//! "claimed" flag to clear and no ABA hazard on the job slot.
//!
//! The calling thread never parks: it participates as worker 0, so a
//! `run(n, f)` costs `n − 1` condvar wakeups of already-warm threads,
//! not `n` thread spawns and joins.
//!
//! Completion is signalled on a second condvar: each participating
//! worker decrements `running`; the publisher waits for zero before
//! retiring the job. That wait is also the safety fence that lets the
//! job borrow the caller's closure by raw pointer (see `SAFETY` notes).

use crate::arena::ScratchArena;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Type-erased trampoline: (closure, worker index, worker count,
/// barrier, arena).
type Call = unsafe fn(*const (), usize, usize, &Barrier, &mut ScratchArena);

/// A raw pointer to the caller's closure, made `Send` so the job can
/// cross into worker threads.
#[derive(Clone, Copy)]
struct Data(*const ());
// SAFETY: the pointee is a `&F` with `F: Sync`, and `Pool::run` blocks
// until every worker has finished calling it, so sharing the reference
// across threads for the job's duration is sound.
unsafe impl Send for Data {}

#[derive(Clone)]
struct Job {
    call: Call,
    data: Data,
    workers: usize,
    barrier: Arc<Barrier>,
    epoch: u64,
}

struct State {
    job: Option<Job>,
    epoch: u64,
    /// Participating pool workers still executing the published job.
    running: usize,
    panicked: bool,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Workers park here; notified on job publication and shutdown.
    work: Condvar,
    /// The publisher parks here; notified when `running` hits zero.
    done: Condvar,
}

/// A persistent team of parked worker threads.
///
/// Threads are spawned lazily — a pool that only ever runs
/// single-worker jobs spawns none — and persist until the pool is
/// dropped, each owning a [`ScratchArena`] that survives across jobs.
/// Most callers want the process-wide [`Pool::global`].
///
/// Jobs are *scoped*: [`run`](Pool::run) does not return until every
/// worker has finished, so the closure may borrow from the caller's
/// stack.
///
/// `run` must not be called from inside a job on the same pool — the
/// submission lock is not reentrant and the nested call would deadlock.
/// Phases compose sequentially (enumerate, then overlap, then sweep),
/// not by nesting.
pub struct Pool {
    inner: Arc<Inner>,
    /// Serializes concurrent `run` calls: one job in flight at a time.
    submit: Mutex<()>,
    /// Worker 0 (the calling thread, whichever thread that is) gets a
    /// stable arena slot too.
    caller_arena: Mutex<ScratchArena>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// A new pool with no threads spawned yet.
    pub fn new() -> Self {
        Pool {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    job: None,
                    epoch: 0,
                    running: 0,
                    panicked: false,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            submit: Mutex::new(()),
            caller_arena: Mutex::new(ScratchArena::new()),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide pool shared by every parallel phase of the
    /// pipeline. Using one pool everywhere is the point: the enumerate,
    /// overlap, sweep, and streaming phases all reuse the same warm
    /// threads and the same scratch arenas.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(Pool::new)
    }

    /// Number of worker threads spawned so far (grows on demand, never
    /// shrinks; excludes the calling thread).
    pub fn spawned_threads(&self) -> usize {
        self.handles.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Runs `f` inline on the calling thread as a single-worker job and
    /// returns its result.
    ///
    /// This is the sequential fallback the auto heuristic routes small
    /// inputs through: no pool machinery, but the closure still gets
    /// worker 0's persistent [`ScratchArena`], so even sequential calls
    /// reuse warm scratch buffers.
    pub fn leader<R>(&self, f: impl FnOnce(Worker<'_>) -> R) -> R {
        let mut arena = self.caller_arena.lock().unwrap_or_else(|e| e.into_inner());
        let barrier = Barrier::new(1);
        f(Worker {
            index: 0,
            count: 1,
            barrier: &barrier,
            arena: &mut arena,
        })
    }

    /// Runs `f` once on each of `workers` logical workers — worker 0 on
    /// the calling thread, the rest on pool threads — and returns when
    /// all have finished.
    ///
    /// Worker indices are `0..workers` and stable: index `i` always
    /// maps to the same arena, so scratch state warmed by one call is
    /// found by the next. [`Worker::barrier`] synchronizes phases
    /// within the job; all `workers` workers must reach it.
    ///
    /// `workers == 1` short-circuits: `f` runs inline on the caller
    /// (with worker 0's arena) and no pool machinery is touched.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`, or propagates a panic from `f` (the
    /// caller's own panic payload takes precedence; a pool worker's
    /// panic surfaces as `"pool worker panicked"`). A panicking job
    /// must not leave peers blocked at a [`Worker::barrier`].
    pub fn run<F>(&self, workers: usize, f: F)
    where
        F: Fn(Worker<'_>) + Sync,
    {
        assert!(workers > 0, "need at least one thread");
        if workers == 1 {
            self.leader(&f);
            return;
        }

        let submit = self.submit.lock().unwrap_or_else(|e| e.into_inner());
        self.ensure_spawned(workers - 1);
        let barrier = Arc::new(Barrier::new(workers));

        /// Recovers the concrete closure type on the worker side.
        unsafe fn trampoline<F: Fn(Worker<'_>) + Sync>(
            data: *const (),
            index: usize,
            count: usize,
            barrier: &Barrier,
            arena: &mut ScratchArena,
        ) {
            // SAFETY: `data` is the `&f` published by the `run` call
            // below, which does not return (or unwind) until every
            // participating worker has finished this trampoline.
            let f = unsafe { &*(data as *const F) };
            f(Worker {
                index,
                count,
                barrier,
                arena,
            });
        }

        {
            let mut s = self.inner.state.lock().unwrap();
            s.epoch += 1;
            s.running = workers - 1;
            s.panicked = false;
            s.job = Some(Job {
                call: trampoline::<F>,
                data: Data(&f as *const F as *const ()),
                workers,
                barrier: Arc::clone(&barrier),
                epoch: s.epoch,
            });
            self.inner.work.notify_all();
        }

        // The caller is worker 0. Catch its panic so we still wait for
        // the pool workers before unwinding — `f` must outlive them.
        let caller = catch_unwind(AssertUnwindSafe(|| {
            let mut arena = self.caller_arena.lock().unwrap_or_else(|e| e.into_inner());
            f(Worker {
                index: 0,
                count: workers,
                barrier: &barrier,
                arena: &mut arena,
            });
        }));

        let worker_panicked = {
            let mut s = self.inner.state.lock().unwrap();
            while s.running > 0 {
                s = self.inner.done.wait(s).unwrap();
            }
            s.job = None;
            s.panicked
        };
        drop(submit);

        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("pool worker panicked");
        }
    }

    /// Spawns worker threads up to `wanted` total.
    fn ensure_spawned(&self, wanted: usize) {
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        while handles.len() < wanted {
            let slot = handles.len();
            let inner = Arc::clone(&self.inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("exec-{slot}"))
                    .spawn(move || worker_loop(&inner, slot))
                    .expect("failed to spawn pool worker"),
            );
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut s = self.inner.state.lock().unwrap();
            s.shutdown = true;
        }
        self.inner.work.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// The body of pool thread `slot` (worker index `slot + 1`).
fn worker_loop(inner: &Inner, slot: usize) {
    let mut arena = ScratchArena::new();
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut s = inner.state.lock().unwrap();
            loop {
                if s.shutdown {
                    return;
                }
                if let Some(job) = &s.job {
                    if job.epoch != seen_epoch {
                        // Mark the epoch seen either way, so a wakeup
                        // for a job this slot sits out is not rechecked.
                        seen_epoch = job.epoch;
                        if slot + 1 < job.workers {
                            break job.clone();
                        }
                    }
                }
                s = inner.work.wait(s).unwrap();
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: the publisher blocks until `running` reaches
            // zero, which happens only after this call returns, so
            // `job.data` is live for the whole call.
            unsafe { (job.call)(job.data.0, slot + 1, job.workers, &job.barrier, &mut arena) }
        }));
        let mut s = inner.state.lock().unwrap();
        if result.is_err() {
            s.panicked = true;
        }
        s.running -= 1;
        if s.running == 0 {
            inner.done.notify_all();
        }
    }
}

/// One logical worker inside a [`Pool::run`] job: its index, the team
/// size, the job's phase barrier, and this slot's persistent scratch
/// arena.
pub struct Worker<'a> {
    index: usize,
    count: usize,
    barrier: &'a Barrier,
    arena: &'a mut ScratchArena,
}

impl Worker<'_> {
    /// This worker's index in `0..count()`. Index 0 is the calling
    /// thread.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of workers in this job.
    pub fn count(&self) -> usize {
        self.count
    }

    /// True for worker 0 — the conventional owner of the job's
    /// sequential sections (snapshots between barrier phases).
    pub fn is_leader(&self) -> bool {
        self.index == 0
    }

    /// Blocks until all `count()` workers of this job have called
    /// `barrier()`. Reusable: call it once per phase boundary.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// This worker slot's scratch of type `T`, constructed on first use
    /// and persisting across jobs (see [`ScratchArena`]).
    pub fn scratch_with<T: Any + Send>(&mut self, init: impl FnOnce() -> T) -> &mut T {
        self.arena.get_or_insert_with(init)
    }

    /// The slot's whole arena, for callers juggling several scratch
    /// types at once.
    pub fn arena(&mut self) -> &mut ScratchArena {
        self.arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ChunkQueue;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_worker_exactly_once() {
        let pool = Pool::new();
        let hits = [const { AtomicUsize::new(0) }; 4];
        pool.run(4, |w| {
            hits[w.index()].fetch_add(1, Ordering::Relaxed);
            assert_eq!(w.count(), 4);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "worker {i}");
        }
        assert_eq!(pool.spawned_threads(), 3);
    }

    #[test]
    fn threads_spawn_lazily_and_grow_on_demand() {
        let pool = Pool::new();
        assert_eq!(pool.spawned_threads(), 0);
        pool.run(1, |_| {});
        assert_eq!(
            pool.spawned_threads(),
            0,
            "single-worker jobs spawn nothing"
        );
        pool.run(3, |_| {});
        assert_eq!(pool.spawned_threads(), 2);
        pool.run(2, |_| {});
        assert_eq!(
            pool.spawned_threads(),
            2,
            "smaller jobs reuse, never shrink"
        );
        pool.run(5, |_| {});
        assert_eq!(pool.spawned_threads(), 4);
    }

    #[test]
    fn barrier_separates_phases() {
        let pool = Pool::new();
        const W: usize = 4;
        let wrote = [const { AtomicUsize::new(0) }; W];
        pool.run(W, |w| {
            wrote[w.index()].store(w.index() + 1, Ordering::SeqCst);
            w.barrier();
            // After the barrier every worker sees every phase-1 write.
            for (i, v) in wrote.iter().enumerate() {
                assert_eq!(v.load(Ordering::SeqCst), i + 1, "worker {}", w.index());
            }
            w.barrier();
            // Reusable: a second phase boundary on the same barrier.
            wrote[w.index()].store(0, Ordering::SeqCst);
            w.barrier();
            for v in &wrote {
                assert_eq!(v.load(Ordering::SeqCst), 0);
            }
        });
    }

    #[test]
    fn scratch_arenas_persist_across_jobs() {
        let pool = Pool::new();
        let builds = AtomicUsize::new(0);
        for round in 0..3usize {
            pool.run(3, |mut w| {
                let idx = w.index();
                let v = w.scratch_with(|| {
                    builds.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                });
                assert_eq!(v.len(), round, "worker {idx} lost its scratch");
                v.push(idx);
            });
        }
        // One construction per worker slot, ever — not per job.
        assert_eq!(builds.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn caller_slot_arena_is_stable_across_worker_counts() {
        let pool = Pool::new();
        pool.run(1, |mut w| {
            w.scratch_with(Vec::<u8>::new).push(42);
        });
        pool.run(4, |mut w| {
            if w.is_leader() {
                // The single-worker fast path and worker 0 of a full
                // job share the same arena slot.
                assert_eq!(w.scratch_with(Vec::<u8>::new).as_slice(), &[42]);
            }
        });
    }

    #[test]
    fn chunk_queue_partitions_work_across_the_pool() {
        let pool = Pool::new();
        let q = ChunkQueue::new(100_000, 64);
        let sum = AtomicUsize::new(0);
        pool.run(4, |_| {
            let mut local = 0usize;
            while let Some(r) = q.claim() {
                local += r.sum::<usize>();
            }
            sum.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 100_000 * 99_999 / 2);
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let pool = Pool::new();
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, |w| {
                if w.index() == 1 {
                    panic!("boom in worker");
                }
            });
        }));
        assert!(r.is_err());
        // The pool survives a panicking job.
        let ran = AtomicUsize::new(0);
        pool.run(2, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn caller_panic_keeps_its_payload() {
        let pool = Pool::new();
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, |w| {
                if w.is_leader() {
                    panic!("caller payload");
                }
            });
        }));
        let payload = r.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "caller payload");
    }

    #[test]
    #[should_panic(expected = "need at least one thread")]
    fn zero_workers_panics() {
        Pool::new().run(0, |_| {});
    }

    #[test]
    fn global_pool_is_shared() {
        let a = Pool::global() as *const Pool;
        let b = Pool::global() as *const Pool;
        assert_eq!(a, b);
    }

    #[test]
    fn many_successive_jobs_reuse_the_same_threads() {
        let pool = Pool::new();
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(4, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 800);
        assert_eq!(pool.spawned_threads(), 3, "no thread leak across jobs");
    }
}
