//! Persistent work-stealing executor for the CPM pipeline.
//!
//! Every parallel phase of the pipeline — clique enumeration, the
//! finish-time pair passes, the sweep and extraction — runs on one
//! **persistent pool**, so no call pays thread startup or re-allocates
//! its scratch state from a cold heap:
//!
//! * [`Pool`] — lazily spawned worker threads that park on a condvar
//!   between jobs. A job is published once, workers wake, run it, and go
//!   back to sleep; the calling thread participates as worker 0, so
//!   `run(n, f)` costs `n − 1` wakeups, not `n` spawns.
//! * [`Worker::barrier`] — a reusable barrier for multi-phase jobs (the
//!   fused sweep merges level `k−1`, snapshots, then starts `k−2`
//!   without ever tearing the workers down).
//! * [`ScratchArena`] — one arena per worker slot, persisting across
//!   `run` calls. A phase asks for its scratch type
//!   ([`Worker::scratch_with`]) and gets the same allocation it used
//!   last time, warm.
//! * [`ChunkQueue`] — the atomic-counter chunk claim generalized from
//!   the `STEAL_CHUNK`/`OVERLAP_CHUNK`/`UNION_CHUNK` pattern: claims
//!   are contiguous index ranges, so chunk-ordered reassembly keeps
//!   parallel output bit-identical to sequential.
//! * [`Threads`] — `auto` resolves the worker count from the amount of
//!   work and the machine's parallelism, falling back to 1 below a
//!   per-site threshold so tiny inputs never pay parallel overhead.
//! * [`CancelToken`] — a cloneable cooperative-cancellation flag
//!   (explicit cancel, deadline, or SIGINT) polled at chunk boundaries
//!   via [`ChunkQueue::claim_unless`], so long phases stop cleanly
//!   without tearing down the pool.
//!
//! Parking uses `std::sync` primitives (`Mutex`/`Condvar`/`Barrier`)
//! directly.

mod absorb;
mod arena;
mod cancel;
mod pool;
mod queue;
mod task_queue;
mod threads;

pub use absorb::OrderedAbsorber;
pub use arena::ScratchArena;
pub use cancel::{CancelToken, Cancelled};
pub use pool::{Pool, Worker};
pub use queue::ChunkQueue;
pub use task_queue::{Pop, TaskQueue};
pub use threads::{available_parallelism, Threads};
