//! Cooperative cancellation: a shared flag that long phases poll at
//! chunk boundaries.
//!
//! Nothing in this workspace preempts a worker. Instead, every
//! long-running phase (clique enumeration, overlap counting, level
//! merges, stream replays) polls a [`CancelToken`] at its natural chunk
//! boundary — one atomic load per [`ChunkQueue`](crate::ChunkQueue)
//! claim or per emitted clique — and winds down cleanly when the token
//! trips: pool workers stop claiming chunks and run out through the
//! job's normal barrier protocol, so a cancelled `Pool::run` leaves the
//! pool reusable, and stream writers get the chance to flush their
//! current segment before returning.
//!
//! A token trips for one of three reasons:
//!
//! - [`CancelToken::cancel`] was called (any clone, any thread);
//! - its construction-time **deadline** passed (`--deadline <secs>`);
//! - the process received **SIGINT** and the token opted in via
//!   [`CancelToken::watch_sigint`] (Ctrl-C on a long run).
//!
//! All three latch: once [`CancelToken::is_cancelled`] returns `true`
//! it never returns `false` again.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The unit error a cancelled phase returns: the work was abandoned at
/// a chunk boundary, partial results were discarded (or, for stream
/// writers, flushed as durable segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cancelled before completion")
    }
}

impl std::error::Error for Cancelled {}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    watch_sigint: AtomicBool,
}

/// A cloneable cancellation flag with an optional deadline.
///
/// Clones share state: cancelling any clone cancels them all. Checking
/// is one relaxed atomic load (plus one `Instant::now()` when a
/// deadline is set), cheap enough to poll per work chunk.
///
/// # Example
///
/// ```
/// use exec::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// let shared = token.clone();
/// shared.cancel();
/// assert!(token.is_cancelled());
/// assert!(token.check().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A fresh token that only trips when [`cancel`](Self::cancel) is
    /// called.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// A token that additionally trips once `timeout` has elapsed from
    /// now. A zero timeout is already expired: the first check trips.
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::build(Instant::now().checked_add(timeout))
    }

    fn build(deadline: Option<Instant>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
                watch_sigint: AtomicBool::new(false),
            }),
        }
    }

    /// Trips the token (idempotent, latching, visible to every clone).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Also trip this token when the process receives SIGINT, and
    /// install the process-wide handler if nobody has yet.
    ///
    /// The handler only sets a flag (async-signal-safe) and then
    /// restores the default disposition, so a *second* Ctrl-C
    /// force-kills the process the classic way if the cooperative
    /// shutdown hangs. On non-Unix targets this marks the token but
    /// installs nothing.
    pub fn watch_sigint(&self) {
        install_sigint_handler();
        self.inner.watch_sigint.store(true, Ordering::Relaxed);
    }

    /// True once the token has tripped for any reason. Latching.
    pub fn is_cancelled(&self) -> bool {
        let inner = &*self.inner;
        if inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if inner.watch_sigint.load(Ordering::Relaxed) && SIGINT_RECEIVED.load(Ordering::Relaxed) {
            inner.cancelled.store(true, Ordering::Relaxed);
            return true;
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                inner.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// [`is_cancelled`](Self::is_cancelled) as a `Result`, for `?`
    /// threading through phase boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] once the token has tripped.
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// Set by the SIGINT handler; consulted by every token that called
/// [`CancelToken::watch_sigint`].
static SIGINT_RECEIVED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigint_handler() {
    use std::sync::Once;

    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;
    extern "C" {
        /// POSIX `signal(2)`; declared directly so the workspace stays
        /// free of external crates.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_sigint(_signum: i32) {
        // Only async-signal-safe operations here: an atomic store and
        // re-arming the default disposition so a second Ctrl-C kills.
        SIGINT_RECEIVED.store(true, Ordering::Relaxed);
        // SAFETY: `signal` with SIG_DFL is async-signal-safe per POSIX.
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }

    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        // SAFETY: the handler above performs only async-signal-safe
        // work, and installation is serialized by `Once`.
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    });
}

#[cfg(not(unix))]
fn install_sigint_handler() {
    // No portable std hook; tokens still trip via cancel()/deadline.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
    }

    #[test]
    fn cancel_latches_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
        assert!(c.is_cancelled());
        assert_eq!(t.check(), Err(Cancelled));
        // Still cancelled on every later check.
        assert!(t.is_cancelled());
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
    }

    #[test]
    fn distant_deadline_does_not_trip() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
    }

    #[test]
    fn short_deadline_trips_after_elapsing() {
        let t = CancelToken::with_deadline(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(20));
        assert!(t.is_cancelled());
    }

    #[test]
    fn independent_tokens_do_not_interfere() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }

    #[test]
    fn cancelled_error_displays() {
        assert_eq!(Cancelled.to_string(), "cancelled before completion");
    }
}
