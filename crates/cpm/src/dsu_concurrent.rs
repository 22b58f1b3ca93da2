//! Lock-free disjoint-set union over atomic parent pointers.
//!
//! The pool-parallel finish of [`crate::FusedPercolator`] unions into
//! one partition per level, and merges each level's into the sweep's,
//! with several workers hammering one union–find. This is the
//! classic CAS-based structure (Anderson & Woll's lock-free union–find,
//! as used by every parallel connected-components kernel since):
//!
//! - `parent` is a `Vec<AtomicU32>`; an element is a root iff it is its
//!   own parent.
//! - **Union by index.** [`ConcurrentDsu::union`] links the *larger*
//!   root under the *smaller* via `compare_exchange(parent[hi], hi → lo)`.
//!   The CAS succeeding proves `hi` was still a root at that instant —
//!   that CAS is the linearization point of the merge. A failed CAS means
//!   another thread just linked `hi` (or compressed through it); the loop
//!   re-finds and retries. Because links always point to a strictly
//!   smaller index, the forest is acyclic by construction and the final
//!   root of every component is its **minimum member id** — a
//!   deterministic quantity, independent of how the racing unions
//!   interleaved. The sweep's snapshot phase relies on exactly this.
//! - **Path halving.** [`ConcurrentDsu::find`] shortcuts `x → grand(x)`
//!   with a relaxed-failure CAS; a lost race just skips one compression
//!   step, never corrupts the forest (the new parent is always an
//!   ancestor).
//!
//! Union by *index* costs the rank balancing of the sequential
//! [`crate::Dsu`] — worst-case a path chain — but path halving under
//! concurrent traffic keeps trees shallow in practice, and determinism
//! of the root is worth far more to this crate than the Ackermann bound:
//! it is what makes the parallel sweep bit-identical to the sequential
//! one at every thread count.
//!
//! Equivalence with the sequential `Dsu` is property-tested
//! (`tests/dsu.rs`), including multi-threaded stress runs that compare
//! the resulting partitions.

use std::sync::atomic::{AtomicU32, Ordering};

/// A lock-free disjoint-set forest over `0..len`, safe to share across
/// threads (`&self` methods only).
///
/// # Example
///
/// ```
/// use cpm::ConcurrentDsu;
///
/// let dsu = ConcurrentDsu::new(4);
/// assert!(dsu.union(2, 3));
/// assert!(!dsu.union(3, 2)); // already merged
/// assert!(dsu.same(2, 3));
/// // Union by index: the smallest member is always the root.
/// assert_eq!(dsu.find(3), 2);
/// assert_eq!(dsu.set_count(), 3);
/// ```
#[derive(Debug)]
pub struct ConcurrentDsu {
    parent: Vec<AtomicU32>,
}

impl ConcurrentDsu {
    /// Creates `len` singleton sets.
    ///
    /// # Panics
    ///
    /// Panics if `len` does not fit in `u32`.
    pub fn new(len: usize) -> Self {
        assert!(
            u32::try_from(len).is_ok(),
            "ConcurrentDsu indexes elements with u32, got len {len}"
        );
        ConcurrentDsu {
            parent: (0..len as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set, with racy path halving.
    ///
    /// Concurrent unions may move the representative while this runs; the
    /// returned id is some node that was `x`'s root at one point during
    /// the call (the usual lock-free contract). Once all unions have
    /// happened-before the call — the per-level barrier in the sweep —
    /// the result is exact and equals the component's minimum id.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize].load(Ordering::Acquire);
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize].load(Ordering::Acquire);
            if gp == p {
                return p;
            }
            // Halve: x → grandparent. The CAS may lose to a concurrent
            // compression or union; both install an ancestor of x, so
            // failure is benign and we simply continue from gp.
            let _ = self.parent[x as usize].compare_exchange_weak(
                p,
                gp,
                Ordering::Release,
                Ordering::Relaxed,
            );
            x = gp;
        }
    }

    /// Merges the sets of `a` and `b`; returns `true` if this call
    /// performed the merge (exactly one racing call does).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn union(&self, a: u32, b: u32) -> bool {
        let (mut a, mut b) = (a, b);
        loop {
            a = self.find(a);
            b = self.find(b);
            if a == b {
                return false;
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            // Linearization point: `hi` is linked under `lo` only if it
            // is still its own parent, i.e. still a root.
            if self.parent[hi as usize]
                .compare_exchange(hi, lo, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return true;
            }
            // Lost the race: hi gained a parent meanwhile. Retry from
            // the current pair.
            a = lo;
            b = hi;
        }
    }

    /// Whether `a` and `b` are in the same set.
    ///
    /// Exact under quiescence; under concurrent unions a `true` is always
    /// real, while a `false` means the two were separate at some instant
    /// during the call.
    pub fn same(&self, a: u32, b: u32) -> bool {
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return true;
            }
            // `ra` may have stopped being a root between the two finds;
            // only a still-rooted ra proves separation.
            if self.parent[ra as usize].load(Ordering::Acquire) == ra {
                return false;
            }
        }
    }

    /// Current number of disjoint sets (quiescent snapshot: call only
    /// when no unions are in flight).
    pub fn set_count(&self) -> usize {
        self.parent
            .iter()
            .enumerate()
            .filter(|(i, p)| p.load(Ordering::Acquire) == *i as u32)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let d = ConcurrentDsu::new(3);
        assert_eq!(d.set_count(), 3);
        assert_eq!(d.find(2), 2);
        assert!(!d.same(0, 1));
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn chain_unions_root_is_minimum() {
        let d = ConcurrentDsu::new(5);
        for i in (0..4).rev() {
            assert!(d.union(i + 1, i));
        }
        assert_eq!(d.set_count(), 1);
        for i in 0..5 {
            assert_eq!(d.find(i), 0, "min id is the root");
        }
    }

    #[test]
    fn idempotent_union() {
        let d = ConcurrentDsu::new(2);
        assert!(d.union(0, 1));
        assert!(!d.union(1, 0));
        assert_eq!(d.set_count(), 1);
    }

    #[test]
    fn empty_dsu() {
        let d = ConcurrentDsu::new(0);
        assert!(d.is_empty());
        assert_eq!(d.set_count(), 0);
    }

    #[test]
    fn transitivity() {
        let d = ConcurrentDsu::new(6);
        d.union(0, 1);
        d.union(2, 3);
        d.union(1, 2);
        assert!(d.same(0, 3));
        assert!(!d.same(0, 4));
        assert_eq!(d.set_count(), 3);
        assert_eq!(d.find(3), 0);
    }

    #[test]
    fn concurrent_unions_agree_with_sequential() {
        // A ladder of unions applied from several threads; the final
        // partition must match the sequential result and every root must
        // be its component's minimum.
        let n = 1024u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let d = ConcurrentDsu::new(n as usize);
        std::thread::scope(|scope| {
            for chunk in edges.chunks(64) {
                let d = &d;
                scope.spawn(move || {
                    for &(a, b) in chunk {
                        d.union(a, b);
                    }
                });
            }
        });
        assert_eq!(d.set_count(), 1);
        for i in 0..n {
            assert_eq!(d.find(i), 0);
        }
    }
}
