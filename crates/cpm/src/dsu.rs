//! Disjoint-set union (union–find) with union by rank and path halving.
//!
//! The percolation sweep of [`crate::consume`] performs one monotone
//! pass over a single DSU: sets only ever merge as `k` decreases, which is
//! exactly the regime where union–find is (inverse-Ackermann) optimal.

/// A disjoint-set forest over `0..len`.
///
/// # Example
///
/// ```
/// use cpm::Dsu;
///
/// let mut dsu = Dsu::new(4);
/// assert!(dsu.union(0, 1));
/// assert!(!dsu.union(1, 0)); // already merged
/// assert!(dsu.same(0, 1));
/// assert!(!dsu.same(0, 2));
/// assert_eq!(dsu.set_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dsu {
    parent: Vec<u32>,
    rank: Vec<u8>,
    sets: usize,
}

impl Dsu {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        Dsu {
            parent: (0..len as u32).collect(),
            rank: vec![0; len],
            sets: len,
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

    /// Current number of disjoint sets.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Appends a fresh singleton set, returning its element id.
    pub fn push(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.rank.push(0);
        self.sets += 1;
        id
    }

    /// Representative of `x`'s set (with path halving).
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were
    /// previously distinct.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.sets -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut d = Dsu::new(3);
        assert_eq!(d.set_count(), 3);
        assert_eq!(d.find(2), 2);
        assert!(!d.same(0, 1));
    }

    #[test]
    fn chain_unions() {
        let mut d = Dsu::new(5);
        for i in 0..4 {
            assert!(d.union(i, i + 1));
        }
        assert_eq!(d.set_count(), 1);
        assert!(d.same(0, 4));
    }

    #[test]
    fn idempotent_union() {
        let mut d = Dsu::new(2);
        assert!(d.union(0, 1));
        assert!(!d.union(0, 1));
        assert_eq!(d.set_count(), 1);
    }

    #[test]
    fn empty_dsu() {
        let d = Dsu::new(0);
        assert!(d.is_empty());
        assert_eq!(d.set_count(), 0);
    }

    #[test]
    fn transitivity() {
        let mut d = Dsu::new(6);
        d.union(0, 1);
        d.union(2, 3);
        d.union(1, 2);
        assert!(d.same(0, 3));
        assert!(!d.same(0, 4));
        assert_eq!(d.set_count(), 3);
    }
}
