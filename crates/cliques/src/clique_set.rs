//! Result container for clique enumeration.

use crate::sink::CliqueConsumer;
use asgraph::NodeId;
use std::collections::BTreeMap;

/// A single clique: a sorted, duplicate-free list of node ids.
pub type Clique = Vec<NodeId>;

/// A collection of cliques in a flat arena (offsets + members), avoiding
/// one allocation per clique for multi-million-clique runs.
///
/// Cliques are stored with sorted members. Iteration order is insertion
/// order; [`CliqueSet::sort_canonical`] produces a deterministic order for
/// comparisons across algorithms.
///
/// # Example
///
/// ```
/// use cliques::CliqueSet;
///
/// let mut set = CliqueSet::new();
/// set.push(&[2, 0, 1]);
/// set.push(&[3, 4]);
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.get(0), &[0, 1, 2]); // members are sorted
/// assert_eq!(set.max_size(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CliqueSet {
    offsets: Vec<usize>,
    members: Vec<NodeId>,
}

impl CliqueSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        CliqueSet {
            offsets: vec![0],
            members: Vec::new(),
        }
    }

    /// Creates an empty set with room for roughly `cliques` cliques of
    /// `total_members` members overall.
    pub fn with_capacity(cliques: usize, total_members: usize) -> Self {
        let mut offsets = Vec::with_capacity(cliques + 1);
        offsets.push(0);
        CliqueSet {
            offsets,
            members: Vec::with_capacity(total_members),
        }
    }

    /// Appends a clique. Members are copied and sorted; duplicates within a
    /// single clique are deduplicated.
    pub fn push(&mut self, clique: &[NodeId]) {
        let start = self.members.len();
        self.members.extend_from_slice(clique);
        self.members[start..].sort_unstable();
        // Dedup in place within the new tail.
        let mut write = start;
        for read in start..self.members.len() {
            if read == start || self.members[read] != self.members[write - 1] {
                self.members[write] = self.members[read];
                write += 1;
            }
        }
        self.members.truncate(write);
        self.offsets.push(self.members.len());
    }

    /// Number of cliques.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the set holds no cliques.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th clique (sorted members).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> &[NodeId] {
        &self.members[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Size of the `i`-th clique.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn size(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Iterates over cliques as sorted member slices.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, i: 0 }
    }

    /// Size of the largest clique (0 when empty).
    pub fn max_size(&self) -> usize {
        (0..self.len()).map(|i| self.size(i)).max().unwrap_or(0)
    }

    /// Total members across all cliques (with multiplicity).
    pub fn total_members(&self) -> usize {
        self.members.len()
    }

    /// Histogram of clique sizes as sorted `(size, count)` pairs.
    ///
    /// This is the census behind the paper's §3 remark that 88 % of the
    /// 2.7 M maximal cliques fall in the `[18:28]` size band.
    pub fn size_histogram(&self) -> Vec<(usize, usize)> {
        let mut hist: BTreeMap<usize, usize> = BTreeMap::new();
        for i in 0..self.len() {
            *hist.entry(self.size(i)).or_insert(0) += 1;
        }
        hist.into_iter().collect()
    }

    /// Fraction of cliques whose size lies in `[lo, hi]` (inclusive).
    /// Returns 0.0 for an empty set.
    pub fn fraction_in_band(&self, lo: usize, hi: usize) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let in_band = (0..self.len())
            .filter(|&i| (lo..=hi).contains(&self.size(i)))
            .count();
        in_band as f64 / self.len() as f64
    }

    /// Sorts cliques into a canonical (lexicographic) order, for
    /// deterministic comparison of enumeration algorithms.
    pub fn sort_canonical(&mut self) {
        let mut cliques: Vec<Clique> = self.iter().map(<[NodeId]>::to_vec).collect();
        cliques.sort_unstable();
        let mut fresh = CliqueSet::with_capacity(cliques.len(), self.members.len());
        for c in &cliques {
            fresh.push(c);
        }
        *self = fresh;
    }

    /// Merges another set into this one (cliques appended).
    pub fn merge(&mut self, other: &CliqueSet) {
        for c in other.iter() {
            self.push(c);
        }
    }
}

/// Collecting is one way to consume the stream: each clique is appended
/// as [`CliqueSet::push`] would.
impl CliqueConsumer for CliqueSet {
    fn consume(&mut self, clique: &[NodeId]) {
        self.push(clique);
    }
}

impl<'a> IntoIterator for &'a CliqueSet {
    type Item = &'a [NodeId];
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<Clique> for CliqueSet {
    fn from_iter<I: IntoIterator<Item = Clique>>(iter: I) -> Self {
        let mut set = CliqueSet::new();
        for c in iter {
            set.push(&c);
        }
        set
    }
}

impl Extend<Clique> for CliqueSet {
    fn extend<I: IntoIterator<Item = Clique>>(&mut self, iter: I) {
        for c in iter {
            self.push(&c);
        }
    }
}

/// Iterator over the cliques of a [`CliqueSet`], produced by
/// [`CliqueSet::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a CliqueSet,
    i: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a [NodeId];

    fn next(&mut self) -> Option<Self::Item> {
        if self.i < self.set.len() {
            let c = self.set.get(self.i);
            self.i += 1;
            Some(c)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.set.len() - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_sorts_and_dedups() {
        let mut s = CliqueSet::new();
        s.push(&[5, 1, 3, 1]);
        assert_eq!(s.get(0), &[1, 3, 5]);
        assert_eq!(s.size(0), 3);
    }

    #[test]
    fn histogram_and_band() {
        let mut s = CliqueSet::new();
        s.push(&[0, 1]);
        s.push(&[2, 3]);
        s.push(&[0, 1, 2]);
        assert_eq!(s.size_histogram(), vec![(2, 2), (3, 1)]);
        assert!((s.fraction_in_band(2, 2) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.fraction_in_band(4, 9), 0.0);
    }

    #[test]
    fn empty_set() {
        let s = CliqueSet::new();
        assert!(s.is_empty());
        assert_eq!(s.max_size(), 0);
        assert_eq!(s.fraction_in_band(1, 10), 0.0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn canonical_sort_is_deterministic() {
        let mut a = CliqueSet::new();
        a.push(&[3, 4]);
        a.push(&[0, 1]);
        let mut b = CliqueSet::new();
        b.push(&[0, 1]);
        b.push(&[3, 4]);
        a.sort_canonical();
        b.sort_canonical();
        assert_eq!(a, b);
    }

    #[test]
    fn from_and_extend() {
        let mut s: CliqueSet = vec![vec![0, 1], vec![2, 3]].into_iter().collect();
        s.extend(vec![vec![4, 5, 6]]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.total_members(), 7);
    }

    #[test]
    fn merge_appends() {
        let mut a: CliqueSet = vec![vec![0, 1]].into_iter().collect();
        let b: CliqueSet = vec![vec![2, 3]].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn exact_size_iterator() {
        let s: CliqueSet = vec![vec![0], vec![1], vec![2]].into_iter().collect();
        let it = s.iter();
        assert_eq!(it.len(), 3);
    }
}
