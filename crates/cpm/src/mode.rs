//! The percolation mode vocabulary and the almost-mode divergence
//! oracle.
//!
//! Both modes run one engine ([`crate::consume`]). [`Mode::Almost`]
//! follows Baudin, Magnien & Tabourier's memory-efficient CPM
//! (arXiv:2110.01213): two k-cliques are adjacent iff they share a
//! (k−1)-clique, so keying shared vertices and edges to last-seen owners
//! reaches the low levels without any overlap counting, while exact
//! small-clique counting and a one-shot subsumption prepass over the
//! big cliques cover everything from `k = 4` up. Every almost-mode
//! union is witnessed by an overlap ≥ k−1 (the keys are the vertices
//! and edges themselves, so no two keys collide), so a miss can only
//! *split* a community, never invent one: almost covers are always
//! refinements of exact ones. [`Mode::Exact`] is almost mode plus a
//! per-level certification pass that finds every pair the engine does
//! not count — each involves a big clique and shares only hub vertices
//! — so its covers are the exact k-clique communities by construction.
//! [`divergence`] quantifies the gap between the two, and the property
//! tests plus the CI `mode-cross-check` job hold it at **zero** on every
//! InternetModel preset.

use crate::result::CpmResult;
use std::fmt;
use std::str::FromStr;

/// How the one percolation engine ([`crate::consume`]) detects
/// adjacent cliques — the single mode vocabulary of every path that runs
/// it, graph or clique-log source alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// The exact k-clique communities: almost mode plus the per-level
    /// certification pass.
    #[default]
    Exact,
    /// Almost-exact (k−1)-clique-key unions: last-owner keys, exact
    /// small-clique counting and the subsumption prepass, without the
    /// certification pass. May split (never merge) communities relative
    /// to [`Mode::Exact`]; see the module docs for the bound and
    /// [`divergence`] for measurement.
    Almost,
}

impl Mode {
    /// The CLI/JSON spelling (`"exact"` / `"almost"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Exact => "exact",
            Mode::Almost => "almost",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Mode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(Mode::Exact),
            "almost" => Ok(Mode::Almost),
            other => Err(format!("unknown mode '{other}' (expected exact|almost)")),
        }
    }
}

/// Per-level comparison of an exact and an almost percolation of the
/// same graph, as produced by [`divergence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelDivergence {
    /// The percolation level.
    pub k: u32,
    /// Communities in the exact result.
    pub exact_communities: usize,
    /// Communities in the almost result.
    pub almost_communities: usize,
    /// Exact communities with no member-identical almost counterpart.
    pub unmatched_exact: usize,
    /// Almost communities with no member-identical exact counterpart
    /// (splits of an unmatched exact community).
    pub unmatched_almost: usize,
    /// Total membership slots inside unmatched communities, both sides
    /// — the size of the region where the covers disagree.
    pub moved_members: usize,
}

impl LevelDivergence {
    /// Whether this level's covers are identical.
    pub fn is_zero(&self) -> bool {
        self.unmatched_exact == 0
            && self.unmatched_almost == 0
            && self.exact_communities == self.almost_communities
    }
}

/// The definitional oracle's divergence report: how far an almost-mode
/// result is from the exact one, level by level.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Divergence {
    /// One entry per level present in either result, ascending k.
    pub levels: Vec<LevelDivergence>,
}

impl Divergence {
    /// Whether the two results have identical community covers at every
    /// level (the expected verdict on InternetModel substrates).
    pub fn is_zero(&self) -> bool {
        self.levels.iter().all(LevelDivergence::is_zero)
    }

    /// Total unmatched communities across levels (exact + almost side).
    pub fn total_unmatched(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.unmatched_exact + l.unmatched_almost)
            .sum()
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "zero divergence across {} levels", self.levels.len());
        }
        for l in &self.levels {
            if !l.is_zero() {
                writeln!(
                    f,
                    "k={}: exact {} vs almost {} communities, unmatched {}+{}, {} members moved",
                    l.k,
                    l.exact_communities,
                    l.almost_communities,
                    l.unmatched_exact,
                    l.unmatched_almost,
                    l.moved_members
                )?;
            }
        }
        Ok(())
    }
}

/// Quantifies how an almost-mode result diverges from the exact one:
/// community-count and membership deltas per level (zero expected on
/// InternetModel substrates; almost mode can only split communities,
/// so any unmatched exact community reappears as ≥ 2 unmatched almost
/// fragments).
pub fn divergence(exact: &CpmResult, almost: &CpmResult) -> Divergence {
    let k_hi = exact.k_max().unwrap_or(1).max(almost.k_max().unwrap_or(1));
    let mut levels = Vec::new();
    for k in 2..=k_hi {
        let e = exact.cover(k);
        let a = almost.cover(k);
        // Sorted two-pointer set difference over member lists.
        let (mut i, mut j) = (0usize, 0usize);
        let (mut ue, mut ua, mut moved) = (0usize, 0usize, 0usize);
        while i < e.len() || j < a.len() {
            if j == a.len() || (i < e.len() && e[i] < a[j]) {
                ue += 1;
                moved += e[i].len();
                i += 1;
            } else if i == e.len() || a[j] < e[i] {
                ua += 1;
                moved += a[j].len();
                j += 1;
            } else {
                i += 1;
                j += 1;
            }
        }
        levels.push(LevelDivergence {
            k,
            exact_communities: e.len(),
            almost_communities: a.len(),
            unmatched_exact: ue,
            unmatched_almost: ua,
            moved_members: moved,
        });
    }
    Divergence { levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::Graph;

    #[test]
    fn mode_round_trips_through_strings() {
        assert_eq!("exact".parse::<Mode>().unwrap(), Mode::Exact);
        assert_eq!("almost".parse::<Mode>().unwrap(), Mode::Almost);
        assert!("fast".parse::<Mode>().is_err());
        assert_eq!(Mode::Almost.to_string(), "almost");
        assert_eq!(Mode::default(), Mode::Exact);
    }

    #[test]
    fn divergence_reports_splits() {
        // Doctor an almost result: split one community in two.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]);
        let exact = crate::percolate(&g);
        let mut forged = crate::percolate(&g);
        let l3 = forged.levels.iter_mut().find(|l| l.k == 3).unwrap();
        let whole = l3.communities.remove(0);
        let mut left = whole.clone();
        let mut right = whole.clone();
        left.members = vec![0, 1, 2, 3];
        right.members = vec![2, 3, 4];
        l3.communities.push(left);
        l3.communities.push(right);
        let d = divergence(&exact, &forged);
        assert!(!d.is_zero());
        let dl3 = d.levels.iter().find(|l| l.k == 3).unwrap();
        assert_eq!(dl3.exact_communities, 1);
        assert_eq!(dl3.almost_communities, 2);
        assert_eq!(dl3.unmatched_exact, 1);
        assert_eq!(dl3.unmatched_almost, 2);
        assert_eq!(dl3.moved_members, 5 + 4 + 3);
        assert_eq!(d.total_unmatched(), 3);
        assert!(d.to_string().contains("k=3"));
    }
}
