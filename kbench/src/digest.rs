//! Correctness gates over community covers: a digest that ignores
//! internal ids and community order, Theorem-1 nesting, and refinement
//! of one cover by another.

use std::collections::HashMap;

/// One level of a multi-k community cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Level {
    /// Clique order.
    pub k: u32,
    /// Sorted member lists.
    pub communities: Vec<Vec<u32>>,
    /// Index of each community's parent one level down (`None` at the
    /// bottom level).
    pub parents: Vec<Option<u32>>,
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty hash.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds one 32-bit word.
    pub fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Digest of a cover over external AS numbers: each community's members
/// are mapped through `asn` and sorted, each level's communities are
/// sorted, and levels go in ascending `k`. Renumbering the vertices
/// (with `asn` renumbered to match) or reordering communities leaves
/// the digest unchanged.
pub fn cover_digest(levels: &[Level], asn: impl Fn(u32) -> u32) -> u64 {
    let mut h = Fnv::new();
    let mut sorted: Vec<&Level> = levels.iter().collect();
    sorted.sort_by_key(|l| l.k);
    for level in sorted {
        let mut comms: Vec<Vec<u32>> = level
            .communities
            .iter()
            .map(|c| {
                let mut m: Vec<u32> = c.iter().map(|&v| asn(v)).collect();
                m.sort_unstable();
                m
            })
            .collect();
        comms.sort_unstable();
        h.word(level.k);
        h.word(comms.len() as u32);
        for c in &comms {
            h.word(c.len() as u32);
            for &m in c {
                h.word(m);
            }
        }
    }
    h.finish()
}

/// Digest of an edge set given as AS-number pairs (any order and
/// orientation).
pub fn edge_digest(mut pairs: Vec<(u32, u32)>) -> u64 {
    for p in &mut pairs {
        *p = (p.0.min(p.1), p.0.max(p.1));
    }
    pairs.sort_unstable();
    let mut h = Fnv::new();
    h.word(pairs.len() as u32);
    for (a, b) in pairs {
        h.word(a);
        h.word(b);
    }
    h.finish()
}

fn subset(small: &[u32], big: &[u32]) -> bool {
    let mut j = 0;
    for &x in small {
        while j < big.len() && big[j] < x {
            j += 1;
        }
        if j == big.len() || big[j] != x {
            return false;
        }
    }
    true
}

/// Theorem 1 of the paper: levels are consecutive in `k`, and every
/// community above the bottom level sits inside the parent it names one
/// level down.
///
/// # Errors
///
/// The first violation found.
pub fn check_nesting(levels: &[Level]) -> Result<(), String> {
    for pair in levels.windows(2) {
        let (below, above) = (&pair[0], &pair[1]);
        if above.k != below.k + 1 {
            return Err(format!("level {} follows level {}", above.k, below.k));
        }
        for (i, (members, parent)) in above.communities.iter().zip(&above.parents).enumerate() {
            let Some(p) = parent.and_then(|p| below.communities.get(p as usize)) else {
                return Err(format!("k={} community {i} has no parent", above.k));
            };
            if !subset(members, p) {
                return Err(format!(
                    "k={} community {i} is not inside its parent",
                    above.k
                ));
            }
        }
    }
    Ok(())
}

/// Whether `fine` refines `coarse` (both over the same vertex ids):
/// they have the same levels, every fine community lies inside some
/// coarse community of its level, and every coarse community is the
/// union of the fine communities inside it. Almost mode may split an
/// exact community but never merge two.
///
/// # Errors
///
/// The first violation found.
pub fn check_refines(fine: &[Level], coarse: &[Level]) -> Result<(), String> {
    let ks = |ls: &[Level]| ls.iter().map(|l| l.k).collect::<Vec<_>>();
    if ks(fine) != ks(coarse) {
        return Err(format!("levels differ: {:?} vs {:?}", ks(fine), ks(coarse)));
    }
    for (f, c) in fine.iter().zip(coarse) {
        let mut holders: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, comm) in c.communities.iter().enumerate() {
            for &v in comm {
                holders.entry(v).or_default().push(i);
            }
        }
        let mut covered: Vec<Vec<u32>> = vec![Vec::new(); c.communities.len()];
        for (i, comm) in f.communities.iter().enumerate() {
            let inside: Vec<usize> = comm
                .first()
                .and_then(|v| holders.get(v))
                .into_iter()
                .flatten()
                .copied()
                .filter(|&j| subset(comm, &c.communities[j]))
                .collect();
            if inside.is_empty() {
                return Err(format!(
                    "k={} fine community {i} is inside no coarse community",
                    f.k
                ));
            }
            for j in inside {
                covered[j].extend_from_slice(comm);
            }
        }
        for (j, mut union) in covered.into_iter().enumerate() {
            union.sort_unstable();
            union.dedup();
            if union != c.communities[j] {
                return Err(format!(
                    "k={} coarse community {j} is not a union of fine ones",
                    f.k
                ));
            }
        }
    }
    Ok(())
}
