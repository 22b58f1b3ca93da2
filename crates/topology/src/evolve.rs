//! Topology evolution: churn an AS-level snapshot into a later one.
//!
//! The paper analyses a single April-2010 snapshot, but the AS topology
//! is a living object (its own reference \[8\] is a ten-year evolution
//! study, and the authors' follow-up work tracks communities over time).
//! This module produces successive snapshots with realistic churn so the
//! community-evolution analysis in `kclique-core` has something to track:
//!
//! - **births**: new stub ASes appear and home to providers in their
//!   country;
//! - **deaths**: existing stubs disappear (their node ids remain, as
//!   isolated nodes, so identities stay stable across snapshots);
//! - **peering churn**: a fraction of non-transit-critical edges is
//!   dropped and fresh IXP peering appears.
//!
//! Node ids are stable: a surviving AS keeps its id (and its `asn`), new
//! ASes get fresh ids at the end. That makes cross-snapshot community
//! matching a plain set comparison.

use crate::model::{AsInfo, AsTopology, Tier};
use crate::sample::weighted_pick;
use asgraph::{GraphBuilder, NodeId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Churn knobs for one evolution step.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolveConfig {
    /// RNG seed for this step.
    pub seed: u64,
    /// New stubs, as a fraction of the current AS count.
    pub birth_rate: f64,
    /// Dying stubs, as a fraction of the current stub count.
    pub death_rate: f64,
    /// Fraction of eligible (non-Tier-1-incident) edges dropped.
    pub edge_death_rate: f64,
    /// Fresh peering edges added inside IXPs, as a fraction of the
    /// current edge count.
    pub peering_birth_rate: f64,
}

impl Default for EvolveConfig {
    fn default() -> Self {
        EvolveConfig {
            seed: 0,
            birth_rate: 0.03,
            death_rate: 0.02,
            edge_death_rate: 0.01,
            peering_birth_rate: 0.01,
        }
    }
}

/// What one evolution step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnReport {
    /// New ASes appended.
    pub births: usize,
    /// ASes whose edges were removed.
    pub deaths: usize,
    /// Edges dropped by churn (including those of dead ASes).
    pub edges_removed: usize,
    /// Edges added (uplinks of new ASes + fresh peering).
    pub edges_added: usize,
}

/// Produces the next snapshot of `topo` under `config`.
///
/// The result preserves the ids of surviving ASes; dead ASes stay in the
/// node set as isolated nodes with their metadata (so indices never
/// shift), and new ASes occupy fresh trailing ids.
///
/// # Panics
///
/// Panics if any rate is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), topology::InvalidConfig> {
/// use topology::{evolve, generate, EvolveConfig, ModelConfig};
///
/// let t0 = generate(&ModelConfig::tiny(42))?;
/// let (t1, churn) = evolve(&t0, &EvolveConfig { seed: 1, ..Default::default() });
/// assert!(t1.graph.node_count() >= t0.graph.node_count());
/// assert!(churn.births > 0);
/// # Ok(())
/// # }
/// ```
pub fn evolve(topo: &AsTopology, config: &EvolveConfig) -> (AsTopology, ChurnReport) {
    for (name, rate) in [
        ("birth_rate", config.birth_rate),
        ("death_rate", config.death_rate),
        ("edge_death_rate", config.edge_death_rate),
        ("peering_birth_rate", config.peering_birth_rate),
    ] {
        assert!((0.0..=1.0).contains(&rate), "{name} = {rate} not in [0, 1]");
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_old = topo.graph.node_count();

    // --- deaths: stubs only, keeping at least one survivor per tier mix.
    let stubs: Vec<NodeId> = (0..n_old as NodeId)
        .filter(|&v| topo.ases[v as usize].tier == Tier::Stub && topo.graph.degree(v) > 0)
        .collect();
    let death_count = ((stubs.len() as f64) * config.death_rate).round() as usize;
    let dead: std::collections::HashSet<NodeId> = stubs
        .choose_multiple(&mut rng, death_count)
        .copied()
        .collect();

    // --- edge churn: drop a fraction of edges not touching a Tier-1
    // (transit backbone stays) and not already dying with a stub.
    let mut kept_edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(topo.graph.edge_count());
    let mut edges_removed = 0usize;
    for (u, v) in topo.graph.edges() {
        if dead.contains(&u) || dead.contains(&v) {
            edges_removed += 1;
            continue;
        }
        let touches_tier1 =
            topo.ases[u as usize].tier == Tier::Tier1 || topo.ases[v as usize].tier == Tier::Tier1;
        if !touches_tier1 && rng.random_bool(config.edge_death_rate) {
            edges_removed += 1;
            continue;
        }
        kept_edges.push((u, v));
    }

    // --- births: new stubs appended after the old id range.
    let birth_count = ((n_old as f64) * config.birth_rate).round() as usize;
    let mut ases = topo.ases.clone();
    let mut new_edges: Vec<(NodeId, NodeId)> = Vec::new();
    let country_weights: Vec<f64> = topo.world.countries().iter().map(|c| c.weight).collect();
    let providers: Vec<NodeId> = (0..n_old as NodeId)
        .filter(|&v| {
            matches!(
                topo.ases[v as usize].tier,
                Tier::Regional | Tier::Continental
            ) && !dead.contains(&v)
        })
        .collect();
    // The providers present in each country, in `providers` order.
    let mut providers_in: Vec<Vec<NodeId>> = vec![Vec::new(); topo.world.len()];
    for &p in &providers {
        for &c in &topo.ases[p as usize].countries {
            let list = &mut providers_in[c as usize];
            if list.last() != Some(&p) {
                list.push(p);
            }
        }
    }
    let max_asn = topo.ases.iter().map(|a| a.asn).max().unwrap_or(0);
    for i in 0..birth_count {
        let id = (n_old + i) as NodeId;
        let home =
            weighted_pick(&mut rng, country_weights.iter().copied()).expect("weights") as u16;
        ases.push(AsInfo {
            asn: max_asn + 1 + i as u32,
            tier: Tier::Stub,
            countries: vec![home],
        });
        // Home to 1-3 providers, same-country preferred.
        let local = &providers_in[home as usize];
        let pool = if local.is_empty() { &providers } else { local };
        if pool.is_empty() {
            continue;
        }
        let uplinks = rng.random_range(1..=3usize).min(pool.len());
        for &p in pool.choose_multiple(&mut rng, uplinks) {
            new_edges.push((id, p));
        }
    }

    // --- fresh peering inside IXPs.
    let peer_births =
        ((topo.graph.edge_count() as f64) * config.peering_birth_rate).round() as usize;
    for _ in 0..peer_births {
        let Some(ixp) = topo.ixps.choose(&mut rng) else {
            break;
        };
        if ixp.participants.len() < 2 {
            continue;
        }
        let a = *ixp.participants.choose(&mut rng).expect("non-empty");
        let b = *ixp.participants.choose(&mut rng).expect("non-empty");
        if a != b && !dead.contains(&a) && !dead.contains(&b) {
            new_edges.push((a, b));
        }
    }

    // --- assemble.
    let n_new = n_old + birth_count;
    let mut b = GraphBuilder::with_nodes(n_new);
    b.add_edges(kept_edges.iter().copied());
    b.add_edges(new_edges.iter().copied());
    let graph = b.build();
    let edges_added = graph.edge_count() + edges_removed - topo.graph.edge_count();

    let next = AsTopology {
        graph,
        ases,
        ixps: topo.ixps.clone(),
        world: topo.world.clone(),
        merge_report: None,
    };
    let report = ChurnReport {
        births: birth_count,
        deaths: death_count,
        edges_removed,
        edges_added,
    };
    (next, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::generate;

    fn base() -> AsTopology {
        generate(&ModelConfig::tiny(42)).expect("valid config")
    }

    #[test]
    fn ids_are_stable_and_births_appended() {
        let t0 = base();
        let (t1, churn) = evolve(&t0, &EvolveConfig::default());
        assert_eq!(t1.graph.node_count(), t0.graph.node_count() + churn.births);
        // Surviving ASes keep asn and tier at the same index.
        for v in 0..t0.graph.node_count() {
            assert_eq!(t0.ases[v].asn, t1.ases[v].asn);
            assert_eq!(t0.ases[v].tier, t1.ases[v].tier);
        }
    }

    #[test]
    fn deaths_isolate_stubs() {
        let t0 = base();
        let cfg = EvolveConfig {
            seed: 3,
            death_rate: 0.2,
            ..Default::default()
        };
        let (t1, churn) = evolve(&t0, &cfg);
        assert!(churn.deaths > 0);
        // Some stub that had edges now has none.
        let isolated_stubs = (0..t0.graph.node_count() as NodeId)
            .filter(|&v| {
                t0.ases[v as usize].tier == Tier::Stub
                    && t0.graph.degree(v) > 0
                    && t1.graph.degree(v) == 0
            })
            .count();
        assert!(isolated_stubs > 0);
    }

    #[test]
    fn tier1_backbone_survives() {
        let t0 = base();
        let cfg = EvolveConfig {
            seed: 5,
            edge_death_rate: 0.5,
            ..Default::default()
        };
        let (t1, _) = evolve(&t0, &cfg);
        for v in 0..t0.graph.node_count() as NodeId {
            if t0.ases[v as usize].tier == Tier::Tier1 {
                for &w in t0.graph.neighbors(v) {
                    if t0.ases[w as usize].tier == Tier::Tier1 {
                        assert!(t1.graph.has_edge(v, w), "tier1 edge {v}-{w} lost");
                    }
                }
            }
        }
    }

    #[test]
    fn churn_report_accounting() {
        let t0 = base();
        let (t1, churn) = evolve(
            &t0,
            &EvolveConfig {
                seed: 9,
                ..Default::default()
            },
        );
        assert_eq!(
            t1.graph.edge_count(),
            t0.graph.edge_count() - churn.edges_removed + churn.edges_added
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let t0 = base();
        let cfg = EvolveConfig {
            seed: 7,
            ..Default::default()
        };
        let (a, _) = evolve(&t0, &cfg);
        let (b, _) = evolve(&t0, &cfg);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.ases, b.ases);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn bad_rate_panics() {
        let t0 = base();
        let _ = evolve(
            &t0,
            &EvolveConfig {
                birth_rate: 2.0,
                ..Default::default()
            },
        );
    }

    #[test]
    fn chained_evolution_keeps_communities_alive() {
        // Three steps of churn: the big-IXP crown structure persists.
        let mut topo = base();
        for step in 0..3u64 {
            let (next, _) = evolve(
                &topo,
                &EvolveConfig {
                    seed: step,
                    ..Default::default()
                },
            );
            topo = next;
        }
        let result = cpm::percolate(&topo.graph);
        assert!(
            result.k_max().unwrap_or(0) >= 8,
            "crown dissolved under churn"
        );
    }
}
