//! The synthetic Internet AS-level topology model.
//!
//! The generator reproduces, mechanism by mechanism, the structures the
//! paper attributes the k-clique community anatomy to:
//!
//! - a **Tier-1 full mesh** of worldwide carriers (the paper's motivating
//!   example of a community with huge external degree);
//! - a **customer–provider hierarchy** (continental → regional → stub)
//!   with preferential attachment, giving heavy-tailed degrees;
//! - **large European IXPs** (AMS-IX / DE-CIX / LINX analogues) whose
//!   overlapping participant sets host planted chains of large peering
//!   cliques — the *crown* and the main trunk of the community tree;
//! - **regional IXPs** hosting small country-local peering cliques — the
//!   *root* communities;
//! - **multi-homing** stubs whose providers interconnect, sprinkling the
//!   periphery with triangles and small cliques.
//!
//! Everything is driven by one seed; the same [`ModelConfig`] always
//! yields the same [`AsTopology`].

use crate::config::ModelConfig;
use crate::measure::{self, EdgeKind, MergeReport};
use crate::plant;
use crate::sample::{weighted_pick, weighted_sample_without_replacement};
use crate::world::{Continent, CountryId, World};
use asgraph::{Graph, GraphBuilder, NodeId};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::fmt;

/// Business role of an AS in the transit hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Settlement-free worldwide carrier; full mesh with the other Tier-1s.
    Tier1,
    /// Transit provider present in several countries of one continent.
    Continental,
    /// Transit provider serving a single country.
    Regional,
    /// Customer network (enterprise, ISP edge, campus, ...).
    Stub,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tier::Tier1 => "tier1",
            Tier::Continental => "continental",
            Tier::Regional => "regional",
            Tier::Stub => "stub",
        };
        f.write_str(s)
    }
}

/// Everything known about one AS.
#[derive(Debug, Clone, PartialEq)]
pub struct AsInfo {
    /// The AS number label (unique; not a graph index).
    pub asn: u32,
    /// Hierarchy role.
    pub tier: Tier,
    /// Countries with at least one point of presence; empty means the
    /// geographical dataset does not cover this AS ("unknown").
    pub countries: Vec<CountryId>,
}

/// Index of an IXP in [`AsTopology::ixps`].
pub type IxpId = u16;

/// One Internet Exchange Point: location plus participant list, the same
/// schema as the paper's IXP dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Ixp {
    /// Display name.
    pub name: String,
    /// Country hosting the exchange.
    pub country: CountryId,
    /// Sorted graph ids of the member ASes.
    pub participants: Vec<NodeId>,
    /// Whether this is one of the large European-style exchanges.
    pub large: bool,
}

impl Ixp {
    /// Whether AS `v` participates in this IXP.
    pub fn has_participant(&self, v: NodeId) -> bool {
        self.participants.binary_search(&v).is_ok()
    }
}

/// A generated AS-level topology with its side datasets.
///
/// Graph node `v` corresponds to `ases[v]`; IXP participant lists and all
/// analyses use the same ids. When measurement simulation is enabled the
/// graph is the largest connected component of the merged campaigns
/// (mirroring §2.1 of the paper) and `merge_report` records what the
/// pipeline did.
#[derive(Debug, Clone)]
pub struct AsTopology {
    /// The AS-level graph.
    pub graph: Graph,
    /// Per-node AS metadata (same indexing as `graph`).
    pub ases: Vec<AsInfo>,
    /// The IXP dataset.
    pub ixps: Vec<Ixp>,
    /// The country table.
    pub world: World,
    /// Measurement/merge statistics (when simulation was enabled).
    pub merge_report: Option<MergeReport>,
}

/// Error returned by [`generate`] for an inconsistent configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig(pub(crate) String);

impl fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid model config: {}", self.0)
    }
}

impl std::error::Error for InvalidConfig {}

/// Generates a synthetic AS-level topology.
///
/// # Errors
///
/// Returns [`InvalidConfig`] if `config.validate()` fails.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), topology::InvalidConfig> {
/// use topology::{generate, ModelConfig};
///
/// let topo = generate(&ModelConfig::tiny(42))?;
/// assert!(topo.graph.node_count() > 100);
/// assert!(asgraph::components::is_connected(&topo.graph));
/// # Ok(())
/// # }
/// ```
pub fn generate(config: &ModelConfig) -> Result<AsTopology, InvalidConfig> {
    config.validate().map_err(InvalidConfig)?;
    let world = World::standard();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n_ases;

    // ---- roles -----------------------------------------------------
    let n_t1 = config.tier1_count;
    let n_cont = ((n as f64) * config.continental_fraction).round() as usize;
    let n_reg = ((n as f64) * config.regional_fraction).round() as usize;
    let mut tiers = vec![Tier::Stub; n];
    for (v, tier) in tiers.iter_mut().enumerate() {
        *tier = if v < n_t1 {
            Tier::Tier1
        } else if v < n_t1 + n_cont {
            Tier::Continental
        } else if v < n_t1 + n_cont + n_reg {
            Tier::Regional
        } else {
            Tier::Stub
        };
    }

    // ---- geography ---------------------------------------------------
    let country_weights: Vec<f64> = world.countries().iter().map(|c| c.weight).collect();
    let pick_country = |rng: &mut StdRng| -> CountryId {
        weighted_pick(rng, country_weights.iter().copied()).expect("country weights are positive")
            as CountryId
    };
    let big_homes: Vec<CountryId> = ["US", "GB", "DE", "NL", "JP"]
        .iter()
        .map(|c| world.id_of(c).expect("standard world has the big five"))
        .collect();
    let mut countries_of: Vec<Vec<CountryId>> = Vec::with_capacity(n);
    for tier in tiers.iter().take(n) {
        let list = match *tier {
            Tier::Tier1 => {
                let home = *big_homes.choose(&mut rng).expect("non-empty");
                let mut list = vec![home];
                // Worldwide: add countries until >= 3 continents covered.
                while {
                    let continents: std::collections::HashSet<Continent> =
                        list.iter().map(|&c| world.country(c).continent).collect();
                    continents.len() < 3
                } {
                    let c = pick_country(&mut rng);
                    if !list.contains(&c) {
                        list.push(c);
                    }
                }
                list
            }
            Tier::Continental => {
                let home = pick_country(&mut rng);
                let mut list = vec![home];
                let same = world.countries_in(world.country(home).continent);
                let extra = rng.random_range(1..=3usize);
                for _ in 0..extra {
                    if let Some(&c) = same.choose(&mut rng) {
                        if !list.contains(&c) {
                            list.push(c);
                        }
                    }
                }
                // A share of big transit providers (CDNs, IBPs) reach
                // overseas: they become worldwide in Table 2.2 terms.
                if rng.random_bool(0.3) {
                    let home_continent = world.country(home).continent;
                    for _ in 0..10 {
                        let c = pick_country(&mut rng);
                        if world.country(c).continent != home_continent {
                            if !list.contains(&c) {
                                list.push(c);
                            }
                            break;
                        }
                    }
                }
                list
            }
            Tier::Regional => {
                vec![pick_country(&mut rng)]
            }
            Tier::Stub => {
                if rng.random_bool(config.unknown_geo_fraction) {
                    Vec::new()
                } else {
                    vec![pick_country(&mut rng)]
                }
            }
        };
        countries_of.push(list);
    }

    // ---- AS number labels ---------------------------------------------
    let mut asn_pool: Vec<u32> = (1..=(2 * n as u32)).collect();
    asn_pool.shuffle(&mut rng);
    asn_pool.truncate(n);

    // ---- edge accumulator ----------------------------------------------
    let mut edges: HashMap<(NodeId, NodeId), EdgeKind> = HashMap::new();
    let mut degree = vec![0.0f64; n];
    let add_edge = |edges: &mut HashMap<(NodeId, NodeId), EdgeKind>,
                    degree: &mut Vec<f64>,
                    u: usize,
                    v: usize,
                    kind: EdgeKind| {
        if u == v {
            return;
        }
        let key = (u.min(v) as NodeId, u.max(v) as NodeId);
        if edges.insert(key, kind).is_none() {
            degree[u] += 1.0;
            degree[v] += 1.0;
        }
    };

    // ---- transit hierarchy -----------------------------------------------
    // Tier-1 full mesh (settlement-free peering).
    for u in 0..n_t1 {
        for v in (u + 1)..n_t1 {
            add_edge(&mut edges, &mut degree, u, v, EdgeKind::Peering);
        }
    }
    let continentals: Vec<usize> = (n_t1..n_t1 + n_cont).collect();
    let regionals = n_t1 + n_cont..n_t1 + n_cont + n_reg;
    // Home continent of every AS with a known geography; each pool
    // below keeps ascending id order.
    let continent_of = |v: usize| countries_of[v].first().map(|&c| world.country(c).continent);
    let mut continentals_in: [Vec<usize>; Continent::COUNT] = Default::default();
    for &c in &continentals {
        continentals_in[continent_of(c).expect("continentals have a home") as usize].push(c);
    }

    // Continental transit: 2-4 Tier-1 uplinks + intra-continent peering.
    let mut peers: Vec<usize> = Vec::new();
    for &c in &continentals {
        let uplinks = rng.random_range(2..=4usize).min(n_t1);
        for &t in choose_distinct(&mut rng, n_t1, uplinks).iter() {
            add_edge(&mut edges, &mut degree, c, t, EdgeKind::Transit);
        }
        let continent = continent_of(c).expect("continentals have a home");
        peers.clear();
        peers.extend(
            continentals_in[continent as usize]
                .iter()
                .filter(|&&o| o != c),
        );
        let peer_count = rng.random_range(1..=2usize);
        for &p in peers.choose_multiple(&mut rng, peer_count) {
            add_edge(&mut edges, &mut degree, c, p, EdgeKind::Peering);
        }
    }

    // Regional transit: 2-3 continental providers (same continent
    // preferred), degree-weighted. Every pool member is a Tier-1 or a
    // continental and every edge this loop adds has a regional end, so
    // the links among pool members are the ones in `edges` now.
    let tier1s: Vec<usize> = (0..n_t1).collect();
    let mut upper_adj: Vec<Vec<usize>> = vec![Vec::new(); n_t1 + n_cont];
    for &(u, v) in edges.keys() {
        upper_adj[u as usize].push(v as usize);
        upper_adj[v as usize].push(u as usize);
    }
    let mut stamp = vec![usize::MAX; n_t1 + n_cont];
    for r in regionals.clone() {
        let continent = continent_of(r).expect("regionals have a home");
        let same = &continentals_in[continent as usize];
        let pool: &[usize] = if same.len() >= 2 {
            same
        } else if !continentals.is_empty() {
            &continentals
        } else {
            &tier1s
        };
        // First upstream: degree-weighted. Second: prefer an upstream
        // that already peers with the first — correlated upstream pairs
        // put every regional provider inside a triangle, which is what
        // chains the periphery into the main 3-clique community (the
        // paper's 69% coverage at k = 3).
        let first = weighted_pick(&mut rng, pool.iter().map(|&c| degree[c] + 1.0)).map(|i| pool[i]);
        if let Some(u1) = first {
            add_edge(&mut edges, &mut degree, r, u1, EdgeKind::Transit);
            for &w in &upper_adj[u1] {
                stamp[w] = r;
            }
            let adjacent: Vec<usize> = pool.iter().copied().filter(|&c| stamp[c] == r).collect();
            let u2 = if !adjacent.is_empty() && rng.random_bool(0.8) {
                adjacent.choose(&mut rng).copied()
            } else {
                let w2 = pool
                    .iter()
                    .map(|&c| if c == u1 { 0.0 } else { degree[c] + 1.0 });
                weighted_pick(&mut rng, w2).map(|i| pool[i])
            };
            if let Some(u2) = u2 {
                add_edge(&mut edges, &mut degree, r, u2, EdgeKind::Transit);
            }
            if rng.random_bool(0.3) {
                if let Some(i) = weighted_pick(&mut rng, pool.iter().map(|&c| degree[c] + 1.0)) {
                    add_edge(&mut edges, &mut degree, r, pool[i], EdgeKind::Transit);
                }
            }
        }
    }

    // Stubs: 1-3 providers, same country preferred; interconnected
    // providers of multi-homed stubs seed the periphery with triangles.
    // A stub with no local provider falls back to the transit ASes of
    // its continent, or to all of them.
    let transit_all: Vec<usize> = (0..n_t1 + n_cont + n_reg).collect();
    let mut transit_in: [Vec<usize>; Continent::COUNT] = Default::default();
    for &p in &transit_all {
        if let Some(continent) = continent_of(p) {
            transit_in[continent as usize].push(p);
        }
    }
    let mut providers_by_country: Vec<Vec<usize>> = vec![Vec::new(); world.len()];
    for p in continentals.iter().copied().chain(regionals) {
        for &c in &countries_of[p] {
            providers_by_country[c as usize].push(p);
        }
    }
    for (s, countries) in countries_of.iter().enumerate().skip(n_t1 + n_cont + n_reg) {
        let pool: &[usize] = match countries.first() {
            Some(&h) if !providers_by_country[h as usize].is_empty() => {
                &providers_by_country[h as usize]
            }
            Some(&h) if !transit_in[world.country(h).continent as usize].is_empty() => {
                &transit_in[world.country(h).continent as usize]
            }
            _ => &transit_all,
        };
        let roll: f64 = rng.random_range(0.0..1.0);
        let homes = if roll < 0.50 {
            1
        } else if roll < 0.85 {
            2
        } else {
            3
        };
        let weights = pool.iter().map(|&p| degree[p] + 1.0);
        let picked = weighted_sample_without_replacement(&mut rng, weights, homes.min(pool.len()));
        let chosen: Vec<usize> = picked.into_iter().map(|i| pool[i]).collect();
        for &p in &chosen {
            add_edge(&mut edges, &mut degree, s, p, EdgeKind::Transit);
        }
        if chosen.len() >= 2 && rng.random_bool(0.7) {
            add_edge(
                &mut edges,
                &mut degree,
                chosen[0],
                chosen[1],
                EdgeKind::Peering,
            );
        }
    }

    // ---- IXPs -------------------------------------------------------------
    let mut ixps: Vec<Ixp> = Vec::new();
    let large_hosts = ["NL", "DE", "GB", "FR", "US"];
    let large_names = [
        "AMS-IX-SIM",
        "DE-CIX-SIM",
        "LINX-SIM",
        "FR-IX-SIM",
        "US-IX-SIM",
    ];
    let target = ((n as f64) * config.large_ixp_participation).round() as usize;
    let large_weights: Vec<f64> = (0..n)
        .map(|v| {
            let euro = countries_of[v]
                .iter()
                .any(|&c| world.country(c).continent == Continent::Europe);
            match (tiers[v], euro) {
                (Tier::Tier1, _) => 1.0e6, // Tier-1s are in every big IXP
                (Tier::Continental, true) => 50.0,
                (Tier::Continental, false) => 8.0,
                (Tier::Regional, true) => 12.0,
                (Tier::Regional, false) => 1.5,
                (Tier::Stub, true) => 0.8,
                (Tier::Stub, false) => 0.05,
            }
        })
        .collect();
    for i in 0..config.large_ixp_count {
        let host = world
            .id_of(large_hosts[i % large_hosts.len()])
            .expect("host country exists");
        let participants: Vec<NodeId> = weighted_sample_without_replacement(
            &mut rng,
            large_weights.iter().copied(),
            target.max(n_t1 + 10),
        )
        .into_iter()
        .map(|v| v as NodeId)
        .collect();
        ixps.push(Ixp {
            name: large_names[i % large_names.len()].to_owned(),
            country: host,
            participants,
            large: true,
        });
    }
    // Regional IXPs: country-bound membership.
    let mut ases_by_country: Vec<Vec<usize>> = vec![Vec::new(); world.len()];
    for (v, countries) in countries_of.iter().enumerate().take(n) {
        if let Some(&c) = countries.first() {
            ases_by_country[c as usize].push(v);
        }
    }
    for j in 0..config.regional_ixp_count {
        let mut country = None;
        for _ in 0..20 {
            let c = pick_country(&mut rng);
            if ases_by_country[c as usize].len() >= 6 {
                country = Some(c);
                break;
            }
        }
        let Some(c) = country else { continue };
        let pool = &ases_by_country[c as usize];
        let weights = pool.iter().map(|&v| match tiers[v] {
            Tier::Tier1 => 0.0, // Tier-1s skip small exchanges
            Tier::Continental => 8.0,
            Tier::Regional => 6.0,
            Tier::Stub => 1.0,
        });
        let size = rng
            .random_range(config.regional_ixp_size.0..=config.regional_ixp_size.1)
            .min(pool.len());
        let participants: Vec<NodeId> =
            weighted_sample_without_replacement(&mut rng, weights, size)
                .into_iter()
                .map(|i| pool[i] as NodeId)
                .collect();
        if participants.len() < 3 {
            continue;
        }
        ixps.push(Ixp {
            name: format!("IX-{}-{j}", world.country(c).code),
            country: c,
            participants,
            large: false,
        });
    }

    // ---- planted peering cliques -------------------------------------
    let planted = plan_cliques(&mut rng, config, &ixps, &tiers);
    for edge_list in planted
        .iter()
        .map(|c| plant::clique_edges(std::slice::from_ref(c)))
    {
        for (u, v) in edge_list {
            add_edge(
                &mut edges,
                &mut degree,
                u as usize,
                v as usize,
                EdgeKind::Peering,
            );
        }
    }

    // ---- background IXP peering noise ---------------------------------
    for ixp in &ixps {
        let p = &ixp.participants;
        if p.len() < 2 {
            continue;
        }
        let pairs = p.len() * (p.len() - 1) / 2;
        let extra = ((pairs as f64) * config.ixp_noise_peering).round() as usize;
        for _ in 0..extra {
            let a = *p.choose(&mut rng).expect("non-empty");
            let b = *p.choose(&mut rng).expect("non-empty");
            add_edge(
                &mut edges,
                &mut degree,
                a as usize,
                b as usize,
                EdgeKind::Peering,
            );
        }
    }

    // ---- multi-homing cliques and local pockets (root communities) ----
    // Each selected country receives several provider-pair pockets (a few
    // multi-homed stubs per pocket) and occasionally an isolated stub
    // triangle: this is what populates the low-k levels with hundreds of
    // small parallel communities (the paper's 554 root communities).
    for (c, locals) in ases_by_country.iter().enumerate() {
        if locals.is_empty() {
            continue;
        }
        let c = c as CountryId;
        if !rng.random_bool(config.multihoming_country_fraction) {
            continue;
        }
        let providers: Vec<usize> = locals
            .iter()
            .copied()
            .filter(|&v| matches!(tiers[v], Tier::Regional | Tier::Continental))
            .collect();
        let mut stubs: Vec<usize> = locals
            .iter()
            .copied()
            .filter(|&v| tiers[v] == Tier::Stub)
            .collect();
        if providers.len() < 2 || stubs.is_empty() {
            continue;
        }
        stubs.shuffle(&mut rng);
        let mut stub_cursor = 0usize;
        let pockets = (stubs.len() / 8).max(1);
        let continent = world.country(c).continent;
        for _ in 0..pockets {
            let p_count = rng.random_range(2..=4usize).min(providers.len());
            // Degree-weighted provider choice: well-connected providers
            // sit inside the main community, so pockets share members
            // with it (the paper's 0.704 mean parallel↔main overlap).
            let p_weights = providers.iter().map(|&p| degree[p] + 1.0);
            let mut chosen_p: Vec<usize> =
                weighted_sample_without_replacement(&mut rng, p_weights, p_count)
                    .into_iter()
                    .map(|i| providers[i])
                    .collect();
            // Occasionally a cross-border provider: the pocket is then
            // not fully contained in one country (the paper: only 382 of
            // 554 root communities are country-contained).
            if rng.random_bool(0.3) {
                let foreign: Vec<usize> = continentals_in[continent as usize]
                    .iter()
                    .copied()
                    .filter(|&p| !countries_of[p].contains(&c))
                    .collect();
                if let Some(&f) = foreign.choose(&mut rng) {
                    if !chosen_p.is_empty() && !chosen_p.contains(&f) {
                        chosen_p[0] = f;
                    }
                }
            }
            for (i, &a) in chosen_p.iter().enumerate() {
                for &b in &chosen_p[i + 1..] {
                    add_edge(&mut edges, &mut degree, a, b, EdgeKind::Peering);
                }
            }
            let s_count = rng.random_range(1..=5usize);
            for _ in 0..s_count {
                if stub_cursor >= stubs.len() {
                    break;
                }
                let s = stubs[stub_cursor];
                stub_cursor += 1;
                for &p in &chosen_p {
                    add_edge(&mut edges, &mut degree, s, p, EdgeKind::Transit);
                }
            }
        }
        // National provider mesh: in well-provided countries, domestic
        // providers peer directly (no exchange involved), sometimes with
        // a couple of large customers. These populate the root band's
        // upper half (k up to ~10) with communities of low and variable
        // on-IXP share, as the paper observes below its k = 16 threshold.
        if providers.len() >= 5 && rng.random_bool(0.5) {
            let mesh_size = rng.random_range(5..=providers.len().min(9));
            let mesh: Vec<usize> = providers
                .choose_multiple(&mut rng, mesh_size)
                .copied()
                .collect();
            for (i, &a) in mesh.iter().enumerate() {
                for &b in &mesh[i + 1..] {
                    add_edge(&mut edges, &mut degree, a, b, EdgeKind::Peering);
                }
            }
            for _ in 0..2 {
                if stub_cursor >= stubs.len() {
                    break;
                }
                let s = stubs[stub_cursor];
                stub_cursor += 1;
                for &p in &mesh {
                    add_edge(&mut edges, &mut degree, s, p, EdgeKind::Transit);
                }
            }
        }

        // An isolated local ring of stubs peering with each other: a
        // triangle pocket attached to the core only through transit.
        if stubs.len() >= stub_cursor + 3 && rng.random_bool(0.4) {
            let trio = &stubs[stub_cursor..stub_cursor + 3];
            add_edge(&mut edges, &mut degree, trio[0], trio[1], EdgeKind::Peering);
            add_edge(&mut edges, &mut degree, trio[1], trio[2], EdgeKind::Peering);
            add_edge(&mut edges, &mut degree, trio[0], trio[2], EdgeKind::Peering);
        }
    }

    // ---- assemble / measure ----------------------------------------------
    let mut truth: Vec<(NodeId, NodeId, EdgeKind)> =
        edges.iter().map(|(&(u, v), &k)| (u, v, k)).collect();
    // HashMap iteration order is nondeterministic; the measurement
    // simulation draws randomness per edge in order, so fix the order.
    truth.sort_unstable_by_key(|&(u, v, _)| (u, v));

    let (graph, kept, merge_report) = if config.simulate_measurement {
        let (g, kept, report) = measure::simulate(n, &truth, config, &mut rng);
        (g, kept, Some(report))
    } else {
        let mut b = GraphBuilder::with_nodes(n);
        for &(u, v, _) in &truth {
            b.add_edge(u, v);
        }
        (b.build(), (0..n as NodeId).collect(), None)
    };

    // ---- remap metadata to surviving nodes ------------------------------
    let mut old_to_new = vec![u32::MAX; n];
    for (new, &old) in kept.iter().enumerate() {
        old_to_new[old as usize] = new as u32;
    }
    let ases: Vec<AsInfo> = kept
        .iter()
        .map(|&old| AsInfo {
            asn: asn_pool[old as usize],
            tier: tiers[old as usize],
            countries: countries_of[old as usize].clone(),
        })
        .collect();
    let ixps: Vec<Ixp> = ixps
        .into_iter()
        .map(|ixp| {
            let mut participants: Vec<NodeId> = ixp
                .participants
                .iter()
                .filter_map(|&old| {
                    let new = old_to_new[old as usize];
                    (new != u32::MAX).then_some(new)
                })
                .collect();
            participants.sort_unstable();
            Ixp {
                participants,
                ..ixp
            }
        })
        .filter(|ixp| ixp.participants.len() >= 2)
        .collect();

    Ok(AsTopology {
        graph,
        ases,
        ixps,
        world,
        merge_report,
    })
}

/// Draws `want` distinct values from `0..bound` uniformly.
fn choose_distinct<R: Rng>(rng: &mut R, bound: usize, want: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..bound).collect();
    all.shuffle(rng);
    all.truncate(want);
    all
}

/// Plans all planted cliques: the crown/trunk spine chained down from
/// k_max, per-IXP crown branches, trunk branches, and root cliques inside
/// regional IXPs.
fn plan_cliques<R: Rng>(
    rng: &mut R,
    config: &ModelConfig,
    ixps: &[Ixp],
    tiers: &[Tier],
) -> Vec<Vec<NodeId>> {
    let mut planted: Vec<Vec<NodeId>> = Vec::new();
    let large: Vec<&Ixp> = ixps.iter().filter(|x| x.large).collect();
    if large.is_empty() {
        return planted;
    }

    // Core pool of the first large IXP: transit-heavy participants, plus a
    // sprinkle of members exclusive to the other large IXPs so the main
    // crown communities are *not* fully contained in any single IXP
    // (matching §4.1: the 36-community has no full-share IXP).
    let core_cap = config.crown_clique_size.1 + 15;
    let mut core: Vec<NodeId> = large[0]
        .participants
        .iter()
        .copied()
        .filter(|&v| tiers[v as usize] != Tier::Stub)
        .take(core_cap)
        .collect();
    if core.len() < config.crown_clique_size.1 + 10 {
        let missing = config.crown_clique_size.1 + 10 - core.len();
        let fillers: Vec<NodeId> = large[0]
            .participants
            .iter()
            .copied()
            .filter(|v| !core.contains(v))
            .take(missing)
            .collect();
        core.extend(fillers);
    }
    // Mix in members exclusive to the other large IXPs so communities
    // growing out of the core straddle exchanges (no full-share IXP in
    // the trunk, as §4.2 observes).
    for other in large.iter().skip(1) {
        let exclusive: Vec<NodeId> = other
            .participants
            .iter()
            .copied()
            .filter(|v| !large[0].has_participant(*v))
            .take(8)
            .collect();
        core.extend(exclusive);
    }
    core.sort_unstable();
    core.dedup();

    // Union pool of all large-IXP participants (for the trunk).
    let mut union_pool: Vec<NodeId> = large
        .iter()
        .flat_map(|x| x.participants.iter().copied())
        .collect();
    union_pool.sort_unstable();
    union_pool.dedup();

    // --- dense core: random peering among the crown core on top of the
    // planted cliques. This overlays the chains with combinatorially many
    // overlapping maximal cliques, reproducing the paper's §3 census
    // shape (the bulk of maximal cliques in a mid-k band).
    for (i, &a) in core.iter().enumerate() {
        for &b in &core[i + 1..] {
            if rng.random_bool(config.crown_core_density) {
                planted.push(vec![a, b]);
            }
        }
    }

    // --- the spine: crown sizes descending, then trunk sizes, then a tail.
    let (c_lo, c_hi) = config.crown_clique_size;
    let (t_lo, t_hi) = config.trunk_clique_size;
    let mut spine_sizes = descending_sizes(c_hi, c_lo, config.crown_cliques_per_ixp);
    spine_sizes.extend(descending_sizes(t_hi, t_lo, config.trunk_clique_count));
    let mut tail = t_lo.saturating_sub(2);
    while tail >= 4 {
        spine_sizes.push(tail);
        tail = tail.saturating_sub(2);
    }
    // Crown part of the spine draws from the core; the rest from the
    // union pool, continuing the chain from the last crown clique.
    let crown_part = plant::plant_chain(
        rng,
        &core,
        &spine_sizes[..config.crown_cliques_per_ixp],
        0.8,
    );
    let mut chain_seed = crown_part.last().cloned().unwrap_or_else(|| core.clone());
    planted.extend(crown_part);
    for &size in &spine_sizes[config.crown_cliques_per_ixp..] {
        let next = continue_chain(rng, &chain_seed, &union_pool, size, 0.75);
        chain_seed = next.clone();
        planted.push(next);
    }

    // Members of the crown section of the spine, used to seed branches:
    // sharing ~half their members with the spine gives parallel
    // communities the paper's high parallel↔main overlap fraction
    // (mean 0.704) while still percolating separately at high k.
    let mut crown_spine_members: Vec<NodeId> = planted
        .iter()
        .skip_while(|c| c.len() == 2) // skip the core-density edges
        .take(config.crown_cliques_per_ixp)
        .flatten()
        .copied()
        .collect();
    crown_spine_members.sort_unstable();
    crown_spine_members.dedup();

    // --- crown branches: cliques fully inside each other large IXP
    // (these become parallel crown communities with a full-share IXP).
    for other in large.iter().skip(1) {
        let pool: Vec<NodeId> = other
            .participants
            .iter()
            .copied()
            .filter(|&v| tiers[v as usize] != Tier::Stub)
            .collect();
        if pool.len() < c_lo {
            continue;
        }
        // Seed: spine members that also participate here (the analogue
        // of the 119 ASes AMS-IX, DE-CIX and LINX share).
        let shared_seed: Vec<NodeId> = crown_spine_members
            .iter()
            .copied()
            .filter(|v| other.has_participant(*v))
            .collect();
        let count = (config.crown_cliques_per_ixp / 2).max(2);
        let sizes = descending_sizes(c_hi.saturating_sub(2).max(c_lo), c_lo, count);
        let mut prev = if shared_seed.is_empty() {
            pool.clone()
        } else {
            shared_seed
        };
        for &size in &sizes {
            let clique = continue_chain(rng, &prev, &pool, size, 0.5);
            prev = clique.clone();
            planted.push(clique);
        }
    }

    // --- trunk branches: short chains over mixed large-IXP membership
    // (high on-IXP share, no full-share IXP), seeded from the spine for
    // the same overlap reason.
    for b in 0..3usize {
        let count = 2 + b % 2;
        let sizes = descending_sizes(t_hi, t_lo, count);
        let mut prev = crown_spine_members.clone();
        for &size in &sizes {
            let clique = continue_chain(rng, &prev, &union_pool, size, 0.5);
            prev = clique.clone();
            planted.push(clique);
        }
    }

    // --- opt-in census blow-up: a cocktail-party graph K(2×m) among
    // large-IXP participants — 2^m maximal cliques of size m, the
    // combinatorial regime of the paper's 2.7 M-clique census.
    if config.census_blowup_pairs > 0 {
        let m = config.census_blowup_pairs;
        let mut members: Vec<NodeId> = union_pool.clone();
        members.shuffle(rng);
        members.truncate(2 * m);
        if members.len() == 2 * m {
            for (i, &a) in members.iter().enumerate() {
                for (j, &b) in members.iter().enumerate().skip(i + 1) {
                    // Skip the matching: partners (2t, 2t+1) stay apart.
                    if i / 2 == j / 2 {
                        continue;
                    }
                    planted.push(vec![a, b]);
                }
            }
        }
    }

    // --- root cliques inside regional IXPs (country-local by
    // construction).
    // Only a minority of regional exchanges host a dense peering clique:
    // the paper found just 14 root communities with a full-share IXP
    // (most root communities come from multi-homing instead).
    let (r_lo, r_hi) = config.root_clique_size;
    for ixp in ixps.iter().filter(|x| !x.large) {
        if ixp.participants.len() < r_lo || !rng.random_bool(config.regional_ixp_clique_fraction) {
            continue;
        }
        let cliques = rng.random_range(1..=2usize);
        for _ in 0..cliques {
            let size = rng.random_range(r_lo..=r_hi).min(ixp.participants.len());
            if size < 2 {
                continue;
            }
            let members: Vec<NodeId> = ixp
                .participants
                .choose_multiple(rng, size)
                .copied()
                .collect();
            planted.push(members);
        }
    }

    planted
}

/// `count` sizes spread descending from `hi` to `lo` (inclusive).
fn descending_sizes(hi: usize, lo: usize, count: usize) -> Vec<usize> {
    if count == 0 {
        return Vec::new();
    }
    if count == 1 {
        return vec![hi];
    }
    let span = hi.saturating_sub(lo);
    (0..count).map(|i| hi - (span * i) / (count - 1)).collect()
}

/// Draws one clique of `size` members continuing a chain: reuses
/// `ceil(size * frac)` members of `prev` (capped at `size - 1`), fills
/// from `pool`.
fn continue_chain<R: Rng>(
    rng: &mut R,
    prev: &[NodeId],
    pool: &[NodeId],
    size: usize,
    frac: f64,
) -> Vec<NodeId> {
    let size = size.min(pool.len().max(prev.len()));
    let want_shared = ((size as f64 * frac).ceil() as usize)
        .min(size.saturating_sub(1))
        .min(prev.len());
    let mut members: Vec<NodeId> = prev.choose_multiple(rng, want_shared).copied().collect();
    let mut shuffled: Vec<NodeId> = pool.to_vec();
    shuffled.shuffle(rng);
    for v in shuffled {
        if members.len() >= size {
            break;
        }
        if !members.contains(&v) {
            members.push(v);
        }
    }
    members.sort_unstable();
    members.dedup();
    members
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AsTopology {
        // Seed chosen so the tiny preset is comfortably heavy-tailed
        // under this repo's seeded RNG stream (seed 42 sits right on the
        // 10x max/mean margin).
        generate(&ModelConfig::tiny(7)).expect("tiny config is valid")
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&ModelConfig::tiny(7)).unwrap();
        let b = generate(&ModelConfig::tiny(7)).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.ases, b.ases);
        assert_eq!(a.ixps, b.ixps);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&ModelConfig::tiny(1)).unwrap();
        let b = generate(&ModelConfig::tiny(2)).unwrap();
        assert_ne!(a.graph, b.graph);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = ModelConfig::tiny(1);
        cfg.n_ases = 3;
        let err = generate(&cfg).unwrap_err();
        assert!(err.to_string().contains("n_ases"));
    }

    #[test]
    fn topology_is_connected_single_component() {
        // Mirrors the paper's dataset: a single connected component.
        let t = tiny();
        assert!(asgraph::components::is_connected(&t.graph));
    }

    #[test]
    fn metadata_is_consistent() {
        let t = tiny();
        assert_eq!(t.graph.node_count(), t.ases.len());
        for ixp in &t.ixps {
            assert!(ixp.participants.windows(2).all(|w| w[0] < w[1]));
            for &p in &ixp.participants {
                assert!((p as usize) < t.graph.node_count());
            }
        }
        // ASNs unique.
        let mut asns: Vec<u32> = t.ases.iter().map(|a| a.asn).collect();
        asns.sort_unstable();
        let before = asns.len();
        asns.dedup();
        assert_eq!(asns.len(), before);
    }

    #[test]
    fn tier1s_form_a_clique() {
        let mut cfg = ModelConfig::tiny(11);
        cfg.simulate_measurement = false; // keep ground truth
        let t = generate(&cfg).unwrap();
        let tier1s: Vec<NodeId> = (0..t.ases.len() as NodeId)
            .filter(|&v| t.ases[v as usize].tier == Tier::Tier1)
            .collect();
        assert_eq!(tier1s.len(), cfg.tier1_count);
        for (i, &a) in tier1s.iter().enumerate() {
            for &b in &tier1s[i + 1..] {
                assert!(t.graph.has_edge(a, b), "tier1 {a}-{b} missing");
            }
        }
    }

    #[test]
    fn tier1s_are_worldwide() {
        let t = tiny();
        for a in t.ases.iter().filter(|a| a.tier == Tier::Tier1) {
            let continents: std::collections::HashSet<_> = a
                .countries
                .iter()
                .map(|&c| t.world.country(c).continent)
                .collect();
            assert!(continents.len() >= 3);
        }
    }

    #[test]
    fn stubs_mostly_single_country() {
        let t = tiny();
        let stubs: Vec<_> = t.ases.iter().filter(|a| a.tier == Tier::Stub).collect();
        assert!(!stubs.is_empty());
        assert!(stubs.iter().all(|a| a.countries.len() <= 1));
        let unknown = stubs.iter().filter(|a| a.countries.is_empty()).count();
        assert!(unknown > 0, "expected some unknown-geo stubs");
        assert!(unknown < stubs.len() / 5);
    }

    #[test]
    fn large_ixps_present_with_overlap() {
        let t = tiny();
        let large: Vec<&Ixp> = t.ixps.iter().filter(|x| x.large).collect();
        assert_eq!(large.len(), 3);
        // They share participants (Tier-1s at least).
        let shared = large[0]
            .participants
            .iter()
            .filter(|&&v| large[1].has_participant(v))
            .count();
        assert!(shared >= 3, "large IXPs share only {shared} participants");
    }

    #[test]
    fn regional_ixps_are_country_bound() {
        let t = tiny();
        for ixp in t.ixps.iter().filter(|x| !x.large) {
            for &p in &ixp.participants {
                let info = &t.ases[p as usize];
                assert!(
                    info.countries.contains(&ixp.country),
                    "participant {p} of {} not in {}",
                    ixp.name,
                    t.world.country(ixp.country).code
                );
            }
        }
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let t = tiny();
        let d = t.graph.degrees();
        assert!(
            d.max as f64 > 10.0 * d.mean,
            "max {} mean {}",
            d.max,
            d.mean
        );
    }

    #[test]
    fn merge_report_present_when_simulating() {
        let t = tiny();
        let r = t.merge_report.expect("tiny preset simulates measurement");
        assert!(r.final_edges > 0);
        assert!(r.union_edges >= r.final_edges);
        assert!(r.true_edges >= r.campaign_edge_counts[0] - r.spurious_injected / 3);
    }

    #[test]
    fn descending_sizes_shape() {
        assert_eq!(descending_sizes(10, 4, 4), vec![10, 8, 6, 4]);
        assert_eq!(descending_sizes(10, 4, 1), vec![10]);
        assert!(descending_sizes(10, 4, 0).is_empty());
        assert_eq!(descending_sizes(5, 5, 3), vec![5, 5, 5]);
    }

    #[test]
    fn max_clique_reaches_crown_band() {
        let cfg = ModelConfig::tiny(42);
        let t = generate(&cfg).unwrap();
        let deg = asgraph::ordering::degeneracy_order(&t.graph);
        // Degeneracy + 1 upper-bounds clique size; planted crown cliques
        // guarantee a dense zone at least close to the configured band.
        assert!(
            deg.degeneracy as usize + 1 >= cfg.crown_clique_size.0,
            "degeneracy {} too small for crown band {:?}",
            deg.degeneracy,
            cfg.crown_clique_size
        );
    }
}
