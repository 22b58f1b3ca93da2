//! Beyond the paper: weighted percolation (CFinder's intensity
//! threshold) on a peering scenario.
//!
//! ```sh
//! cargo run --release --example weighted
//! ```

use kclique::cpm::weighted::{threshold_sweep, weighted_communities};
use kclique::graph::weighted::WeightedGraphBuilder;

fn main() {
    // A peering scenario with traffic volumes as weights: a backbone
    // triangle exchanging heavy traffic, a regional triangle with thin
    // links, glued by one medium link.
    let mut b = WeightedGraphBuilder::new();
    for &(u, v, w) in &[
        (0u32, 1u32, 10.0f64),
        (0, 2, 9.0),
        (1, 2, 12.0), // backbone triangle
        (3, 4, 0.3),
        (3, 5, 0.2),
        (4, 5, 0.4), // regional triangle
        (2, 3, 2.0),
        (1, 3, 2.0), // glue triangle {1,2,3} of medium intensity
        (2, 4, 2.0), // glue triangle {2,3,4} chains into {3,4,5}
    ] {
        b.add_edge(u, v, w);
    }
    let g = b.build();

    let unthresholded = weighted_communities(&g, 3, 0.0);
    println!("unthresholded (I0 = 0): {unthresholded:?}");
    assert_eq!(
        unthresholded,
        vec![vec![0, 1, 2, 3, 4, 5]],
        "the glue merges everything"
    );
    println!(
        "I0 = 1.0:               {:?}",
        weighted_communities(&g, 3, 1.0)
    );
    println!(
        "I0 = 5.0:               {:?}",
        weighted_communities(&g, 3, 5.0)
    );

    // The CFinder recipe for choosing I0: sweep and watch the giant
    // community break apart.
    println!("\nthreshold sweep (threshold, communities, covered nodes):");
    for (t, comms, covered) in threshold_sweep(&g, 3, &[0.0, 0.5, 1.0, 2.0, 5.0, 20.0]) {
        println!("  I0 = {t:>4}: {comms} communities covering {covered} nodes");
    }
}
