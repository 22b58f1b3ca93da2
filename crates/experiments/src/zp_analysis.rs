//! Extension experiment: the z-P methodology the paper declined to use,
//! and why.
//!
//! §1: "we avoided using methods such as \[13\] (Guimerà–Amaral z-P
//! analysis), since they rely on threshold based on heuristics". This
//! experiment runs the z-P cartography on a Louvain partition of the
//! same topology and quantifies the criticism: scaling every role
//! boundary by ±10 % reclassifies a substantial share of ASes, whereas
//! the k-clique community definition has no tunable thresholds at all.

use crate::{Analysis, Artifact, Options};
use baselines::louvain::louvain;
use kclique_core::cartography::{cartography, Role, Thresholds};
use kclique_core::report::{pct, Table};

pub fn run(analysis: &Analysis, opts: &Options) -> Vec<Artifact> {
    let topo = &analysis.topo;

    eprintln!("# running Louvain + z-P cartography ...");
    let partition = louvain(&topo.graph);
    println!(
        "Louvain partition: {} communities, modularity {:.3}\n",
        partition.community_count, partition.modularity
    );

    let cart = cartography(&topo.graph, &partition.community);
    let roles = cart.roles(&Thresholds::standard());
    let mut census = std::collections::HashMap::new();
    for r in &roles {
        *census.entry(format!("{r:?}")).or_insert(0usize) += 1;
    }
    let mut table = Table::new(vec!["role", "ASes"]);
    for name in [
        "UltraPeripheral",
        "Peripheral",
        "Connector",
        "Kinless",
        "ProvincialHub",
        "ConnectorHub",
        "KinlessHub",
    ] {
        table.row(vec![
            name.into(),
            census.get(name).copied().unwrap_or(0).to_string(),
        ]);
    }
    print!("{}", table.render());

    // Tier-1s should surface as hubs.
    let tier1_hubs = (0..topo.ases.len())
        .filter(|&v| topo.ases[v].tier == topology::Tier::Tier1)
        .filter(|&v| {
            matches!(
                roles[v],
                Role::ProvincialHub | Role::ConnectorHub | Role::KinlessHub
            )
        })
        .count();
    println!(
        "\nTier-1 ASes classified as hubs: {tier1_hubs}/{}",
        opts.config().tier1_count
    );

    // The heuristic-threshold criticism, quantified.
    let mut sens = Table::new(vec!["threshold scaling", "ASes reclassified"]);
    for factor in [0.9f64, 0.95, 1.05, 1.1] {
        sens.row(vec![
            format!("x{factor}"),
            pct(cart.role_instability(factor)),
        ]);
    }
    println!();
    print!("{}", sens.render());
    println!(
        "\n(the k-clique community definition is deterministic and threshold-free —\nthe paper's §1 reason for preferring it over z-P role analysis)"
    );
    vec![Artifact::new("zp_analysis.tsv", sens.to_tsv())]
}
