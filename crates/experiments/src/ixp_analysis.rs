//! §4 IXP tag analysis: on-IXP share per community and the full-share
//! census that defines the crown/trunk/root bands.
//!
//! Paper: all communities with k >= 16 are > 90% on-IXP ASes; 35
//! communities are fully inside an IXP-induced subgraph; crown
//! full-shares are DE-CIX/LINX only, root full-shares are small
//! regional IXPs, trunk has none.

use crate::{Analysis, Artifact, Options};
use kclique_core::report::{f3, pct, Table};

pub fn run(analysis: &Analysis, _opts: &Options) -> Vec<Artifact> {
    let topo = &analysis.topo;

    // Per-k on-IXP share.
    let mut per_k = Table::new(vec!["k", "communities", "min_on_ixp", "mean_on_ixp"]);
    for level in &analysis.result.levels {
        let fracs: Vec<f64> = analysis
            .infos
            .iter()
            .filter(|i| i.id.k == level.k)
            .map(|i| i.on_ixp_fraction)
            .collect();
        let min = fracs.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = fracs.iter().sum::<f64>() / fracs.len().max(1) as f64;
        per_k.row(vec![
            level.k.to_string(),
            fracs.len().to_string(),
            pct(min),
            pct(mean),
        ]);
    }

    // The k threshold above which every community is > 90% on-IXP.
    let threshold = analysis
        .result
        .levels
        .iter()
        .map(|l| l.k)
        .filter(|&k| {
            analysis
                .infos
                .iter()
                .filter(|i| i.id.k >= k)
                .all(|i| i.on_ixp_fraction > 0.9)
        })
        .min();
    println!("§4 — IXP tag analysis\n");
    match threshold {
        Some(k) => println!("every community with k >= {k} is > 90% on-IXP (paper: k >= 16)"),
        None => println!("no k threshold gives uniformly > 90% on-IXP communities"),
    }

    // Full-share census.
    let full: Vec<_> = analysis
        .infos
        .iter()
        .filter_map(|i| i.full_share_ixp.map(|x| (i, x)))
        .collect();
    println!(
        "communities fully inside an IXP-induced subgraph: {} (paper: 35)",
        full.len()
    );
    let mut census = Table::new(vec!["community", "k", "size", "full-share IXP", "large?"]);
    for (info, ixp) in &full {
        let x = &topo.ixps[*ixp as usize];
        census.row(vec![
            info.id.to_string(),
            info.id.k.to_string(),
            info.size.to_string(),
            x.name.clone(),
            if x.large { "yes".into() } else { "no".into() },
        ]);
    }
    let crown_large_only = full
        .iter()
        .filter(|(i, _)| i.id.k >= analysis.bounds.crown_min_k)
        .all(|(_, x)| topo.ixps[*x as usize].large);
    let root_small = full
        .iter()
        .filter(|(i, x)| i.id.k <= analysis.bounds.root_max_k && !topo.ixps[*x as usize].large)
        .count();
    let trunk_none = full
        .iter()
        .filter(|(i, _)| {
            i.id.k > analysis.bounds.root_max_k && i.id.k < analysis.bounds.crown_min_k
        })
        .count();
    println!(
        "crown band (k >= {}): full-shares only at large IXPs: {crown_large_only} (paper: DE-CIX/LINX only)",
        analysis.bounds.crown_min_k
    );
    println!(
        "root band (k <= {}): {} full-shares at small regional IXPs (paper: WIX, KhIX, SIX, ...)",
        analysis.bounds.root_max_k, root_small
    );
    println!("trunk band: {trunk_none} full-shares (paper: none)\n");

    // Max-share of the top community, the paper's AMS-IX anecdote.
    let top = analysis.tree.main_path().last();
    if let Some(info) = top.and_then(|top| analysis.infos.iter().find(|i| i.id == *top)) {
        if let Some((ixp, shared, frac)) = info.max_share_ixp {
            println!(
                "top community {} shares {}/{} members ({}) with {} (paper: 89% with AMS-IX)\n",
                info.id,
                shared,
                info.size,
                f3(frac),
                topo.ixps[ixp as usize].name
            );
        }
    }

    print!("{}", per_k.render());
    println!();
    print!("{}", census.render());
    vec![
        Artifact::new("ixp_on_share.tsv", per_k.to_tsv()),
        Artifact::new("ixp_full_share.tsv", census.to_tsv()),
    ]
}
