//! §4.1–4.3 — crown, trunk and root community analysis.
//!
//! Paper: crown = 42 communities (k in 29..=36) of European on-IXP ASes,
//! max-share always AMS-IX/DE-CIX/LINX; trunk = 30 communities
//! (k in 15..=28) with >90% on-IXP members, no full-share IXP, average
//! member degree 500.2, many worldwide/continental ASes; root = 554
//! communities (k in 2..=14), average parallel size 5.09, 382 of them
//! fully inside one country.

use crate::{Analysis, Artifact, Options};
use kclique_core::report::{f3, pct, Table};
use kclique_core::Segment;

pub fn run(analysis: &Analysis, _opts: &Options) -> Vec<Artifact> {
    let topo = &analysis.topo;
    let bounds = analysis.bounds;
    let summaries =
        kclique_core::segment_summaries(&topo.graph, &analysis.result, &analysis.infos, bounds);

    println!("§4.1–4.3 — crown / trunk / root segmentation");
    println!(
        "bands: root k <= {}, trunk k in [{}:{}], crown k >= {} (paper: root < 14, trunk [15:28], crown > 28)\n",
        bounds.root_max_k,
        bounds.root_max_k + 1,
        bounds.crown_min_k - 1,
        bounds.crown_min_k
    );

    let mut table = Table::new(vec![
        "segment",
        "communities",
        "avg_size",
        "avg_on_ixp",
        "full_share",
        "country_contained",
        "avg_degree",
        "multi_country_members",
    ]);
    for s in &summaries {
        let name = match s.segment {
            Segment::Crown => "crown",
            Segment::Trunk => "trunk",
            Segment::Root => "root",
        };
        table.row(vec![
            name.into(),
            s.count.to_string(),
            f3(s.avg_size),
            pct(s.avg_on_ixp_fraction),
            s.full_share_count.to_string(),
            s.country_contained_count.to_string(),
            f3(s.avg_member_degree),
            pct(s.multi_country_member_fraction),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!("paper anchors: crown 42 communities | trunk 30, avg member degree 500.2 | root 554, avg parallel size 5.09, 382 country-contained\n");

    // §4.1 detail: max-share IXPs of the crown communities.
    let crown: Vec<_> = analysis
        .infos
        .iter()
        .filter(|i| bounds.segment_of(i.id.k) == Segment::Crown)
        .collect();
    let mut crown_detail = Table::new(vec!["community", "size", "max-share IXP", "share"]);
    for info in &crown {
        if let Some((ixp, _, frac)) = info.max_share_ixp {
            crown_detail.row(vec![
                info.id.to_string(),
                info.size.to_string(),
                topo.ixps[ixp as usize].name.clone(),
                pct(frac),
            ]);
        }
    }
    let crown_large = crown
        .iter()
        .filter(|i| {
            i.max_share_ixp
                .is_some_and(|(x, _, _)| topo.ixps[x as usize].large)
        })
        .count();
    println!(
        "crown communities whose max-share IXP is one of the large three: {crown_large}/{} (paper: all)",
        crown_detail.len()
    );
    print!("{}", crown_detail.render());

    // §4.3 detail: root parallel community sizes and country containment.
    let root_parallel: Vec<_> = analysis
        .infos
        .iter()
        .filter(|i| bounds.segment_of(i.id.k) == Segment::Root && !i.is_main)
        .collect();
    let avg_root_size = root_parallel.iter().map(|i| i.size as f64).sum::<f64>()
        / root_parallel.len().max(1) as f64;
    let contained = root_parallel
        .iter()
        .filter(|i| i.containing_country.is_some())
        .count();
    println!();
    println!(
        "root parallel communities: {} — avg size {} (paper: 5.09), {} fully inside one country (paper: 382/554)",
        root_parallel.len(),
        f3(avg_root_size),
        contained
    );

    vec![
        Artifact::new("crown_trunk_root.tsv", table.to_tsv()),
        Artifact::new("crown_detail.tsv", crown_detail.to_tsv()),
    ]
}
