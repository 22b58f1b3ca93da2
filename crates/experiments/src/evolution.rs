//! Extension experiment: community evolution under topology churn
//! (Palla, Barabási & Vicsek 2007 applied to the AS model).
//!
//! Generates a snapshot chain with realistic churn (stub births/deaths,
//! peering churn), percolates every snapshot, and tracks the k-clique
//! communities of a mid-band k: event census per step and the lifetime
//! distribution.

use crate::{Analysis, Artifact, Options};
use kclique_core::evolution::{lifetimes, match_covers};
use kclique_core::report::Table;
use topology::EvolveConfig;

const STEPS: usize = 6;

pub fn run(_analysis: &Analysis, opts: &Options) -> Vec<Artifact> {
    let mut config = opts.config();
    // Evolution tracking is clearest without measurement noise.
    config.simulate_measurement = false;
    let mut topo = topology::generate(&config).expect("preset is valid");

    eprintln!("# percolating {STEPS} snapshots ...");
    let mut results = vec![cpm::percolate_parallel(
        &topo.graph,
        opts.threads,
        cpm::Mode::Exact,
    )];
    let mut churns = Vec::new();
    for step in 0..STEPS - 1 {
        let (next, churn) = topology::evolve(
            &topo,
            &EvolveConfig {
                seed: opts.seed.wrapping_add(step as u64 + 1),
                ..Default::default()
            },
        );
        churns.push(churn);
        results.push(cpm::percolate_parallel(
            &next.graph,
            opts.threads,
            cpm::Mode::Exact,
        ));
        topo = next;
    }

    let k_max = results
        .iter()
        .filter_map(cpm::CpmResult::k_max)
        .min()
        .unwrap_or(3);
    let k = (k_max / 2).clamp(3, 12);
    println!("community evolution at k = {k} over {STEPS} snapshots\n");

    let mut table = Table::new(vec![
        "step",
        "births(AS)",
        "deaths(AS)",
        "communities",
        "continued",
        "grew",
        "contracted",
        "merged",
        "split",
        "born",
        "died",
    ]);
    for (i, w) in results.windows(2).enumerate() {
        let step = match_covers(&w[0], &w[1], k, 0.3);
        let comms = w[1].level(k).map(|l| l.communities.len()).unwrap_or(0);
        let mut row = vec![
            format!("{}→{}", i, i + 1),
            churns[i].births.to_string(),
            churns[i].deaths.to_string(),
            comms.to_string(),
        ];
        row.extend(step.event_counts.iter().map(usize::to_string));
        table.row(row);
    }
    print!("{}", table.render());

    let lt = lifetimes(&results, k, 0.3);
    if !lt.is_empty() {
        let mean = lt.iter().sum::<usize>() as f64 / lt.len() as f64;
        let max = lt.iter().max().copied().unwrap_or(0);
        println!(
            "\nlifetimes: {} tracked communities, mean {:.2} steps, max {max} of {} transitions",
            lt.len(),
            mean,
            STEPS - 1
        );
        let survivors = lt.iter().filter(|&&l| l == STEPS - 1).count();
        println!(
            "communities alive through every snapshot: {survivors} (the crown persists; churn turns over the root)",
        );
    }
    vec![Artifact::new("evolution.tsv", table.to_tsv())]
}
