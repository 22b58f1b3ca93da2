//! The streaming engine against the batch oracle: identical communities
//! at every `k`, on random graphs and on a seeded synthetic Internet,
//! plus round-trip and refinement properties of the clique log and the
//! last-seen approximation.

use asgraph::{Graph, NodeId};
use cpm_stream::{
    stream_percolate, stream_percolate_at, CliqueLogReader, CliqueLogWriter, CliqueSource,
    GraphSource, LogSource, Mode, StreamPercolator,
};
use proptest::prelude::*;

fn edge_soup(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

/// Canonically sorted streaming cover at level `k`.
fn stream_cover(result: &cpm_stream::StreamCpmResult, k: u32) -> Vec<Vec<NodeId>> {
    let mut cover: Vec<Vec<NodeId>> = result
        .level(k)
        .map(|l| l.communities.iter().map(|c| c.members.clone()).collect())
        .unwrap_or_default();
    cover.sort_unstable();
    cover
}

/// Asserts the full streaming sweep equals batch percolation level by
/// level, and that parent links point at true containers.
fn assert_stream_matches_batch(g: &Graph) {
    let batch = cpm::percolate(g);
    let stream = stream_percolate(&mut GraphSource::new(g)).expect("in-memory source");
    assert_eq!(stream.k_max(), batch.k_max());
    for k in 2..=batch.k_max().unwrap_or(1) {
        assert_eq!(stream_cover(&stream, k), batch.cover(k), "level {k}");
    }
    for (i, level) in stream.levels.iter().enumerate() {
        for c in &level.communities {
            if level.k == 2 {
                assert!(c.parent.is_none());
            } else {
                let parent =
                    &stream.levels[i - 1].communities[c.parent.expect("k>2 has parent") as usize];
                assert!(
                    c.members.iter().all(|&v| parent.contains(v)),
                    "level {} parent does not contain child",
                    level.k
                );
            }
        }
    }
}

proptest! {
    /// Streaming percolation is community-equivalent to `cpm::percolate`
    /// for every k on random graphs.
    #[test]
    fn stream_sweep_matches_batch(edges in edge_soup(14, 50)) {
        let g = Graph::from_edges(14, edges);
        assert_stream_matches_batch(&g);
    }

    /// The single-k entry point agrees with `cpm::percolate_at`.
    #[test]
    fn stream_at_matches_batch_at(edges in edge_soup(14, 50), k in 2usize..6) {
        let g = Graph::from_edges(14, edges);
        let got = stream_percolate_at(&mut GraphSource::new(&g), k).expect("in-memory source");
        prop_assert_eq!(got, cpm::percolate_at(&g, k));
    }

    /// Percolating off a clique log gives the same result as live
    /// enumeration (log and graph sources are interchangeable).
    #[test]
    fn log_source_matches_graph_source(edges in edge_soup(12, 40)) {
        let g = Graph::from_edges(12, edges);
        let dir = std::env::temp_dir().join(format!("cpm_stream_oracle_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("soup.cliquelog");
        cpm_stream::write_clique_log(&g, &path).expect("log build");
        let via_graph = stream_percolate(&mut GraphSource::new(&g)).expect("graph source");
        let mut log = LogSource::open(&path).expect("log open");
        let via_log = stream_percolate(&mut log).expect("log source");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(via_graph.k_max(), via_log.k_max());
        for k in 2..=via_graph.k_max().unwrap_or(1) {
            prop_assert_eq!(stream_cover(&via_graph, k), stream_cover(&via_log, k));
        }
    }

    /// The clique log round-trips arbitrary valid clique streams bit-for-bit.
    #[test]
    fn clique_log_round_trips(
        cliques in prop::collection::vec(prop::collection::vec(0u32..200, 1..12), 0..40)
    ) {
        // Canonicalise each generated member soup into a valid clique.
        let cliques: Vec<Vec<NodeId>> = cliques
            .into_iter()
            .map(|mut c| {
                c.sort_unstable();
                c.dedup();
                c
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("cpm_stream_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("rt.cliquelog");
        let mut w = CliqueLogWriter::create(&path, 200).expect("create");
        for c in &cliques {
            w.push(c).expect("push");
        }
        let info = w.finish().expect("finish");
        prop_assert_eq!(info.clique_count, cliques.len() as u64);

        let mut r = CliqueLogReader::open(&path).expect("open");
        let mut decoded = Vec::new();
        r.for_each(|c| decoded.push(c.to_vec())).expect("decode");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(decoded, cliques);
    }

    /// The last-seen approximation never over-merges: every approximate
    /// community is contained in some exact community (it may split
    /// exact communities, never fuse them).
    #[test]
    fn last_seen_refines_exact(edges in edge_soup(14, 50), k in 3usize..6) {
        let g = Graph::from_edges(14, edges);
        let exact = stream_percolate_at(&mut GraphSource::new(&g), k).expect("exact pass");
        let mut approx = StreamPercolator::with_mode(g.node_count(), k, Mode::Almost);
        GraphSource::new(&g)
            .replay(&mut |c| approx.push(c))
            .expect("in-memory source");
        for c in approx.finish() {
            let containers = exact
                .iter()
                .filter(|e| c.members.iter().all(|m| e.binary_search(m).is_ok()))
                .count();
            // Exact communities may overlap, so a small approximate
            // community can sit inside more than one — but never zero.
            prop_assert!(containers >= 1, "approx community {:?} not nested in exact cover", c.members);
        }
    }
}

/// The acceptance-criteria fixture: a seeded `topology::InternetModel`
/// instance, checked exhaustively at every level.
#[test]
fn stream_matches_batch_on_seeded_internet_model() {
    let topo = topology::generate(&topology::ModelConfig::tiny(7)).expect("preset is valid");
    assert_stream_matches_batch(&topo.graph);
}

/// Classic shapes where naive streaming merges go wrong.
#[test]
fn stream_matches_batch_on_adversarial_fixtures() {
    // Overlapping K5s, clique chain, star of triangles, two components.
    let fixtures: Vec<Graph> = vec![
        Graph::complete(6),
        Graph::from_edges(
            8,
            (0..5u32)
                .flat_map(|u| (u + 1..5).map(move |v| (u, v)))
                .chain((3..8u32).flat_map(|u| (u + 1..8).map(move |v| (u, v))))
                .collect::<Vec<_>>(),
        ),
        Graph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (0, 3),
                (3, 4),
                (4, 0),
                (0, 5),
                (5, 6),
                (6, 0),
            ],
        ),
        Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    ];
    for g in &fixtures {
        assert_stream_matches_batch(g);
    }
}
