//! Replaying a clique source into the engine against the graph path:
//! bit-identical results in both modes, on random graphs and on a seeded
//! synthetic Internet, plus the clique log's round trip.

use asgraph::{Graph, NodeId};
use cpm::{CpmResult, Mode};
use cpm_stream::{
    stream_percolate_parallel_mode, CliqueLogReader, CliqueLogWriter, CliqueSource, GraphSource,
    LogSource,
};
use proptest::prelude::*;

fn edge_soup(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

fn replay<S: CliqueSource>(source: &mut S, mode: Mode) -> CpmResult {
    stream_percolate_parallel_mode(source, 1, mode).expect("source replays")
}

/// Asserts that replaying `g`'s clique stream equals percolating `g`
/// bit for bit in both modes, and that parent links point at true
/// containers.
fn assert_stream_matches_batch(g: &Graph) {
    for mode in [Mode::Exact, Mode::Almost] {
        let stream = replay(&mut GraphSource::new(g), mode);
        assert_eq!(stream, cpm::percolate_parallel(g, 1, mode), "{mode}");
        for (i, level) in stream.levels.iter().enumerate() {
            for c in &level.communities {
                if level.k == 2 {
                    assert!(c.parent.is_none());
                } else {
                    let parent = &stream.levels[i - 1].communities
                        [c.parent.expect("k>2 has parent") as usize];
                    assert!(
                        c.members.iter().all(|&v| parent.contains(v)),
                        "level {} parent does not contain child",
                        level.k
                    );
                }
            }
        }
    }
}

proptest! {
    /// Replaying the clique stream is the graph path, bit for bit, on
    /// random graphs.
    #[test]
    fn stream_sweep_matches_batch(edges in edge_soup(14, 50)) {
        let g = Graph::from_edges(14, edges);
        assert_stream_matches_batch(&g);
    }

    /// A single level of the replay is the batch run's level.
    #[test]
    fn stream_at_matches_batch_at(edges in edge_soup(14, 50), k in 2u32..6) {
        let g = Graph::from_edges(14, edges);
        let got = replay(&mut GraphSource::new(&g), Mode::Exact).cover(k);
        prop_assert_eq!(got, cpm::percolate(&g).cover(k));
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
        let via_graph = replay(&mut GraphSource::new(&g), Mode::Exact);
        let via_log = replay(&mut LogSource::open(&path).expect("log open"), Mode::Exact);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(via_graph, via_log);
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
