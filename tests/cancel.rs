//! Cooperative-cancellation invariance: cancelling and resuming must
//! change *nothing* about the final answer, at every worker count, and
//! a cancelled run must leave the shared worker pool fully reusable.
//! (The pool's thread census is asserted in `tests/pool_census.rs`,
//! alone in its binary.)

use cliques::Kernel;
use cpm::Mode;
use cpm_stream::{
    stream_percolate_parallel_mode, CliqueSource, GraphSource, LogBuildOptions, LogSource,
};
use exec::CancelToken;

fn random_graph(n: u32, p: f64, seed: u64) -> asgraph::Graph {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = asgraph::GraphBuilder::with_nodes(n as usize);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(p) {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kclique_cancel_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A live (never-tripped) token is invisible: the cancellable pipeline
/// produces bit-identical results to the plain one at 1, 2, and 4
/// workers.
#[test]
fn live_token_is_invariant_at_every_worker_count() {
    let g = random_graph(70, 0.12, 23);
    let reference = cpm::percolate(&g);
    let token = CancelToken::new();
    for threads in [1, 2, 4] {
        let got = cpm::percolate_fused_cancellable(&g, threads, Kernel::Auto, &token, Mode::Exact)
            .expect("live token never cancels");
        assert_eq!(got, reference, "threads {threads}");
    }
}

/// Cancel-then-resume of a log build converges to the uninterrupted
/// answer: whatever prefix a cancelled build sealed, the resumed build
/// completes the identical clique stream, and the percolation of the
/// finished log matches the live graph at every worker count.
#[test]
fn cancel_then_resume_matches_uninterrupted() {
    let g = random_graph(50, 0.16, 31);
    let full: Vec<Vec<asgraph::NodeId>> = {
        let mut out = Vec::new();
        GraphSource::new(&g)
            .replay(&mut |c| out.push(c.to_vec()))
            .unwrap();
        out
    };
    let dir = scratch_dir("resume");
    let path = dir.join("log.cliquelog");
    let reference = cpm::percolate(&g);

    // Interruption points: immediately, mid-segment, at a segment
    // boundary, one short of the end.
    let checkpoint = 4;
    for cut in [0, 1, 3, 4, 9, full.len().saturating_sub(1)] {
        // A pre-tripped token models the worst case — cancelled before
        // the first clique — and exercises build_clique_log's
        // interrupted-but-sealed path end to end.
        let _ = std::fs::remove_file(&path);
        let tripped = CancelToken::new();
        tripped.cancel();
        let outcome = cpm_stream::build_clique_log(
            &g,
            &path,
            &LogBuildOptions {
                checkpoint_cliques: checkpoint,
                cancel: Some(tripped),
                ..LogBuildOptions::default()
            },
        )
        .unwrap();
        assert!(outcome.interrupted);
        assert_eq!(outcome.info.clique_count, 0);

        // Simulate a build cancelled after `cut` cliques: exactly the
        // sealed, finished log such a build leaves behind (a cancelled
        // build finishes its log; only crashes tear — tests/faultio.rs
        // covers those).
        let mut writer =
            cpm_stream::CliqueLogWriter::with_checkpoint(&path, g.node_count() as u32, checkpoint)
                .unwrap();
        for c in &full[..cut] {
            writer.push(c).unwrap();
        }
        writer.finish().unwrap();

        // Resume from the sealed prefix: the outcome must be the full
        // stream, whatever the cut.
        let outcome = cpm_stream::build_clique_log(
            &g,
            &path,
            &LogBuildOptions {
                checkpoint_cliques: checkpoint,
                resume: true,
                ..LogBuildOptions::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.resumed_from, cut as u64, "cut {cut}");
        assert!(!outcome.interrupted);
        assert_eq!(outcome.info.clique_count, full.len() as u64, "cut {cut}");

        let mut replayed = Vec::new();
        let mut src = LogSource::open(&path).unwrap();
        src.replay(&mut |c| replayed.push(c.to_vec())).unwrap();
        assert_eq!(replayed, full, "cut {cut}");

        let from_log =
            stream_percolate_parallel_mode(&mut LogSource::open(&path).unwrap(), 1, Mode::Exact)
                .unwrap();
        assert_eq!(from_log, reference, "cut {cut}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A cancelled parallel run drains through the normal job protocol: no
/// poisoned locks, no stuck workers — the next call does full, correct
/// work.
#[test]
fn cancelled_runs_leave_the_pool_reusable() {
    let g = random_graph(60, 0.15, 47);
    let reference = cpm::percolate(&g);
    let tripped = CancelToken::new();
    tripped.cancel();
    assert_eq!(cpm::percolate_parallel(&g, 4, Mode::Exact), reference);

    for threads in [2, 4] {
        assert!(
            cpm::percolate_fused_cancellable(&g, threads, Kernel::Auto, &tripped, Mode::Exact)
                .is_err(),
            "threads {threads}"
        );
        assert!(
            cliques::consume_max_cliques(
                &g,
                threads,
                Kernel::Auto,
                &tripped,
                &mut cliques::CliqueSet::new()
            )
            .is_err(),
            "threads {threads}"
        );
        // Immediately after each cancelled run the pool must do full
        // correct work again.
        let again = cpm::percolate_parallel(&g, threads, Mode::Exact);
        assert_eq!(again, reference, "threads {threads}");
    }
}
