//! Fault-injected end-to-end recovery: a clique-log build killed
//! mid-write must lose nothing durable. The torn image recovers to a
//! segment-aligned prefix, a resumed build completes the log, and the
//! completed log is **bit-identical** to one written without the crash
//! — so every downstream percolation result is identical too.

use cpm_stream::faultio::{FaultPlan, FaultyWriter};
use cpm_stream::{
    stream_percolate_parallel_mode, CliqueLogReader, CliqueLogWriter, CliqueSource, GraphSource,
    LogBuildOptions, LogSource,
};

/// The engine's result replayed from the clique log at `path`.
fn percolate_log(path: &std::path::Path) -> cpm::CpmResult {
    stream_percolate_parallel_mode(&mut LogSource::open(path).unwrap(), 1, cpm::Mode::Exact)
        .unwrap()
}

/// Checkpoint cadence for these tests: small enough that a kill lands
/// well inside the stream, large enough to span several pushes.
const CHECKPOINT: usize = 8;

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
    let dir = std::env::temp_dir().join(format!("kclique_faultio_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// All cliques of `g` in stream order.
fn clique_stream(g: &asgraph::Graph) -> Vec<Vec<asgraph::NodeId>> {
    let mut out = Vec::new();
    GraphSource::new(g)
        .replay(&mut |c| out.push(c.to_vec()))
        .unwrap();
    out
}

#[test]
fn kill_mid_write_recover_resume_is_bit_identical() {
    let g = random_graph(60, 0.15, 177);
    let cliques = clique_stream(&g);
    assert!(
        cliques.len() > 3 * CHECKPOINT,
        "graph too sparse to make the test meaningful"
    );
    let dir = scratch_dir("kill");

    // Baseline: the log a crash-free build writes.
    let baseline_path = dir.join("baseline.cliquelog");
    let baseline = cpm_stream::build_clique_log(
        &g,
        &baseline_path,
        &LogBuildOptions {
            checkpoint_cliques: CHECKPOINT,
            ..LogBuildOptions::default()
        },
    )
    .unwrap();
    assert!(!baseline.interrupted);
    let baseline_bytes = std::fs::read(&baseline_path).unwrap();

    // Crash: the same build through a sink that dies mid-segment.
    let budget = baseline_bytes.len() as u64 / 2;
    let mut sink = FaultyWriter::new(FaultPlan::kill_after(budget));
    let mut writer =
        CliqueLogWriter::from_sink(&mut sink, g.node_count() as u32, CHECKPOINT).unwrap();
    let mut crashed = false;
    for c in &cliques {
        if writer.push(c).is_err() {
            crashed = true;
            break;
        }
    }
    assert!(crashed, "byte budget must be hit before the stream ends");
    drop(writer);
    assert!(sink.is_dead());
    let torn_path = dir.join("torn.cliquelog");
    std::fs::write(&torn_path, sink.into_bytes()).unwrap();

    // The torn file does not open as a finished log...
    let err = CliqueLogReader::open(&torn_path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // ...but recovery salvages every sealed segment: a whole number of
    // checkpoints, all of them a strict prefix of the true stream.
    let report = CliqueLogReader::recover(&torn_path).unwrap();
    assert!(!report.was_finished);
    assert!(report.cliques_recovered > 0, "kill landed before any seal");
    assert!(report.cliques_recovered < cliques.len() as u64);
    assert_eq!(report.cliques_recovered % CHECKPOINT as u64, 0);
    let mut salvaged = Vec::new();
    let mut reader = CliqueLogReader::open(&torn_path).unwrap();
    let mut buf = Vec::new();
    while reader.read_next(&mut buf).unwrap() {
        salvaged.push(buf.clone());
    }
    assert_eq!(salvaged[..], cliques[..salvaged.len()]);

    // Resume completes the log; the bytes match the crash-free build
    // exactly, because recovery cut at a checkpoint boundary.
    let outcome = cpm_stream::build_clique_log(
        &g,
        &torn_path,
        &LogBuildOptions {
            checkpoint_cliques: CHECKPOINT,
            resume: true,
            ..LogBuildOptions::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.resumed_from, report.cliques_recovered);
    assert!(!outcome.interrupted);
    assert_eq!(outcome.info.clique_count, cliques.len() as u64);
    assert_eq!(std::fs::read(&torn_path).unwrap(), baseline_bytes);

    // And the percolation results downstream are identical to the
    // live-graph percolation.
    assert_eq!(percolate_log(&torn_path), cpm::percolate(&g));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_at_every_interesting_budget_stays_recoverable() {
    let g = random_graph(40, 0.18, 9);
    let cliques = clique_stream(&g);
    let dir = scratch_dir("budgets");
    let baseline_path = dir.join("baseline.cliquelog");
    cpm_stream::build_clique_log(
        &g,
        &baseline_path,
        &LogBuildOptions {
            checkpoint_cliques: 4,
            ..LogBuildOptions::default()
        },
    )
    .unwrap();
    let full_len = std::fs::read(&baseline_path).unwrap().len() as u64;

    // Sweep budgets across the whole file, including killing inside
    // the header, inside a frame header, and inside the footer.
    let torn_path = dir.join("torn.cliquelog");
    for step in 0..=20 {
        let budget = full_len * step / 20;
        let mut sink = FaultyWriter::new(FaultPlan::kill_after(budget));
        let mut writer = match CliqueLogWriter::from_sink(&mut sink, g.node_count() as u32, 4) {
            Ok(w) => w,
            // Killed inside the 12-byte header: nothing to recover,
            // nothing to assert.
            Err(_) => continue,
        };
        let mut ok = true;
        for c in &cliques {
            if writer.push(c).is_err() {
                ok = false;
                break;
            }
        }
        if ok {
            let _ = writer.finish();
        } else {
            drop(writer);
        }
        std::fs::write(&torn_path, sink.into_bytes()).unwrap();

        let report = match CliqueLogReader::recover(&torn_path) {
            Ok(r) => r,
            Err(e) => {
                // Only a headerless stub is unrecoverable.
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "budget {budget}");
                continue;
            }
        };
        // Whatever survived must resume to the complete stream.
        let outcome = cpm_stream::build_clique_log(
            &g,
            &torn_path,
            &LogBuildOptions {
                checkpoint_cliques: 4,
                resume: true,
                ..LogBuildOptions::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.resumed_from, report.cliques_recovered);
        assert_eq!(
            outcome.info.clique_count,
            cliques.len() as u64,
            "budget {budget}"
        );
        assert_eq!(
            percolate_log(&torn_path),
            cpm::percolate(&g),
            "budget {budget}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flip_on_the_read_path_is_caught_not_believed() {
    use cpm_stream::faultio::FaultyReader;
    use std::io::Read;

    let g = random_graph(30, 0.2, 5);
    let dir = scratch_dir("readflip");
    let path = dir.join("log.cliquelog");
    cpm_stream::write_clique_log(&g, &path).unwrap();
    let clean = std::fs::read(&path).unwrap();

    // Stream the file through a reader that flips one bit in a payload
    // region, persist the corrupted copy, and decode it: the CRC must
    // reject it rather than hand back altered cliques.
    let offset = (clean.len() / 2) as u64;
    let mut corrupted = Vec::new();
    FaultyReader::new(&clean[..], offset, 0x10)
        .read_to_end(&mut corrupted)
        .unwrap();
    assert_ne!(clean, corrupted);
    std::fs::write(&path, &corrupted).unwrap();

    let mut saw_error = false;
    match CliqueLogReader::open(&path) {
        Err(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            saw_error = true;
        }
        Ok(mut reader) => {
            let mut buf = Vec::new();
            loop {
                match reader.read_next(&mut buf) {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(e) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                        saw_error = true;
                        break;
                    }
                }
            }
        }
    }
    assert!(saw_error, "a flipped payload bit must not decode silently");
    std::fs::remove_dir_all(&dir).unwrap();
}
