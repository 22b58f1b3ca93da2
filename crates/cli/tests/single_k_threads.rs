//! `communities --k` honours `--threads`: the single-level run goes
//! through the same pooled pipeline as `--all-k`, so a fixed worker
//! count above one grows the process-wide pool.
//!
//! `exec::Pool::global()` is shared by everything in a process, so this
//! binary holds exactly one `#[test]` and runs the command in-process:
//! nothing else can grow the pool while it counts.

use kclique_cli::Command;

#[test]
fn single_k_runs_on_the_requested_workers() {
    let dir = std::env::temp_dir().join(format!("kclique_cli_single_k_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let edges = dir.join("chain.edges");
    // Two K4s sharing a triangle plus a pendant triangle: enough
    // vertices that the enumerator keeps every requested worker.
    std::fs::write(
        &edges,
        "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n1 4\n2 4\n3 4\n4 5\n4 6\n5 6\n",
    )
    .expect("write edges");
    let input = edges.to_str().expect("utf-8 temp path").to_owned();

    assert_eq!(exec::Pool::global().spawned_threads(), 0);
    let args = [
        "communities",
        "--input",
        &input,
        "--k",
        "3",
        "--threads",
        "3",
    ];
    Command::parse(args.iter().map(|a| (*a).to_owned()))
        .expect("valid command line")
        .run()
        .expect("communities --k runs");
    assert!(
        exec::Pool::global().spawned_threads() >= 2,
        "--threads 3 must reach the pool, spawned {}",
        exec::Pool::global().spawned_threads()
    );
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
