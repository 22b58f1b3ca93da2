//! A reader that leaves early — `kclique-cli communities … | head -1` —
//! ends the run quietly: exit 0 and nothing on stderr, not a panic.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn communities_into_a_closed_pipe_exits_zero_quietly() {
    let dir = std::env::temp_dir().join(format!("kclique_cli_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // 20,000 disjoint triangles print one line each at k = 3: several
    // times what a pipe buffers, so the run is still writing when the
    // reader leaves.
    let edges = dir.join("triangles.edges");
    let mut text = String::new();
    for t in 0..20_000u32 {
        let (a, b, c) = (3 * t, 3 * t + 1, 3 * t + 2);
        writeln!(text, "{a} {b}\n{a} {c}\n{b} {c}").unwrap();
    }
    std::fs::write(&edges, text).expect("write edges");

    let mut child = Command::new(env!("CARGO_BIN_EXE_kclique-cli"))
        .args(["communities", "--k", "3", "--input"])
        .arg(&edges)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn kclique-cli");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("first line");
    assert_eq!(first, "# 20000 3-clique communities\n");
    // `head -1` exits: the read end closes under the writer.
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait");
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "a closed pipe is no error: {stderr}");
}
