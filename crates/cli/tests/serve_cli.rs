//! Binary-level contract tests for the `serve` verb — exit codes,
//! SIGINT semantics, and the `--sweep` deprecation warning's stream.
//!
//! These spawn the real `kclique-cli` executable so they observe what a
//! shell observes: process exit codes, stdout vs stderr separation, and
//! signal handling.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kclique-cli"))
}

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kclique_cli_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A clique log for the triangle-chain fixture graph, built through the
/// real `clique-log build` verb.
fn fixture_log(name: &str) -> PathBuf {
    let dir = tmp_dir();
    let edges = dir.join(format!("{name}.edges"));
    std::fs::write(&edges, "0 1\n0 2\n1 2\n1 3\n2 3\n2 4\n3 4\n").expect("write edges");
    let log = dir.join(format!("{name}.cliquelog"));
    let status = bin()
        .args(["clique-log", "build", "--input"])
        .arg(&edges)
        .arg("--out")
        .arg(&log)
        .status()
        .expect("spawn clique-log build");
    assert!(status.success(), "clique-log build failed");
    log
}

fn sigint(child: &Child) {
    let status = Command::new("kill")
        .arg("-INT")
        .arg(child.id().to_string())
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -INT failed");
}

fn wait_with_deadline(mut child: Child, deadline: Duration) -> std::process::Output {
    let start = Instant::now();
    loop {
        match child.try_wait().expect("try_wait") {
            Some(_) => return child.wait_with_output().expect("wait_with_output"),
            None if start.elapsed() > deadline => {
                let _ = child.kill();
                panic!("child did not exit within {deadline:?}");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[test]
fn missing_snapshot_flag_exits_2() {
    let output = bin().arg("serve").output().expect("spawn");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--snapshot"), "{stderr}");
}

#[test]
fn corrupt_snapshot_exits_65() {
    let junk = tmp_dir().join("junk.snapshot");
    std::fs::write(&junk, "this is neither a clique log nor a snapshot").unwrap();
    let output = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--snapshot"])
        .arg(&junk)
        .output()
        .expect("spawn");
    assert_eq!(output.status.code(), Some(65), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn missing_snapshot_file_exits_1() {
    let output = bin()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--snapshot",
            "/no/such/snapshot",
        ])
        .output()
        .expect("spawn");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
}

#[test]
fn sigint_during_startup_exits_75() {
    let log = fixture_log("startup75");
    let child = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--snapshot"])
        .arg(&log)
        .env("KCLIQUE_SERVE_STARTUP_PAUSE_MS", "30000")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    // The child is parked in the startup pause; the snapshot load it
    // never got to starts by checking the (now tripped) token.
    std::thread::sleep(Duration::from_millis(300));
    sigint(&child);
    let output = wait_with_deadline(child, Duration::from_secs(30));
    assert_eq!(output.status.code(), Some(75), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("interrupted"), "{stderr}");
}

#[test]
fn sigint_while_serving_drains_and_exits_0() {
    let log = fixture_log("drain0");
    let mut child = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--snapshot"])
        .arg(&log)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // The daemon prints its bound address once it is accepting.
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("serving line");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in {line:?}"));

    // One real query proves it serves before we stop it.
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("write healthz");
    let mut reply = String::new();
    conn.read_to_string(&mut reply).expect("read healthz");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.contains("\"status\":\"ok\""), "{reply}");
    drop(conn);

    sigint(&child);
    let output = wait_with_deadline(child, Duration::from_secs(30));
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("drain stdout");
    assert!(rest.contains("shutdown"), "{rest}");
}

#[test]
fn communities_output_lands_on_stdout_only() {
    let dir = tmp_dir();
    let edges = dir.join("clean.edges");
    std::fs::write(&edges, "0 1\n0 2\n1 2\n").unwrap();
    let output = bin()
        .args(["communities", "--k", "2", "--input"])
        .arg(&edges)
        .output()
        .expect("spawn");
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.is_empty(),
        "a clean run writes nothing to stderr: {stderr}"
    );
    // The command's actual output still lands on stdout.
    assert!(stdout.contains("communities"), "{stdout}");
}
