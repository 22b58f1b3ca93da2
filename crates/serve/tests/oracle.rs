//! Oracle test: every `membership(as, k)` answer served over HTTP must
//! equal level k of a fresh `cpm::percolate` run on the same graph — the
//! daemon's snapshot path (clique log -> streaming sweep -> frozen
//! index -> wire) against the reference batch percolator.

mod common;

use common::{extract_ids, extract_members, write_log, Client, TestServer};

#[test]
fn served_membership_matches_batch_percolation() {
    let topo = topology::generate(&topology::ModelConfig::tiny(7)).expect("preset is valid");
    let g = topo.graph;
    let n = g.node_count();
    let log = write_log(&g, "oracle.cliquelog");
    let server = TestServer::start(&log, 4);
    let mut client = Client::connect(server.addr);

    let (_, stats) = client.request("GET", "/stats");
    let k_max: u32 = stats
        .split("\"k_max\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .and_then(|s| s.parse().ok())
        .expect("k_max in stats");
    assert!(k_max >= 3, "tiny preset should percolate past k=2");

    let result = cpm::percolate(&g);
    for k in 2..=k_max {
        // Reference: communities at k, as sorted member sets per AS.
        let reference = result.cover(k);
        let mut expected: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
        for community in &reference {
            let mut members = community.clone();
            members.sort_unstable();
            for &v in &members {
                expected[v as usize].push(members.clone());
            }
        }
        for row in &mut expected {
            row.sort();
        }

        for v in 0..n as u32 {
            let (status, body) = client.request("GET", &format!("/membership/{v}?k={k}"));
            assert_eq!(status, 200, "{body}");
            let mut served: Vec<Vec<u32>> = Vec::new();
            for id in extract_ids(&body) {
                let (status, detail) = client.request("GET", &format!("/community/{id}"));
                assert_eq!(status, 200, "{detail}");
                served.push(extract_members(&detail));
            }
            served.sort();
            assert_eq!(
                served, expected[v as usize],
                "membership mismatch for AS {v} at k={k}"
            );
        }
    }
}
