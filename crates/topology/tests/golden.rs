//! Golden digests of the generator: every preset below must keep
//! producing the same topology, byte for byte.
//!
//! A digest is a 64-bit FNV-1a over the edge list, each AS's
//! `(asn, tier, countries)`, each IXP's `(name, country, participants,
//! large)` and the merge report. A generator change that moves any of
//! them changes every result built on the substrate, so an intended
//! change must update the table here in the same commit.
//!
//! Tier-1 runs the tiny, small and default presets. The medium and full
//! presets are ignored by default; run them with
//! `cargo test --release -p topology --test golden -- --ignored`.

use topology::{generate, AsTopology, ModelConfig, Tier};

/// 64-bit FNV-1a, fed in little-endian fixed-width words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn digest(topo: &AsTopology) -> u64 {
    let mut h = Fnv::new();
    h.word(topo.graph.node_count() as u64);
    h.word(topo.graph.edge_count() as u64);
    for (u, v) in topo.graph.edges() {
        h.word(u64::from(u));
        h.word(u64::from(v));
    }
    for a in &topo.ases {
        h.word(u64::from(a.asn));
        h.word(match a.tier {
            Tier::Tier1 => 0,
            Tier::Continental => 1,
            Tier::Regional => 2,
            Tier::Stub => 3,
        });
        h.word(a.countries.len() as u64);
        for &c in &a.countries {
            h.word(u64::from(c));
        }
    }
    h.word(topo.ixps.len() as u64);
    for ixp in &topo.ixps {
        h.word(ixp.name.len() as u64);
        h.bytes(ixp.name.as_bytes());
        h.word(u64::from(ixp.country));
        h.word(ixp.participants.len() as u64);
        for &p in &ixp.participants {
            h.word(u64::from(p));
        }
        h.word(u64::from(ixp.large));
    }
    match &topo.merge_report {
        None => h.word(0),
        Some(r) => {
            h.word(1);
            for x in [
                r.true_edges,
                r.campaign_edge_counts[0],
                r.campaign_edge_counts[1],
                r.campaign_edge_counts[2],
                r.union_edges,
                r.spurious_injected,
                r.removed_by_cleanup,
                r.true_edges_missed,
                r.nodes_dropped,
                r.final_nodes,
                r.final_edges,
            ] {
                h.word(x as u64);
            }
        }
    }
    h.0
}

/// Generates every `(preset, seed)` and compares its digest with the
/// recorded one, reporting all mismatches at once.
fn check(preset: &str, make: fn(u64) -> ModelConfig, expected: &[(u64, u64)]) {
    let mismatches: Vec<String> = expected
        .iter()
        .filter_map(|&(seed, want)| {
            let got = digest(&generate(&make(seed)).expect("preset is valid"));
            (got != want).then(|| format!("{preset}({seed}): {got:#018x}, recorded {want:#018x}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "digests moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn tiny_presets() {
    check(
        "tiny",
        ModelConfig::tiny,
        &[
            (0, 0x9d23_7a36_29ff_c66b),
            (1, 0x94b3_2550_1dad_f370),
            (2, 0xfb7e_a9cb_e398_9b9f),
            (3, 0x7226_12dd_ddbf_c073),
            (4, 0x4519_ae2d_d912_3383),
            (5, 0x3a84_7ebc_c536_cb10),
            (6, 0x9124_9e6a_1f49_c6bb),
            (7, 0x945e_5da9_0da2_2ef1),
        ],
    );
}

#[test]
fn small_presets() {
    check(
        "small",
        ModelConfig::small,
        &[(7, 0xc385_6300_4219_33d9), (42, 0x36f1_5fbc_a5b5_d26c)],
    );
}

#[test]
fn default_preset() {
    check(
        "default",
        ModelConfig::default_scale,
        &[(42, 0x2a07_5e18_2bde_c0c4)],
    );
}

#[test]
#[ignore = "experiment-scale; run in release mode"]
fn medium_presets() {
    check(
        "medium",
        ModelConfig::medium,
        &[(7, 0x8a58_52f4_343c_d5fb), (42, 0x1d62_0c13_66bd_77c9)],
    );
}

#[test]
#[ignore = "experiment-scale; run in release mode"]
fn full_presets() {
    check(
        "full",
        ModelConfig::full_scale,
        &[(7, 0xe004_89ac_8233_ccb0), (42, 0x56df_6f11_91b1_f19a)],
    );
}
