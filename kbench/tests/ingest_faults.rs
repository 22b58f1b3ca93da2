//! The dirty-source generator's own accounting matches what lenient
//! ingest reports for the same bytes: every injected duplicate,
//! multi-origin expansion and malformed line is counted.

use kbench::gen::{render_source, AsnMap, Expected, Rng, SourceSpec, Style};
use kbench::system;
use std::path::PathBuf;

#[test]
fn ingest_counters_equal_the_injected_faults() {
    let n = 600;
    let mut rng = Rng::new(5, 0);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.chance(0.02) {
                edges.push((u, v));
            }
        }
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ingest_faults");
    std::fs::create_dir_all(&dir).unwrap();
    let map = AsnMap::new(17);
    let mut expect = Expected::default();
    let mut paths = Vec::new();
    for (i, (style, moas)) in [
        (Style::AsLinks, 0.3),
        (Style::AsLinks, 0.0),
        (Style::Dimes, 0.0),
        (Style::Edges, 0.0),
    ]
    .into_iter()
    .enumerate()
    {
        let spec = SourceSpec {
            style,
            sample: 0.7,
            duplicate: 0.05,
            malformed: 0.02,
            moas,
        };
        let mut text = String::new();
        render_source(
            &edges,
            &map,
            &spec,
            &mut Rng::new(5, 10 + i as u64),
            &mut expect,
            &mut text,
        );
        let path = dir.join(format!("s{i}.{}", style.extension()));
        std::fs::write(&path, text).unwrap();
        paths.push(path);
    }
    assert!(
        expect.malformed >= 4 * 20,
        "{} malformed lines",
        expect.malformed
    );
    assert!(
        expect.raw_pairs > expect.records,
        "multi-origin sets expanded"
    );

    let mut ing = system::Ingest::new(true, true);
    for p in &paths {
        ing.source(p).unwrap();
    }
    let out = ing.finish().unwrap();
    let links = expect.distinct_links();
    let keep = system::largest_component(&system::graph_from_edges(n as usize, &links));
    let kept = links.iter().filter(|&&(u, _)| keep[u as usize]).count() as u64;
    let c = out.counts;
    assert_eq!(c.records, expect.records);
    assert_eq!(c.skipped, expect.malformed);
    assert_eq!(c.raw_records, expect.raw_pairs);
    assert_eq!(c.self_loops_removed, 0);
    assert_eq!(c.duplicates_removed, expect.raw_pairs - links.len() as u64);
    assert_eq!(c.nodes, keep.iter().filter(|&&k| k).count() as u64);
    assert_eq!(c.edges, kept);
    // External ids are the generator's AS numbers.
    let mut asns: Vec<u32> = (0..n)
        .filter(|&v| keep[v as usize])
        .map(|v| map.asn(v))
        .collect();
    asns.sort_unstable();
    assert_eq!(out.asn, asns);
    std::fs::remove_dir_all(&dir).unwrap();
}
