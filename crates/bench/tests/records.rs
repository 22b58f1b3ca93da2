//! The committed `BENCH_*.json` records match the harness that writes
//! them: every row has exactly the schema's keys in order, carries its
//! file's suite, and names an op that suite runs.

use std::path::Path;

#[test]
fn committed_records_match_the_harness() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for suite in &bench::SUITES {
        let file = format!("BENCH_{}.json", suite.name);
        let text = std::fs::read_to_string(root.join(&file)).expect("read record");
        let body = text
            .strip_prefix("[\n")
            .and_then(|t| t.strip_suffix("}\n]\n"));
        let body = body.unwrap_or_else(|| panic!("{file}: not a JSON array of rows"));
        for (i, row) in body.split("},\n").enumerate() {
            let at = format!("{file} row {}", i + 1);
            let object = row.strip_prefix("  {");
            let object = object.unwrap_or_else(|| panic!("{at}: not one object per line"));
            let pairs: Vec<_> = object.split(", ").map(|kv| kv.split_once(": ")).collect();
            let keys: Vec<&str> = pairs
                .iter()
                .map(|p| p.map_or("", |(k, _)| k.trim_matches('"')))
                .collect();
            assert_eq!(keys, bench::COLUMNS, "{at}: keys");
            let value = |i: usize| pairs[i].expect("every key checked").1.trim_matches('"');
            assert_eq!(value(0), suite.name, "{at}: suite");
            let op = value(2);
            assert!(
                suite.ops.contains(&op),
                "{at}: `bench {}` runs no op {op:?}",
                suite.name
            );
        }
    }
}
