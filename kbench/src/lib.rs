//! kbench: one seeded command that measures the ingest → percolate →
//! snapshot → serve path of this repository end to end and per layer,
//! checks that every output is correct, and compares result sets
//! against the bounds in `BENCHMARK.json`. See `README.md`.

pub mod child;
pub mod compare;
pub mod digest;
pub mod gen;
pub mod host;
pub mod json;
pub mod loadgen;
pub mod serving;
pub mod stats;
pub mod system;
pub mod trace;
pub mod workload;
