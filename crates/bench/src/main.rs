//! `bench`: regenerates the committed `BENCH_*.json` records.
//!
//! ```text
//! cargo run --release -p bench -- ingest|kernel|pool|serve|faultio \
//!     [--substrate <name>]... [--iters <n>] [--requests <n>] [--seed <u64>] \
//!     [--out <path>] [--check]
//! cargo run --release -p bench -- all
//! ```
//!
//! Each suite's defaults are the settings of its committed record;
//! `all` reruns every suite at its defaults and rewrites all five files
//! in the current directory. Prints a table of every row to stdout.
//! Exits 2 on a usage error, and 1 when a `--check` gate fails or a
//! record cannot be written.

#![forbid(unsafe_code)]

use std::process::ExitCode;

#[global_allocator]
static ALLOC: bench::memprof::CountingAlloc = bench::memprof::CountingAlloc;

fn main() -> ExitCode {
    bench::cli(&std::env::args().skip(1).collect::<Vec<_>>())
}
