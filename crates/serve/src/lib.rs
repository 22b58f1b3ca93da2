//! Long-lived community query daemon over a frozen percolation sweep.
//!
//! Running a full k-clique percolation of an AS graph takes seconds to
//! minutes; answering "which communities contain AS 3356?" against the
//! *result* takes microseconds. This crate splits those concerns: a
//! threaded HTTP/1.1 server loads one percolation sweep into an
//! immutable [`cpm::SnapshotIndex`] and serves point queries over it,
//! while rebuilds happen on background threads and swap in atomically —
//! readers are never blocked by a reload and never see a half-built
//! index.
//!
//! The server is **std-only** by design (the workspace vendors its few
//! dependencies; an async stack is neither available nor needed): a
//! nonblocking accept loop and a fixed set of connection workers ride
//! the same [`exec::Pool`] machinery as the compute pipeline, and the
//! wire format is hand-parsed HTTP/1.1 with the same hardened, bounded
//! decoding style as the clique log reader.
//!
//! # Endpoints
//!
//! | Route | Answer |
//! |---|---|
//! | `GET /membership/{as}?k=` | communities containing the AS (all levels, or level `k`) |
//! | `GET /community/{id}` | one community: members, size, parent, children |
//! | `GET /common/{a}/{b}?k=` | deepest community containing both ASes (`k` = minimum level) |
//! | `GET /tree/{id}` | a community's ancestor chain and children |
//! | `GET /healthz` | liveness + snapshot generation |
//! | `GET /stats` | counters, snapshot shape, reload state |
//! | `POST /reload` | rebuild the snapshot from disk, publish atomically |
//!
//! All bodies are JSON; ids use the canonical `k{k}id{idx}` form from
//! [`cpm::CommunityId`].
//!
//! # Quick start
//!
//! ```no_run
//! use exec::CancelToken;
//! use serve::{ServeConfig, Server};
//!
//! let config = ServeConfig::new("127.0.0.1:7117", "internet.cliquelog");
//! let token = CancelToken::new();
//! token.watch_sigint();
//! let server = Server::bind(&config, &token).expect("snapshot loads, port free");
//! println!("listening on {}", server.local_addr().unwrap());
//! server.run(&token).unwrap(); // returns after SIGINT
//! ```

pub mod http;
pub mod json;
mod server;
mod snapshot;

pub use server::{ServeConfig, ServeError, Server, Stats, ACCEPT_POLL, READ_POLL};
pub use snapshot::{load_index, load_snapshot, LoadError, Snapshot};
