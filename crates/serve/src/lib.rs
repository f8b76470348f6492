//! # eel-serve: a concurrent binary-analysis service
//!
//! EEL (Larus & Schnarr, PLDI 1995) is a *library*: every tool links it
//! and re-runs the expensive parts — image loading, §3.1 routine
//! discovery, CFG construction — from scratch. This crate wraps the
//! library in a long-running daemon so those artifacts are computed once
//! and shared: a std-only TCP server ([`Server`]) with a worker pool, a
//! bounded request queue with explicit [`Response::Busy`] backpressure,
//! and a content-addressed, single-flight LRU cache keyed by (hash of the
//! WEF bytes, operation), with an optional on-disk spill tier
//! ([`DiskCache`], `ServerConfig::cache_dir`) so restarts and evictions
//! re-read results instead of re-analyzing. Responses carry a
//! [`CacheTier`] telling the client which tier served them.
//!
//! Batch clients can open a **pipelined session** (protocol version 2,
//! [`Client::open_session`] / [`Client::batch`]): one connection
//! carries many tagged requests, answered out of completion order
//! under a server-granted in-flight window, with per-frame
//! [`Response::Busy`] on overflow. Each request's analysis runs on the
//! executor that picked it up; the executor pool is the daemon's
//! parallelism.
//!
//! Below the whole-image cache sits a **per-routine fragment tier**
//! ([`FragmentTier`], [`run_op_fragments`]): each analysis op
//! decomposes into per-routine fragments keyed by a position-independent
//! content key over the routine's own bytes, so a near-duplicate image —
//! one routine changed out of N — recomputes only the changed routine
//! and stitches the rest from cache, byte-identical to a cold run.
//! Computed responses report the reuse as `fragments: Some((hits,
//! total))` ([`Response::Ok`]).
//!
//! Operations: `disasm`, `cfg-summary`, `liveness`, `stat`,
//! `instrument` (qpt-style edge-count instrumentation returning the
//! edited executable), plus the control ops `ping`, `metrics` (renders
//! the eel-obs registry), and `shutdown`. The `eelserved` binary runs the
//! daemon; `eelctl` (in eel-tools) is the command-line client.
//!
//! ```
//! use eel_serve::{CacheTier, Client, Payload, Response, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default())?;
//! let client = Client::connect(server.local_addr().to_string());
//!
//! let image = eel_cc::compile_str("fn main() { return 3; }", &eel_cc::Options::default())?;
//! let wef = image.to_bytes();
//!
//! let first = client.op("stat", Payload::Inline(wef.clone()))?;
//! let second = client.op("stat", Payload::Inline(wef))?;
//! match (first, second) {
//!     (
//!         Response::Ok { tier: CacheTier::Computed, .. },
//!         Response::Ok { tier: CacheTier::Memory, .. },
//!     ) => {}
//!     other => panic!("expected computed then memory hit, got {other:?}"),
//! }
//!
//! server.shutdown();
//! server.wait();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The wire format is specified in `docs/PROTOCOL.md`, the crate's place
//! in the pipeline in `docs/ARCHITECTURE.md`, and running the daemon in
//! production in `docs/OPERATIONS.md`.

mod cache;
mod client;
mod cluster;
mod disk;
mod ops;
mod proto;
mod reactor;
mod server;

pub use cache::{content_hash, CostClass, SingleFlightLru};
pub use client::{Backoff, Client, Session};
pub use cluster::{ClusterClient, VNODES_PER_SHARD};
pub use disk::{DiskCache, DISK_FORMAT_VERSION};
pub use ops::{
    run_op, run_op_fragments, run_op_with, FragmentStats, FragmentTier, NoFragments, CACHED_OPS,
};
pub use proto::{
    read_frame, write_frame, CacheTier, Discovery, Payload, Request, Response, SessionFrame,
    SessionReply, MAX_FRAME, SESSION_VERSION, VERSION,
};
pub use server::{Server, ServerConfig};
