//! `p2o-serve` — the long-running Prefix2Org lookup service.
//!
//! The pipeline ends at a batch JSONL export; this crate turns that
//! artifact into something measurement consumers can *query* (the
//! ROADMAP's production-serving north star, in the style of Routinator's
//! HTTP stack): a hand-rolled HTTP/1.1 server over `std::net` answering
//! per-prefix lookups with full provenance, batch queries, RTR-style
//! serial/reset table dumps, and Prometheus metrics — with zero external
//! dependencies, matching the workspace's air-gapped build rule.
//!
//! Architecture, bottom-up:
//!
//! - [`http`]: an incremental request parser (arbitrary read splits,
//!   pipelining, strict limits, deterministic 400s) whose requests borrow
//!   its buffer, the one response head writer, and the vectored write
//!   that sends a head and its body without joining them;
//! - [`snapshot`]: the immutable, fully precomputed [`Snapshot`] a query
//!   is answered from, and the [`SnapshotCell`] generation-counter swap
//!   cell giving readers a lock-free steady-state path;
//! - [`access`]: the structured JSONL access log, written through the
//!   Vfs/atomic machinery so chaos fault plans cover it;
//! - [`server`]: the thread-per-connection runtime, endpoint routing,
//!   `serve.*` metrics (cumulative + rolling-window), request ids, the
//!   flight recorder, `/status` + `/debug/*` introspection, the
//!   `/reload` swap discipline, and graceful drain. Each connection keeps
//!   one body buffer that every endpoint writes its answer into, so a
//!   steady stream of `/prefix` and `/batch` requests allocates nothing;
//! - [`client`]: a minimal blocking client used by the tests and the
//!   chaos harness.
//!
//! Serving performance is measured end to end by perfbench
//! (`BENCHMARK.json` and `perfbench/` at the repository root).
//!
//! The correctness anchor: every snapshot serves one representation, a
//! validated [`prefix2org::FrozenDataset`] — attached from `world.p2ob`
//! when it is fresh, frozen in memory at load when it is missing or
//! stale. A served lookup's `provenance` is the matched record's stored
//! trace: what `prefix2org explain`, which loads its dataset the way
//! `serve` boots, prints for the query.

pub mod access;
pub mod client;
pub mod http;
pub mod server;
pub mod snapshot;

pub use access::AccessLog;
pub use client::{HttpClient, HttpResponse};
pub use http::{Request, RequestParser};
pub use server::{spawn, ServerConfig, ServerHandle, SnapshotLoader, ENDPOINTS};
pub use snapshot::{Answer, LoadTiming, Snapshot, SnapshotCell, SnapshotReader};
