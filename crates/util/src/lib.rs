#![warn(missing_docs)]

//! Shared plumbing for the Prefix2Org workspace.
//!
//! Small, dependency-free building blocks used by several crates:
//!
//! - [`UnionFind`] — disjoint-set forest with path compression and union by
//!   rank; the engine behind ASN sibling clustering and the §5.3.3 prefix
//!   cluster merge.
//! - [`Interner`] — string interner handing out dense `u32` symbols, so hot
//!   paths compare organization names by id instead of by string.
//! - [`digest`] — deterministic FNV-1a content digests, used to simulate
//!   RPKI key identifiers and certificate signatures.
//! - [`tsv`] — a minimal, strict TSV reader/writer for the flat data-set
//!   files the substrates exchange.
//! - [`json`] — a dependency-free JSON value/parser/writer; the workspace
//!   builds with no registry access, so everything that would use
//!   `serde_json` goes through this instead.
//! - [`check`] — a miniature deterministic property-testing harness
//!   standing in for `proptest` under the same no-registry constraint.
//! - [`ingest`] — the typed ingest-error taxonomy and record quarantine
//!   store shared by the MRT, WHOIS, and RPKI parsers.
//! - [`vfs`] — the injectable filesystem seam every artifact writer goes
//!   through; production is `std::fs`, fault mode injects deterministic
//!   short writes, ENOSPC, EIO, and named kill-points.
//! - [`atomic`] — the atomic-write protocol (tmp + fsync + rename) and the
//!   checksummed frame format with torn-write detection on read.
//! - [`manifest`] — the `MANIFEST.tsv` per-artifact digest sidecar that
//!   `build` verifies against and `fsck` audits.
//! - [`arena`] — the section-table binary container behind the frozen
//!   `world.p2ob` dataset artifact: named byte sections sliced zero-copy
//!   out of one arena buffer.

pub mod arena;
pub mod atomic;
pub mod check;
pub mod digest;
pub mod ingest;
pub mod interner;
pub mod json;
pub mod manifest;
pub mod tsv;
pub mod union_find;
pub mod vfs;

pub use atomic::{read_framed, write_atomic, write_framed, FrameError};
pub use digest::{fnv1a_64, Digest};
pub use ingest::{IngestError, IngestErrorKind, IngestLayer, Quarantine, QuarantinedRecord};
pub use interner::{Interner, Symbol};
pub use json::Json;
pub use manifest::{Manifest, VerifyIssue};
pub use union_find::UnionFind;
pub use vfs::{FaultPlan, Vfs};
