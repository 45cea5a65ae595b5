#![warn(missing_docs)]

//! BGP substrate for Prefix2Org.
//!
//! The paper's routed-prefix list comes from RouteViews / RIPE RIS RIB dumps
//! read through BGPStream (§4.1). This crate provides the equivalent local
//! machinery:
//!
//! - [`attrs`] — BGP path attributes (ORIGIN, AS_PATH with AS_SET/SEQUENCE
//!   segments and 4-byte ASNs, NEXT_HOP), encoded into a `Vec<u8>` and
//!   decoded from a borrowed `&[u8]` through one checked cursor;
//! - [`mrt`] — an MRT TABLE_DUMP_V2-style RIB snapshot format
//!   (PEER_INDEX_TABLE + RIB_IPV4/IPV6_UNICAST records) with a writer and a
//!   streaming parser, so synthetic RIBs travel through the same binary path
//!   a real collector dump would;
//! - [`table`] — [`table::RouteTable`], the `prefix → origin
//!   ASNs` view the pipeline consumes, applying the paper's visibility
//!   filter (drop IPv4 prefixes shorter than /8 and IPv6 shorter than /16)
//!   and supporting MOAS (multi-origin) prefixes;
//! - [`pfx2as`] — CAIDA's `routeviews-prefix2as` text format (the §3
//!   interchange format), writer and reader.

pub mod attrs;
pub mod mrt;
pub mod pfx2as;
mod reader;
pub mod table;

pub use attrs::{AsPath, AsPathSegment, Origin, PathAttributes};
pub use mrt::{MrtParseError, MrtReader, MrtWriter, PeerEntry, RibEntry, RibRecord};
pub use table::RouteTable;
