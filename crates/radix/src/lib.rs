#![warn(missing_docs)]

//! Path-compressed binary radix (patricia) trees keyed by IP prefixes.
//!
//! The WHOIS delegation hierarchy (§5.2 of the paper) is naturally a prefix
//! tree: every sub-delegation is a more-specific block of its parent. This
//! crate provides the tree the pipeline builds from WHOIS records and queries
//! once per routed prefix:
//!
//! - [`RadixTree`] — a single-family tree, generic over the key type via
//!   [`RadixKey`] (implemented for [`p2o_net::Prefix4`] and
//!   [`p2o_net::Prefix6`]).
//! - [`PrefixMap`] — a dual-family façade keyed by [`p2o_net::Prefix`].
//!
//! The core queries are:
//!
//! - [`RadixTree::longest_match`] — the most specific stored prefix covering a
//!   lookup key (classic routing-table semantics);
//! - [`RadixTree::covering`] — the full *chain* of stored covering prefixes,
//!   most specific first — exactly the "move up the ownership tree" walk of
//!   §5.2;
//! - [`RadixTree::subtree`] — every stored prefix contained in a block, used
//!   to examine which allocation types re-delegate (§B.1).
//!
//! Nodes live in a `Vec` arena; internal "glue" nodes carry no value and are
//! created on demand when two stored prefixes diverge below an existing node.

pub mod freeze;
pub mod key;
pub mod map;
pub mod tree;

pub use freeze::{freeze_v4, freeze_v6, LpmView4, LpmView6, LPM_LANES, LPM_NONE};
pub use key::RadixKey;
pub use map::PrefixMap;
pub use tree::RadixTree;

#[cfg(test)]
mod proptests;
