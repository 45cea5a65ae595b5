#![warn(missing_docs)]

//! IP prefix and address-range arithmetic for Prefix2Org.
//!
//! This crate is the lowest layer of the Prefix2Org reproduction. It provides
//! canonical CIDR prefix types for IPv4 and IPv6, arbitrary address ranges as
//! they appear in WHOIS `inetnum`/`NetRange` objects, the minimal-CIDR
//! decomposition of a range, and address-span accounting used for the paper's
//! "fraction of routed address space" metrics.
//!
//! Design notes:
//!
//! - Prefixes are stored canonically: host bits below the prefix length are
//!   always zero. Constructors either reject ([`Prefix4::new`]) or truncate
//!   ([`Prefix4::new_truncated`]) non-canonical input, so every value of these
//!   types is a valid routing-table key.
//! - Ordering sorts by address first and then by prefix length, which yields
//!   the conventional "supernet before its subnets" order used throughout the
//!   pipeline.
//! - All types are `Copy`, comparable, hashable, and serialize to/from the
//!   usual textual form (`"203.0.113.0/24"`).

pub mod error;
pub mod prefix;
pub mod range;
pub mod span;
mod text;
pub mod v4;
pub mod v6;

pub use error::ParseError;
pub use prefix::{AddressFamily, Prefix, PrefixText};
pub use range::{IpRange, Range4, Range6};
pub use span::AddressSpan;
pub use v4::Prefix4;
pub use v6::Prefix6;

#[cfg(test)]
mod proptests;
