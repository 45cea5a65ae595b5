//! A byte buffer kept only so that perfbench's in-process build can pass
//! the RIB to `p2o_bgp::RouteTable::from_mrt_lenient` as a `bytes::Bytes`
//! (`perfbench/src/inproc.rs`), as it did when this crate stood in for the
//! external `bytes` crate. The benchmark change that drops perfbench's
//! in-process replay (ROADMAP item 6) deletes this crate.

/// Owned bytes, taken over from a `Vec<u8>` without a copy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes(Vec<u8>);

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(v)
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}
