//! The prefix → origin-ASN view the pipeline consumes.

use std::collections::{BTreeMap, BTreeSet};

use p2o_net::Prefix;

use p2o_util::ingest::QuarantinedRecord;

use crate::mrt::{MrtParseError, MrtReader, RibRecord};

/// Outcome of a lenient MRT parse: the route table built from every
/// recoverable record, plus one quarantine entry per rejected record.
#[derive(Debug, Clone, PartialEq)]
pub struct LenientTable {
    /// The table built from the records that decoded.
    pub table: RouteTable,
    /// Every rejected record, in byte-offset order.
    pub quarantined: Vec<QuarantinedRecord>,
}

/// All routed prefixes with their origin ASNs, as seen across collectors.
///
/// This is the paper's §4.1 artifact: the list of routed prefixes with
/// origins, after dropping prefixes less specific than /8 (IPv4) and /16
/// (IPv6), "since no such IP delegations have been made by RIRs". Prefixes
/// can have multiple origins (MOAS); all are kept.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RouteTable {
    routes: BTreeMap<Prefix, BTreeSet<u32>>,
    filtered: usize,
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the paper's visibility filter accepts the prefix.
    pub fn accepts(prefix: &Prefix) -> bool {
        match prefix {
            Prefix::V4(p) => p.len() >= 8,
            Prefix::V6(p) => p.len() >= 16,
        }
    }

    /// Records `origin` for `prefix`; silently drops filtered prefixes and
    /// counts them.
    pub fn add_route(&mut self, prefix: Prefix, origin: u32) {
        if !Self::accepts(&prefix) {
            self.filtered += 1;
            return;
        }
        self.routes.entry(prefix).or_default().insert(origin);
    }

    /// Ingests one RIB record (every peer's origins).
    pub fn add_rib_record(&mut self, record: &RibRecord) {
        for entry in &record.entries {
            for origin in entry.attrs.origin_asns() {
                self.add_route(record.prefix, origin);
            }
        }
    }

    /// Builds a table from a binary MRT dump.
    pub fn from_mrt(data: impl AsRef<[u8]>) -> Result<Self, MrtParseError> {
        let mut reader = MrtReader::new(data.as_ref())?;
        let mut table = RouteTable::new();
        while let Some(record) = reader.next_rib()? {
            table.add_rib_record(&record);
        }
        Ok(table)
    }

    /// Lenient variant of [`from_mrt`](Self::from_mrt): corrupt records
    /// are quarantined instead of failing the parse — one bad record
    /// costs one record, not the run. With `obs` it records a `bgp.parse`
    /// stage whose item count is the number of RIB records, ticks the
    /// reader's `mrt.*` counters, and adds one `mrt.decode` trace span per
    /// decode shard; record bodies decode on up to `threads` threads with
    /// identical results at any count.
    pub fn from_mrt_lenient(
        data: impl AsRef<[u8]>,
        obs: Option<&p2o_obs::Obs>,
        threads: usize,
    ) -> LenientTable {
        let timer = obs.map(|o| o.stage("bgp.parse"));
        let (reader, mut quarantined) = MrtReader::new_lenient(data.as_ref());
        let parsed = reader
            .map(|mut reader| {
                if let Some(o) = obs {
                    reader.instrument(o);
                }
                reader.read_all_lenient(threads)
            })
            .unwrap_or_default();
        // Every record is decoded: free an owned dump before the table
        // grows, so the table can reuse its memory.
        drop(data);
        let mut table = RouteTable::new();
        for record in &parsed.records {
            table.add_rib_record(record);
        }
        quarantined.extend(parsed.quarantined);
        if let Some(mut t) = timer {
            t.items(parsed.records.len() as u64);
            t.finish();
        }
        LenientTable { table, quarantined }
    }

    /// Number of routed prefixes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Number of IPv4 prefixes.
    pub fn v4_count(&self) -> usize {
        self.routes.keys().filter(|p| p.as_v4().is_some()).count()
    }

    /// Number of IPv6 prefixes.
    pub fn v6_count(&self) -> usize {
        self.routes.keys().filter(|p| p.as_v6().is_some()).count()
    }

    /// Prefixes dropped by the visibility filter.
    pub fn filtered_count(&self) -> usize {
        self.filtered
    }

    /// The origins of a prefix, if routed.
    pub fn origins(&self, prefix: &Prefix) -> Option<&BTreeSet<u32>> {
        self.routes.get(prefix)
    }

    /// Whether the exact prefix is routed.
    pub fn contains(&self, prefix: &Prefix) -> bool {
        self.routes.contains_key(prefix)
    }

    /// Iterates `(prefix, origins)` in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &BTreeSet<u32>)> {
        self.routes.iter()
    }

    /// All distinct origin ASNs.
    pub fn all_origins(&self) -> BTreeSet<u32> {
        self.routes.values().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AsPath, PathAttributes};
    use crate::mrt::{MrtWriter, PeerEntry, RibEntry};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn visibility_filter() {
        assert!(RouteTable::accepts(&p("10.0.0.0/8")));
        assert!(!RouteTable::accepts(&p("0.0.0.0/0")));
        assert!(!RouteTable::accepts(&p("8.0.0.0/7")));
        assert!(RouteTable::accepts(&p("2001::/16")));
        assert!(!RouteTable::accepts(&p("2000::/12")));
        let mut t = RouteTable::new();
        t.add_route(p("0.0.0.0/0"), 1);
        t.add_route(p("10.0.0.0/8"), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.filtered_count(), 1);
    }

    #[test]
    fn moas_prefixes_keep_all_origins() {
        let mut t = RouteTable::new();
        t.add_route(p("203.0.113.0/24"), 64512);
        t.add_route(p("203.0.113.0/24"), 64513);
        t.add_route(p("203.0.113.0/24"), 64512);
        let origins = t.origins(&p("203.0.113.0/24")).unwrap();
        assert_eq!(
            origins.iter().copied().collect::<Vec<_>>(),
            vec![64512, 64513]
        );
    }

    #[test]
    fn from_mrt_end_to_end() {
        let peers = vec![PeerEntry {
            bgp_id: 1,
            asn: 3356,
        }];
        let mut w = MrtWriter::new(0, 1, &peers);
        w.push(
            p("203.0.113.0/24"),
            &[RibEntry {
                peer_index: 0,
                originated_time: 0,
                attrs: PathAttributes::ebgp(AsPath::sequence(vec![3356, 18692]), 0),
            }],
        );
        w.push(
            p("2001:db8::/32"),
            &[RibEntry {
                peer_index: 0,
                originated_time: 0,
                attrs: PathAttributes::ebgp(AsPath::sequence(vec![3356, 701]), 0),
            }],
        );
        let data = w.finish();
        let t = RouteTable::from_mrt(&data).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(RouteTable::from_mrt_lenient(data, None, 4).table, t);
        assert_eq!(t.v4_count(), 1);
        assert_eq!(t.v6_count(), 1);
        assert!(t.origins(&p("203.0.113.0/24")).unwrap().contains(&18692));
        assert_eq!(t.all_origins().len(), 2);
    }
}
