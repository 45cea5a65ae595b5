//! Assembling parsed WHOIS dumps into queryable delegation trees.

use std::collections::HashMap;

use p2o_net::Prefix;
use p2o_radix::PrefixMap;
use p2o_util::{Interner, Symbol};

use crate::alloc::{AllocationType, OwnershipLevel};
use crate::record::{OrgRef, RawWhoisRecord};
use crate::registry::{Nir, Registry, Rir};

/// One resolved delegation on a prefix: the holder organization, the
/// allocation type, and provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelegationEntry {
    /// The holder's organization name (handles already resolved), as a
    /// symbol into the owning tree's [`DelegationTree::names`] interner.
    pub org_name: Symbol,
    /// The allocation type of this (sub-)delegation.
    pub alloc: AllocationType,
    /// The registry the record came from.
    pub registry: Registry,
    /// `YYYYMMDD` ordinal of the record's last modification.
    pub last_modified: u32,
}

impl DelegationEntry {
    /// Table 1 classification of this entry.
    pub fn ownership_level(&self) -> OwnershipLevel {
        self.alloc.ownership_level()
    }
}

/// The per-family delegation trees built from WHOIS records (§5.2 "Building
/// IP Delegation Tree").
///
/// Each stored prefix carries *all* its delegation entries, sorted by
/// [`AllocationType::chain_depth`] — a prefix registered both as an ARIN
/// `Reallocation` and a `Reassignment` (Listing 1) keeps both, in hierarchy
/// order.
#[derive(Debug, Default)]
pub struct DelegationTree {
    map: PrefixMap<Vec<DelegationEntry>>,
    names: Interner,
}

impl DelegationTree {
    /// The delegation entries registered exactly on `prefix`.
    pub fn entries(&self, prefix: &Prefix) -> Option<&Vec<DelegationEntry>> {
        self.map.get(prefix)
    }

    /// The interner that resolves every [`DelegationEntry::org_name`] symbol
    /// produced by this tree (and everything derived from it downstream).
    pub fn names(&self) -> &Interner {
        &self.names
    }

    /// Resolves an organization-name symbol to its string.
    pub fn name(&self, sym: Symbol) -> &str {
        self.names.resolve(sym)
    }

    /// The covering chain for a routed prefix: every registered block that
    /// equals or contains it, most specific first, with its entries.
    pub fn covering_chain(&self, prefix: &Prefix) -> Vec<(Prefix, &Vec<DelegationEntry>)> {
        self.map.covering(prefix)
    }

    /// Like [`covering_chain`](Self::covering_chain), but also reports how
    /// many radix nodes the LPM walk visited — the `radix.lpm` provenance
    /// detail for `p2o explain`.
    pub fn covering_chain_with_depth(
        &self,
        prefix: &Prefix,
    ) -> (Vec<(Prefix, &Vec<DelegationEntry>)>, usize) {
        self.map.covering_with_depth(prefix)
    }

    /// All registered blocks inside `prefix` (used for the §B.1 data-driven
    /// check of which allocation types re-delegate).
    pub fn subtree(&self, prefix: &Prefix) -> Vec<(Prefix, &Vec<DelegationEntry>)> {
        self.map.subtree(prefix)
    }

    /// Number of registered prefixes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates all `(prefix, entries)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &Vec<DelegationEntry>)> {
        self.map.iter()
    }
}

/// Statistics reported by [`WhoisDb::build`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BuildStats {
    /// Raw records ingested.
    pub raw_records: usize,
    /// Records whose `org:` handle had no `organisation` object; the handle
    /// string itself is used as the name (real WHOIS is like this too).
    pub unresolved_handles: usize,
    /// Records dropped as older duplicates of the same (prefix, type).
    pub superseded: usize,
    /// Records still missing an allocation type after back-fill; they are
    /// excluded from the tree.
    pub missing_alloc: usize,
    /// Distinct prefixes in the resulting tree.
    pub prefixes: usize,
}

/// Per-allocation-type re-delegation statistics — the paper's §B.1
/// data-driven check ("we constructed prefix trees from WHOIS records to
/// examine which allocation types are associated with further
/// re-delegations").
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RedelegationStats {
    /// Per type: `(blocks observed, blocks with at least one registered
    /// sub-delegation strictly inside them)`.
    pub per_type: std::collections::BTreeMap<AllocationType, (usize, usize)>,
}

impl RedelegationStats {
    /// Fraction of blocks of `t` that re-delegate, or `None` when unseen.
    pub fn redelegation_rate(&self, t: AllocationType) -> Option<f64> {
        self.per_type
            .get(&t)
            .map(|&(blocks, with)| with as f64 / blocks.max(1) as f64)
    }
}

/// Computes [`RedelegationStats`] over a delegation tree: for every
/// registered block, does any *more specific* registered block exist below
/// it?
pub fn redelegation_stats(tree: &DelegationTree) -> RedelegationStats {
    let mut stats = RedelegationStats::default();
    for (prefix, entries) in tree.iter() {
        // A block re-delegates if its subtree holds any strictly-more-
        // specific registered block.
        let has_sub = tree.subtree(&prefix).iter().any(|(sub, _)| *sub != prefix);
        for entry in entries {
            let slot = stats.per_type.entry(entry.alloc).or_insert((0, 0));
            slot.0 += 1;
            if has_sub {
                slot.1 += 1;
            }
        }
    }
    stats
}

/// Accumulates parsed WHOIS data from all registries, then builds the
/// delegation tree.
///
/// ```
/// use p2o_whois::{WhoisDb, Registry, Rir};
///
/// let mut db = WhoisDb::new();
/// db.add_rpsl("\
/// inetnum:  206.238.0.0 - 206.238.255.255\n\
/// descr:    PSINet, Inc\n\
/// status:   ALLOCATED PA\n\
/// source:   AFRINIC\n", Registry::Rir(Rir::Afrinic));
/// let (tree, stats) = db.build();
/// assert_eq!(tree.len(), 1);
/// assert_eq!(stats.raw_records, 1);
/// ```
#[derive(Debug, Default)]
pub struct WhoisDb {
    records: Vec<RawWhoisRecord>,
    orgs: HashMap<String, String>,
    problems: Vec<crate::rpsl::RpslProblem>,
    obs: Option<p2o_obs::Obs>,
}

impl WhoisDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an observability registry. Subsequent ingestion ticks
    /// `whois.records` / `whois.malformed`, and [`WhoisDb::build`] records a
    /// `whois.build` stage plus build-statistics counters.
    pub fn instrument(&mut self, obs: &p2o_obs::Obs) {
        self.obs = Some(obs.clone());
    }

    fn tick(&self, name: &str, n: u64) {
        if let Some(obs) = &self.obs {
            obs.counter(name).add(n);
        }
    }

    /// Ingests one bulk dump in the format `registry` publishes: ARIN
    /// `NetRange` blocks, LACNIC CIDR blocks (LACNIC, NIC.br, NIC.mx) or
    /// RPSL (everyone else), parsed on up to `threads` threads as
    /// [`add_rpsl_parallel`](Self::add_rpsl_parallel) describes. Returns
    /// the number of problems encountered.
    pub fn add_dump(&mut self, text: &str, registry: Registry, threads: usize) -> usize {
        match registry {
            Registry::Rir(Rir::Arin) => self.add_arin_parallel(text, threads),
            Registry::Rir(Rir::Lacnic) | Registry::Nir(Nir::NicBr) | Registry::Nir(Nir::NicMx) => {
                self.add_lacnic_parallel(text, registry, threads)
            }
            _ => self.add_rpsl_parallel(text, registry, threads),
        }
    }

    /// Ingests an RPSL-flavour dump (RIPE, APNIC, AFRINIC, RPSL NIRs).
    /// Returns the number of problems encountered.
    pub fn add_rpsl(&mut self, text: &str, source: Registry) -> usize {
        self.add_rpsl_parallel(text, source, 1)
    }

    /// Ingests an ARIN-flavour dump. Returns the number of problems.
    pub fn add_arin(&mut self, text: &str) -> usize {
        self.add_arin_parallel(text, 1)
    }

    /// Ingests a LACNIC-flavour dump. Returns the number of problems.
    pub fn add_lacnic(&mut self, text: &str, source: Registry) -> usize {
        self.add_lacnic_parallel(text, source, 1)
    }

    /// Like [`add_rpsl`](Self::add_rpsl), but splits the text at object
    /// boundaries and parses the shards on up to `threads` threads. The
    /// resulting record/org order (and therefore everything downstream,
    /// including symbol assignment in [`build`](Self::build)) is identical
    /// at any thread count.
    pub fn add_rpsl_parallel(&mut self, text: &str, source: Registry, threads: usize) -> usize {
        self.ingest(text, threads, |shard| {
            crate::rpsl::parse_dump(shard, source)
        })
    }

    /// Parallel variant of [`add_arin`](Self::add_arin); see
    /// [`add_rpsl_parallel`](Self::add_rpsl_parallel) for the guarantees.
    pub fn add_arin_parallel(&mut self, text: &str, threads: usize) -> usize {
        self.ingest(text, threads, |shard| {
            let dump = crate::arin::parse_dump(shard);
            crate::rpsl::RpslDump {
                records: dump.records,
                orgs: Vec::new(),
                problems: dump.problems,
            }
        })
    }

    /// Parallel variant of [`add_lacnic`](Self::add_lacnic); see
    /// [`add_rpsl_parallel`](Self::add_rpsl_parallel) for the guarantees.
    pub fn add_lacnic_parallel(&mut self, text: &str, source: Registry, threads: usize) -> usize {
        self.ingest(text, threads, |shard| {
            let dump = crate::lacnic::parse_dump(shard, source);
            crate::rpsl::RpslDump {
                records: dump.records,
                orgs: Vec::new(),
                problems: dump.problems,
            }
        })
    }

    /// Shards `text` at object boundaries, parses the shards through the
    /// shard runner (one `whois.parse` span each), and merges the dumps in
    /// shard order with problem lines rebased onto the whole text.
    fn ingest(
        &mut self,
        text: &str,
        threads: usize,
        parse: impl Fn(&str) -> crate::rpsl::RpslDump + Sync,
    ) -> usize {
        let shards = crate::shard::split_at_object_boundaries(
            text,
            p2o_obs::shard_count(threads, text.len()),
        );
        let dumps = p2o_obs::run_shards(self.obs.as_ref(), "whois.parse", shards, |shard, span| {
            let dump = parse(shard.text);
            if let Some(s) = span {
                s.arg("bytes", shard.text.len());
                s.arg("records", dump.records.len());
            }
            (shard.line_offset, dump)
        });
        let mut problems = 0;
        for (offset, mut dump) in dumps {
            for org in dump.orgs {
                self.orgs.insert(org.handle, org.name);
            }
            for p in &mut dump.problems {
                p.line += offset;
            }
            self.tick("whois.records", dump.records.len() as u64);
            self.tick("whois.malformed", dump.problems.len() as u64);
            self.records.extend(dump.records);
            problems += dump.problems.len();
            self.problems.extend(dump.problems);
        }
        problems
    }

    /// Adds a single pre-parsed record (used by the synthetic generator's
    /// direct path and by tests).
    pub fn add_record(&mut self, record: RawWhoisRecord) {
        self.tick("whois.records", 1);
        self.records.push(record);
    }

    /// Registers an `organisation` object for handle resolution.
    pub fn add_org(&mut self, handle: &str, name: &str) {
        self.orgs.insert(handle.to_string(), name.to_string());
    }

    /// Number of raw records ingested so far.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Every parse problem collected so far, in ingestion order with
    /// shard-rebased line numbers. The ingest orchestrator drains this
    /// per input file to feed the quarantine store.
    pub fn problems(&self) -> &[crate::rpsl::RpslProblem] {
        &self.problems
    }

    /// Back-fills missing allocation types via a per-prefix query service.
    ///
    /// JPNIC bulk data omits allocation types; the paper performs individual
    /// WHOIS queries to retrieve them (§4.2). `query` receives each prefix of
    /// the record's block and returns its type; the first `Some` wins.
    /// Returns how many records were filled.
    pub fn fill_missing_alloc<F>(&mut self, registry: Registry, query: F) -> usize
    where
        F: Fn(&Prefix) -> Option<AllocationType>,
    {
        let mut filled = 0;
        for rec in self.records.iter_mut() {
            if rec.alloc.is_some() || rec.source != registry {
                continue;
            }
            for p in rec.net.to_prefixes() {
                if let Some(t) = query(&p) {
                    rec.alloc = Some(t);
                    filled += 1;
                    break;
                }
            }
        }
        filled
    }

    /// Convenience for the common JPNIC case.
    pub fn fill_jpnic_alloc<F>(&mut self, query: F) -> usize
    where
        F: Fn(&Prefix) -> Option<AllocationType>,
    {
        self.fill_missing_alloc(Registry::Nir(Nir::Jpnic), query)
    }

    /// Builds the delegation tree: resolves handles, deduplicates by
    /// `(prefix, allocation type)` keeping the latest record (§4.2),
    /// decomposes non-CIDR ranges, and sorts each prefix's entries by chain
    /// depth.
    pub fn build(self) -> (DelegationTree, BuildStats) {
        let obs = self.obs.clone();
        let timer = obs.as_ref().map(|o| {
            let mut t = o.stage("whois.build");
            t.items(self.records.len() as u64);
            t
        });
        let mut stats = BuildStats {
            raw_records: self.records.len(),
            ..Default::default()
        };

        // Records arrive in ingestion order, so interning here hands out the
        // same symbols on every run. `interns` counts every name interned;
        // the calls beyond the distinct names are the `interner.hits`.
        let mut names = Interner::new();
        let mut interns = 0u64;
        // Key: (prefix, alloc). Value: the winning entry so far.
        let mut best: HashMap<(Prefix, AllocationType), DelegationEntry> = HashMap::new();
        for rec in self.records {
            let Some(alloc) = rec.alloc else {
                stats.missing_alloc += 1;
                continue;
            };
            let name = match &rec.org {
                OrgRef::Name(n) => n,
                OrgRef::Handle(h) => self.orgs.get(h).unwrap_or_else(|| {
                    stats.unresolved_handles += 1;
                    h
                }),
            };
            let org_name = names.intern(name);
            interns += 1;
            for prefix in rec.net.to_prefixes() {
                let entry = DelegationEntry {
                    org_name,
                    alloc,
                    registry: rec.source,
                    last_modified: rec.last_modified,
                };
                match best.entry((prefix, alloc)) {
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        if rec.last_modified >= o.get().last_modified {
                            o.insert(entry);
                        }
                        stats.superseded += 1;
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(entry);
                    }
                }
            }
        }

        let mut map: PrefixMap<Vec<DelegationEntry>> = PrefixMap::new();
        if let Some(o) = &obs {
            map.instrument(o.counter("radix.inserts"), o.counter("radix.lookups"));
        }
        for ((prefix, _), entry) in best {
            match map.get_mut(&prefix) {
                Some(v) => v.push(entry),
                None => {
                    map.insert(prefix, vec![entry]);
                }
            }
        }
        // Order each prefix's entries: Direct Owner first, then intermediate
        // delegations, then terminal assignments; newest first within a depth.
        // (A mutable full iteration over PrefixMap is not exposed; collect the
        // keys first.)
        let keys: Vec<Prefix> = map.iter().map(|(k, _)| k).collect();
        for k in keys {
            let v = map.get_mut(&k).expect("key just listed");
            v.sort_by(|a, b| {
                a.alloc
                    .chain_depth()
                    .cmp(&b.alloc.chain_depth())
                    .then(b.last_modified.cmp(&a.last_modified))
                    // The final tie-break stays lexicographic on the *names*,
                    // not the symbols, so entry order is independent of
                    // interning order.
                    .then(names.resolve(a.org_name).cmp(names.resolve(b.org_name)))
            });
        }
        stats.prefixes = map.len();
        if let Some(o) = &obs {
            o.counter("whois.unresolved_handles")
                .add(stats.unresolved_handles as u64);
            o.counter("whois.superseded").add(stats.superseded as u64);
            o.counter("whois.missing_alloc")
                .add(stats.missing_alloc as u64);
            o.counter("whois.prefixes").add(stats.prefixes as u64);
            o.counter("interner.symbols").add(names.len() as u64);
            o.counter("interner.hits").add(interns - names.len() as u64);
            let h = o.histogram("whois.entries_per_prefix");
            for (_, v) in map.iter() {
                h.record(v.len() as u64);
            }
        }
        drop(timer);
        (DelegationTree { map, names }, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Rir;
    use p2o_net::{IpRange, Range4};

    fn rec(net: &str, org: &str, alloc: AllocationType, updated: u32) -> RawWhoisRecord {
        let net: IpRange = if net.contains('/') {
            let p: p2o_net::Prefix4 = net.parse().unwrap();
            IpRange::V4(Range4::from_prefix(&p))
        } else {
            net.parse().unwrap()
        };
        RawWhoisRecord {
            net,
            org: OrgRef::Name(org.into()),
            alloc: Some(alloc),
            source: Registry::Rir(Rir::Arin),
            last_modified: updated,
        }
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn figure1_chain_builds() {
        let mut db = WhoisDb::new();
        db.add_record(rec(
            "206.238.0.0/16",
            "PSINet, Inc",
            AllocationType::Allocation,
            20240101,
        ));
        db.add_record(rec(
            "206.238.0.0/16",
            "Tcloudnet, Inc",
            AllocationType::Reassignment,
            20240301,
        ));
        let (tree, stats) = db.build();
        assert_eq!(stats.prefixes, 1);
        let entries = tree.entries(&p("206.238.0.0/16")).unwrap();
        assert_eq!(entries.len(), 2);
        // Direct Owner first.
        assert_eq!(tree.name(entries[0].org_name), "PSINet, Inc");
        assert_eq!(entries[0].ownership_level(), OwnershipLevel::DirectOwner);
        assert_eq!(tree.name(entries[1].org_name), "Tcloudnet, Inc");
        assert_eq!(
            entries[1].ownership_level(),
            OwnershipLevel::DelegatedCustomer
        );
    }

    #[test]
    fn dedup_keeps_latest_per_type() {
        let mut db = WhoisDb::new();
        db.add_record(rec(
            "10.0.0.0/8",
            "Old Name",
            AllocationType::Allocation,
            20200101,
        ));
        db.add_record(rec(
            "10.0.0.0/8",
            "New Name",
            AllocationType::Allocation,
            20240101,
        ));
        let (tree, stats) = db.build();
        assert_eq!(stats.superseded, 1);
        let entries = tree.entries(&p("10.0.0.0/8")).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(tree.name(entries[0].org_name), "New Name");
    }

    #[test]
    fn dedup_is_order_independent() {
        let mut db = WhoisDb::new();
        db.add_record(rec(
            "10.0.0.0/8",
            "New Name",
            AllocationType::Allocation,
            20240101,
        ));
        db.add_record(rec(
            "10.0.0.0/8",
            "Old Name",
            AllocationType::Allocation,
            20200101,
        ));
        let (tree, _) = db.build();
        assert_eq!(
            tree.name(tree.entries(&p("10.0.0.0/8")).unwrap()[0].org_name),
            "New Name"
        );
    }

    #[test]
    fn non_cidr_range_spreads_to_all_blocks() {
        let mut db = WhoisDb::new();
        db.add_record(rec(
            "10.0.0.0 - 10.0.2.255",
            "Spread Org",
            AllocationType::Reassignment,
            20240101,
        ));
        let (tree, stats) = db.build();
        assert_eq!(stats.prefixes, 2); // /23 + /24
        assert!(tree.entries(&p("10.0.0.0/23")).is_some());
        assert!(tree.entries(&p("10.0.2.0/24")).is_some());
    }

    #[test]
    fn handle_resolution_and_fallback() {
        let mut db = WhoisDb::new();
        db.add_org("ORG-VB1-RIPE", "Verizon Business");
        db.add_record(RawWhoisRecord {
            net: IpRange::V4(Range4::from_prefix(&"65.196.14.0/24".parse().unwrap())),
            org: OrgRef::Handle("ORG-VB1-RIPE".into()),
            alloc: Some(AllocationType::AllocatedPa),
            source: Registry::Rir(Rir::Ripe),
            last_modified: 20240101,
        });
        db.add_record(RawWhoisRecord {
            net: IpRange::V4(Range4::from_prefix(&"65.196.15.0/24".parse().unwrap())),
            org: OrgRef::Handle("ORG-MISSING".into()),
            alloc: Some(AllocationType::AllocatedPa),
            source: Registry::Rir(Rir::Ripe),
            last_modified: 20240101,
        });
        let (tree, stats) = db.build();
        assert_eq!(stats.unresolved_handles, 1);
        assert_eq!(
            tree.name(tree.entries(&p("65.196.14.0/24")).unwrap()[0].org_name),
            "Verizon Business"
        );
        assert_eq!(
            tree.name(tree.entries(&p("65.196.15.0/24")).unwrap()[0].org_name),
            "ORG-MISSING"
        );
    }

    #[test]
    fn jpnic_backfill() {
        let mut db = WhoisDb::new();
        db.add_record(RawWhoisRecord {
            net: IpRange::V4(Range4::from_prefix(&"202.12.30.0/24".parse().unwrap())),
            org: OrgRef::Name("IIJ".into()),
            alloc: None,
            source: Registry::Nir(Nir::Jpnic),
            last_modified: 20240101,
        });
        let filled = db.fill_jpnic_alloc(|prefix| {
            (*prefix == p("202.12.30.0/24")).then_some(AllocationType::AllocatedPortable)
        });
        assert_eq!(filled, 1);
        let (tree, stats) = db.build();
        assert_eq!(stats.missing_alloc, 0);
        assert_eq!(
            tree.entries(&p("202.12.30.0/24")).unwrap()[0].alloc,
            AllocationType::AllocatedPortable
        );
    }

    #[test]
    fn records_without_alloc_are_excluded_and_counted() {
        let mut db = WhoisDb::new();
        db.add_record(RawWhoisRecord {
            net: IpRange::V4(Range4::from_prefix(&"202.12.30.0/24".parse().unwrap())),
            org: OrgRef::Name("IIJ".into()),
            alloc: None,
            source: Registry::Nir(Nir::Jpnic),
            last_modified: 20240101,
        });
        let (tree, stats) = db.build();
        assert_eq!(stats.missing_alloc, 1);
        assert!(tree.is_empty());
    }

    #[test]
    fn covering_chain_walks_up() {
        let mut db = WhoisDb::new();
        db.add_record(rec(
            "63.64.0.0/10",
            "Verizon Business",
            AllocationType::Allocation,
            1,
        ));
        db.add_record(rec(
            "63.80.52.0/24",
            "Bandwidth.com Inc.",
            AllocationType::Reallocation,
            2,
        ));
        db.add_record(rec(
            "63.80.52.0/24",
            "Ceva Inc",
            AllocationType::Reassignment,
            3,
        ));
        let (tree, _) = db.build();
        let chain = tree.covering_chain(&p("63.80.52.0/24"));
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].0, p("63.80.52.0/24"));
        assert_eq!(chain[0].1.len(), 2);
        assert_eq!(tree.name(chain[0].1[0].org_name), "Bandwidth.com Inc."); // depth 1 first
        assert_eq!(tree.name(chain[0].1[1].org_name), "Ceva Inc");
        assert_eq!(chain[1].0, p("63.64.0.0/10"));
        assert_eq!(tree.name(chain[1].1[0].org_name), "Verizon Business");
    }

    #[test]
    fn redelegation_stats_distinguish_alloc_from_assign() {
        // §B.1's empirical check: Allocation blocks re-delegate, terminal
        // Reassignments do not.
        let mut db = WhoisDb::new();
        db.add_record(rec("10.0.0.0/8", "Carrier", AllocationType::Allocation, 1));
        db.add_record(rec(
            "10.1.0.0/16",
            "Cust A",
            AllocationType::Reassignment,
            2,
        ));
        db.add_record(rec(
            "10.2.0.0/16",
            "Cust B",
            AllocationType::Reassignment,
            2,
        ));
        db.add_record(rec(
            "11.0.0.0/8",
            "Lone End User",
            AllocationType::Allocation,
            1,
        ));
        let (tree, _) = db.build();
        let stats = redelegation_stats(&tree);
        assert_eq!(stats.per_type[&AllocationType::Allocation], (2, 1));
        assert_eq!(stats.per_type[&AllocationType::Reassignment], (2, 0));
        assert_eq!(
            stats.redelegation_rate(AllocationType::Allocation),
            Some(0.5)
        );
        assert_eq!(
            stats.redelegation_rate(AllocationType::Reassignment),
            Some(0.0)
        );
        assert_eq!(stats.redelegation_rate(AllocationType::Legacy), None);
    }

    #[test]
    fn end_to_end_from_dump_texts() {
        let mut db = WhoisDb::new();
        let problems = db.add_rpsl(
            "\
inetnum:        206.238.0.0 - 206.238.255.255
org:            ORG-PS1-RIPE
status:         ALLOCATED PA
last-modified:  2024-08-01T00:00:00Z
source:         RIPE

organisation:   ORG-PS1-RIPE
org-name:       PSINet, Inc
",
            Registry::Rir(Rir::Ripe),
        );
        assert_eq!(problems, 0);
        db.add_arin(
            "\
NetRange:       63.64.0.0 - 63.127.255.255
NetType:        Allocation
OrgName:        Verizon Business
Updated:        2024-05-20
",
        );
        db.add_lacnic(
            "\
inetnum:     200.44.0.0/16
status:      allocated
owner:       Telefonica del Peru S.A.A.
changed:     20240801
",
            Registry::Rir(Rir::Lacnic),
        );
        let (tree, stats) = db.build();
        assert_eq!(stats.raw_records, 3);
        assert_eq!(tree.len(), 3);
        assert_eq!(
            tree.name(tree.entries(&p("206.238.0.0/16")).unwrap()[0].org_name),
            "PSINet, Inc"
        );
    }

    #[test]
    fn parallel_ingest_matches_sequential() {
        let rpsl: String = (0..40)
            .map(|i| {
                format!(
                    "inetnum:        10.{}.{}.0 - 10.{}.{}.255\n\
                     org:            ORG-H{}\n\
                     status:         ALLOCATED PA\n\
                     last-modified:  2024-08-01T00:00:00Z\n\
                     source:         RIPE\n\n\
                     organisation:   ORG-H{}\n\
                     org-name:       Holder {} Inc\n\n",
                    i / 8,
                    i % 8,
                    i / 8,
                    i % 8,
                    i % 5,
                    i % 5,
                    i % 5
                )
            })
            .collect();
        let arin: String = (0..16)
            .map(|i| {
                format!(
                    "NetRange:       198.51.{i}.0 - 198.51.{i}.255\n\
                     NetType:        Reassignment\n\
                     OrgName:        Customer {i} LLC\n\
                     Updated:        2024-01-01\n\n"
                )
            })
            .collect();
        let lacnic: String = (0..12)
            .map(|i| {
                format!(
                    "inetnum:     200.{i}.0.0/16\n\
                     status:      allocated\n\
                     owner:       Operadora {i} SA\n\
                     changed:     20240101\n\n"
                )
            })
            .collect();

        let mut seq = WhoisDb::new();
        let mut sp = 0;
        sp += seq.add_rpsl(&rpsl, Registry::Rir(Rir::Ripe));
        sp += seq.add_arin(&arin);
        sp += seq.add_lacnic(&lacnic, Registry::Rir(Rir::Lacnic));

        let obs = p2o_obs::Obs::new();
        obs.enable_tracing();
        let mut par = WhoisDb::new();
        par.instrument(&obs);
        let mut pp = 0;
        pp += par.add_rpsl_parallel(&rpsl, Registry::Rir(Rir::Ripe), 4);
        pp += par.add_arin_parallel(&arin, 4);
        pp += par.add_lacnic_parallel(&lacnic, Registry::Rir(Rir::Lacnic), 4);

        assert_eq!(sp, pp);
        assert_eq!(seq.records, par.records, "record order must match");
        assert_eq!(seq.orgs, par.orgs);
        let report = obs.report();
        assert_eq!(report.counter("whois.records"), Some(68));
        // Per-shard timing is a trace span, never a stage row.
        assert!(report.stages.is_empty(), "{:?}", report.stages);
        assert!(
            obs.take_trace().span_count("whois.parse") > 3,
            "parallel ingest must trace one whois.parse span per shard"
        );

        let (seq_tree, seq_stats) = seq.build();
        let (par_tree, par_stats) = par.build();
        assert_eq!(seq_stats, par_stats);
        assert_eq!(seq_tree.len(), par_tree.len());
        for ((pa, ea), (pb, eb)) in seq_tree.iter().zip(par_tree.iter()) {
            assert_eq!(pa, pb);
            assert_eq!(ea, eb, "symbol assignment must be deterministic");
        }
    }

    #[test]
    fn parallel_ingest_single_thread_falls_back() {
        let text = "inetnum: 10.0.0.0 - 10.0.0.255\ndescr: Solo\nstatus: ALLOCATED PA\n";
        let mut db = WhoisDb::new();
        assert_eq!(db.add_rpsl_parallel(text, Registry::Rir(Rir::Ripe), 1), 0);
        assert_eq!(db.record_count(), 1);
    }

    #[test]
    fn instrumented_build_reports_counters_and_stage() {
        let obs = p2o_obs::Obs::new();
        let mut db = WhoisDb::new();
        db.instrument(&obs);
        db.add_rpsl(
            "\
inetnum:        206.238.0.0 - 206.238.255.255
org:            ORG-UNKNOWN
status:         ALLOCATED PA
source:         RIPE

inetnum:        not a range at all
source:         RIPE
",
            Registry::Rir(Rir::Ripe),
        );
        db.add_record(rec("10.0.0.0/8", "Acme", AllocationType::Allocation, 1));
        let (tree, _) = db.build();
        let report = obs.report();
        assert_eq!(report.counter("whois.records"), Some(2));
        assert_eq!(report.counter("whois.malformed"), Some(1));
        assert_eq!(report.counter("whois.unresolved_handles"), Some(1));
        assert_eq!(report.counter("whois.prefixes"), Some(2));
        assert_eq!(report.counter("interner.symbols"), Some(2));
        assert_eq!(report.counter("interner.hits"), Some(0));
        assert!(report.stage("whois.build").is_some());
        assert_eq!(report.stage("whois.build").unwrap().items, Some(2));
        // The instrumented tree ticks lookup counters on queries.
        let _ = tree.covering_chain(&p("206.238.0.0/24"));
        assert!(obs.counter("radix.lookups").get() >= 1);
    }
}
