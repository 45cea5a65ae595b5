//! Longitudinal snapshot comparison (paper §10: "periodic snapshots would
//! allow researchers to ... study the dynamics of prefix ownership, such as
//! address transfers, leasing activities, and the evolution of business
//! relationships").
//!
//! [`diff`] compares two dataset snapshots and classifies every routed
//! prefix's fate: unchanged, newly routed, withdrawn, transferred to a
//! different Direct Owner organization, or re-delegated (same owner, a
//! different customer chain).

use std::collections::HashSet;

use p2o_net::Prefix;
use p2o_strings::clean::basic_clean;

use crate::dataset::Prefix2OrgDataset;

/// One detected ownership transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnerChange {
    /// The routed prefix.
    pub prefix: Prefix,
    /// Direct Owner name in the old snapshot.
    pub from: String,
    /// Direct Owner name in the new snapshot.
    pub to: String,
}

/// The difference between two dataset snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatasetDelta {
    /// Prefixes routed only in the new snapshot.
    pub added: Vec<Prefix>,
    /// Prefixes routed only in the old snapshot.
    pub removed: Vec<Prefix>,
    /// Prefixes whose Direct Owner organization changed (transfers, M&A).
    pub owner_changes: Vec<OwnerChange>,
    /// Prefixes with the same Direct Owner but a different Delegated
    /// Customer chain (churn in the customer base / leasing turnover).
    pub customer_changes: Vec<Prefix>,
    /// Prefixes identical in both snapshots.
    pub unchanged: usize,
}

impl DatasetDelta {
    /// Total number of prefixes that differ in any way.
    pub fn changed(&self) -> usize {
        self.added.len()
            + self.removed.len()
            + self.owner_changes.len()
            + self.customer_changes.len()
    }
}

/// Compares two snapshots.
///
/// Owner identity is compared on *cluster membership semantics*: two Direct
/// Owner names are "the same organization" when their basic-cleaned forms
/// match, or when the new snapshot's cluster for the prefix still contains
/// the old name (so a mere renaming inside one organization is not reported
/// as a transfer).
pub fn diff(old: &Prefix2OrgDataset, new: &Prefix2OrgDataset) -> DatasetDelta {
    let mut delta = DatasetDelta::default();
    let old_prefixes: HashSet<Prefix> = old.records().iter().map(|r| r.prefix).collect();

    for rec in new.records() {
        if !old_prefixes.contains(&rec.prefix) {
            delta.added.push(rec.prefix);
        }
    }
    for old_rec in old.records() {
        let Some(new_rec) = new.record(&old_rec.prefix) else {
            delta.removed.push(old_rec.prefix);
            continue;
        };
        let old_name = basic_clean(&old_rec.direct_owner);
        let new_name = basic_clean(&new_rec.direct_owner);
        let same_owner =
            old_name == new_name || new.cluster_names(new_rec.cluster).contains(&old_name);
        if !same_owner {
            delta.owner_changes.push(OwnerChange {
                prefix: old_rec.prefix,
                from: old_rec.direct_owner.clone(),
                to: new_rec.direct_owner.clone(),
            });
            continue;
        }
        let old_chain: Vec<&str> = old_rec
            .delegated_customers
            .iter()
            .map(|s| s.org_name.as_str())
            .collect();
        let new_chain: Vec<&str> = new_rec
            .delegated_customers
            .iter()
            .map(|s| s.org_name.as_str())
            .collect();
        if old_chain != new_chain {
            delta.customer_changes.push(old_rec.prefix);
        } else {
            delta.unchanged += 1;
        }
    }
    delta.added.sort();
    delta.removed.sort();
    delta.owner_changes.sort_by_key(|c| c.prefix);
    delta.customer_changes.sort();
    delta
}

/// Compares two *exported* snapshots ([`crate::ExportRecord`] lists, e.g.
/// loaded from JSONL files). Owner identity uses basic-cleaned names and
/// base-name equality (cluster membership is not available offline).
pub fn diff_exports(old: &[crate::ExportRecord], new: &[crate::ExportRecord]) -> DatasetDelta {
    use std::collections::HashMap;
    let new_by_prefix: HashMap<Prefix, &crate::ExportRecord> =
        new.iter().map(|r| (r.prefix, r)).collect();
    let old_prefixes: HashSet<Prefix> = old.iter().map(|r| r.prefix).collect();

    let mut delta = DatasetDelta::default();
    for rec in new {
        if !old_prefixes.contains(&rec.prefix) {
            delta.added.push(rec.prefix);
        }
    }
    for old_rec in old {
        let Some(new_rec) = new_by_prefix.get(&old_rec.prefix) else {
            delta.removed.push(old_rec.prefix);
            continue;
        };
        let same_owner = basic_clean(&old_rec.direct_owner) == basic_clean(&new_rec.direct_owner)
            || old_rec.base_name == new_rec.base_name;
        if !same_owner {
            delta.owner_changes.push(OwnerChange {
                prefix: old_rec.prefix,
                from: old_rec.direct_owner.clone(),
                to: new_rec.direct_owner.clone(),
            });
            continue;
        }
        let old_chain: Vec<&str> = old_rec
            .delegated_customers
            .iter()
            .map(|(n, _, _)| n.as_str())
            .collect();
        let new_chain: Vec<&str> = new_rec
            .delegated_customers
            .iter()
            .map(|(n, _, _)| n.as_str())
            .collect();
        if old_chain != new_chain {
            delta.customer_changes.push(old_rec.prefix);
        } else {
            delta.unchanged += 1;
        }
    }
    delta.added.sort();
    delta.removed.sort();
    delta.owner_changes.sort_by_key(|c| c.prefix);
    delta.customer_changes.sort();
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clusterer;
    use crate::dataset::Prefix2OrgDataset;
    use crate::resolve::{DelegationStep, OwnershipRecord};
    use p2o_bgp::RouteTable;
    use p2o_rpki::RpkiRepository;
    use p2o_util::Interner;
    use p2o_whois::alloc::AllocationType;
    use p2o_whois::{Registry, Rir};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn rec(
        names: &mut Interner,
        prefix: &str,
        owner: &str,
        customer: Option<&str>,
    ) -> OwnershipRecord {
        OwnershipRecord {
            prefix: p(prefix),
            direct_owner: names.intern(owner),
            do_prefix: p(prefix),
            do_alloc: AllocationType::Allocation,
            do_registry: Registry::Rir(Rir::Arin),
            delegated_customers: customer
                .map(|c| {
                    vec![DelegationStep {
                        org_name: names.intern(c),
                        prefix: p(prefix),
                        alloc: AllocationType::Reassignment,
                    }]
                })
                .unwrap_or_default(),
            lpm: Default::default(),
        }
    }

    fn dataset(specs: &[(&str, &str, Option<&str>)]) -> Prefix2OrgDataset {
        let mut names = Interner::new();
        let records: Vec<OwnershipRecord> = specs
            .iter()
            .map(|&(prefix, owner, customer)| rec(&mut names, prefix, owner, customer))
            .collect();
        let mut routes = RouteTable::new();
        for r in &records {
            routes.add_route(r.prefix, 64512);
        }
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        let clustering = Clusterer::default().cluster(&records, &routes, &clusters, &rpki, &names);
        Prefix2OrgDataset::assemble(records, clustering, 0, 1, &names)
    }

    #[test]
    fn identical_snapshots_diff_empty() {
        let a = dataset(&[("10.0.0.0/16", "Acme", None)]);
        let b = dataset(&[("10.0.0.0/16", "Acme", None)]);
        let d = diff(&a, &b);
        assert_eq!(d.changed(), 0);
        assert_eq!(d.unchanged, 1);
    }

    #[test]
    fn added_and_removed() {
        let a = dataset(&[("10.0.0.0/16", "Acme", None)]);
        let b = dataset(&[("20.0.0.0/16", "Acme", None)]);
        let d = diff(&a, &b);
        assert_eq!(d.added, vec![p("20.0.0.0/16")]);
        assert_eq!(d.removed, vec![p("10.0.0.0/16")]);
        assert_eq!(d.unchanged, 0);
    }

    #[test]
    fn owner_transfer_detected() {
        let a = dataset(&[("10.0.0.0/16", "Seller Corp", None)]);
        let b = dataset(&[("10.0.0.0/16", "Buyer LLC", None)]);
        let d = diff(&a, &b);
        assert_eq!(d.owner_changes.len(), 1);
        assert_eq!(d.owner_changes[0].from, "Seller Corp");
        assert_eq!(d.owner_changes[0].to, "Buyer LLC");
    }

    #[test]
    fn case_change_is_not_a_transfer() {
        let a = dataset(&[("10.0.0.0/16", "ACME CORP", None)]);
        let b = dataset(&[("10.0.0.0/16", "Acme Corp", None)]);
        let d = diff(&a, &b);
        assert!(d.owner_changes.is_empty());
        assert_eq!(d.unchanged, 1);
    }

    #[test]
    fn customer_churn_detected() {
        let a = dataset(&[("10.0.0.0/16", "Acme", Some("Old Customer"))]);
        let b = dataset(&[("10.0.0.0/16", "Acme", Some("New Customer"))]);
        let d = diff(&a, &b);
        assert!(d.owner_changes.is_empty());
        assert_eq!(d.customer_changes, vec![p("10.0.0.0/16")]);
    }

    #[test]
    fn synthetic_transfer_knob_round_trip() {
        // Two worlds differing only in the transfer count: the delta must
        // find ownership changes and no spurious added/removed prefixes
        // beyond re-homing effects.
        use crate::pipeline::{Pipeline, PipelineInputs};
        use p2o_synth::{World, WorldConfig};

        let build = |config| {
            let world = World::generate(config);
            let built = world.build_inputs();
            Pipeline::default().run(&PipelineInputs {
                delegations: &built.tree,
                routes: &built.routes,
                asn_clusters: &built.clusters,
                rpki: &built.rpki,
            })
        };
        let base = WorldConfig::tiny(0xD1FF);
        let before = build(base);
        let after = build(base.with_transfers(4));
        let d = diff(&before, &after);
        assert!(
            !d.owner_changes.is_empty(),
            "transfers must surface as owner changes: {d:?}"
        );
        // Transfers move end-user blocks whole: the routed prefix set is
        // stable (origins may change, ownership does).
        assert!(d.owner_changes.len() >= 2);
        assert!(d.unchanged > 0);
    }
}
