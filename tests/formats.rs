//! Cross-crate format integration: every interchange format the system
//! reads or writes must round-trip at world scale, and the different views
//! of the same world must agree with each other.

use p2o_synth::{World, WorldConfig};
use p2o_whois::delegated;

#[test]
fn mrt_and_pfx2as_views_agree() {
    let world = World::generate(WorldConfig::tiny(0xF0F0));
    let from_mrt = p2o_bgp::RouteTable::from_mrt(&world.mrt).unwrap();

    // The RIB decoded as perfbench's in-process build decodes it, through
    // a `bytes::Bytes` (perfbench/src/inproc.rs): a change that breaks that
    // call fails here, not only in the benchmark.
    let rib = world.mrt.clone();
    let lenient = p2o_bgp::RouteTable::from_mrt_lenient(bytes::Bytes::from(rib), None, 2);
    assert!(lenient.quarantined.is_empty());
    assert_eq!(lenient.table, from_mrt);

    // pfx2as rendering of the same table parses back identically.
    let text = p2o_bgp::pfx2as::write(&from_mrt);
    let (from_text, problems) = p2o_bgp::pfx2as::parse(&text);
    assert!(problems.is_empty(), "{problems:?}");
    assert_eq!(from_text.len(), from_mrt.len());
    for (prefix, origins) in from_mrt.iter() {
        assert_eq!(from_text.origins(prefix), Some(origins), "{prefix}");
    }
}

#[test]
fn delegated_files_agree_with_whois_tree() {
    // Every allocated/assigned block in the delegated files must be a
    // Direct-Owner-typed block in the WHOIS delegation tree, and vice
    // versa: the two registry views describe the same delegations.
    let world = World::generate(WorldConfig::tiny(0xDE1E));
    let built = world.build_inputs();

    let mut delegated_blocks = std::collections::BTreeSet::new();
    for (_rir, text) in world.delegated_files() {
        let (records, problems) = delegated::parse(&text);
        assert!(problems.is_empty(), "{problems:?}");
        for rec in records {
            for prefix in rec.range.to_prefixes() {
                delegated_blocks.insert(prefix);
            }
        }
    }
    assert!(!delegated_blocks.is_empty());

    let mut whois_do_blocks = std::collections::BTreeSet::new();
    for (prefix, entries) in built.tree.iter() {
        if entries
            .iter()
            .any(|e| e.ownership_level() == p2o_whois::OwnershipLevel::DirectOwner)
        {
            whois_do_blocks.insert(prefix);
        }
    }
    assert_eq!(delegated_blocks, whois_do_blocks);
}

#[test]
fn rpki_persistence_preserves_world_scale_validation() {
    let world = World::generate(WorldConfig::tiny(0x4B1D));
    let jsonl = p2o_rpki::persist::to_jsonl(&world.rpki);
    let restored = p2o_rpki::persist::from_jsonl(&jsonl).unwrap();
    assert_eq!(restored.cert_count(), world.rpki.cert_count());
    assert_eq!(restored.roa_count(), world.rpki.roa_count());

    let date = world.config.snapshot_date;
    let (a, pa) = world.rpki.validate(date);
    let (b, pb) = restored.validate(date);
    assert_eq!(pa, pb);
    assert_eq!(a.cert_count(), b.cert_count());

    // Per-prefix agreement over the routed set.
    let routes = p2o_bgp::RouteTable::from_mrt(&world.mrt).unwrap();
    for (prefix, origins) in routes.iter() {
        assert_eq!(a.child_most_rc(prefix), b.child_most_rc(prefix), "{prefix}");
        for &origin in origins {
            assert_eq!(
                a.rov(prefix, origin),
                b.rov(prefix, origin),
                "{prefix} {origin}"
            );
        }
    }
}

#[test]
fn as2org_tsv_round_trip_preserves_clusters() {
    let world = World::generate(WorldConfig::tiny(0xA505));
    let original = world.as2org.cluster();

    let mut restored_db = p2o_as2org::As2OrgDb::new();
    restored_db
        .load_records_tsv(&world.as2org.records_tsv())
        .unwrap();
    // Siblings travel as spanning edges per cluster (the CLI store's
    // approach): reconstruct and verify equivalence of the partitions.
    for (_, members) in original.iter() {
        for pair in members.windows(2) {
            restored_db.add_sibling_edge(pair[0], pair[1]);
        }
    }
    let restored = restored_db.cluster();
    let all_asns: Vec<u32> = world
        .orgs
        .iter()
        .flat_map(|o| o.asns.iter().copied())
        .collect();
    for &a in &all_asns {
        for &b in &all_asns {
            assert_eq!(
                original.same_cluster(a, b),
                restored.same_cluster(a, b),
                "{a} vs {b}"
            );
        }
    }
}

#[test]
fn dataset_jsonl_is_one_valid_object_per_line() {
    use prefix2org::{Pipeline, PipelineInputs};
    let world = World::generate(WorldConfig::tiny(0x150D));
    let built = world.build_inputs();
    let dataset = Pipeline::default().run(&PipelineInputs {
        delegations: &built.tree,
        routes: &built.routes,
        asn_clusters: &built.clusters,
        rpki: &built.rpki,
    });
    let text = prefix2org::to_jsonl(&dataset);
    assert_eq!(text.lines().count(), dataset.len());
    for line in text.lines() {
        let value = p2o_util::Json::parse(line).unwrap();
        // Stable machine field names present on every record.
        for field in [
            "prefix",
            "direct_owner",
            "do_prefix",
            "do_alloc",
            "final_cluster",
        ] {
            assert!(value.get(field).is_some(), "missing {field}: {line}");
        }
    }
}
