//! Fault injection across crate boundaries: the pipeline must degrade
//! gracefully — never panic, never silently fabricate — when fed damaged
//! inputs, because real WHOIS/RPKI/MRT data is always partly damaged.

use p2o_bgp::RouteTable;
use p2o_net::Prefix;
use p2o_rpki::{IpResourceSet, RpkiRepository};
use p2o_synth::{World, WorldConfig};
use p2o_whois::{Registry, Rir, WhoisDb};
use prefix2org::{Pipeline, PipelineInputs};

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

#[test]
fn garbage_interleaved_in_whois_dumps_is_survivable() {
    let mut db = WhoisDb::new();
    let problems = db.add_rpsl(
        "\
this line is not rpsl at all
inetnum:        not an ip range
status:         ALLOCATED PA
source:         RIPE

inetnum:        10.0.0.0 - 10.255.255.255
descr:          Survivor Org
status:         ALLOCATED PA
source:         RIPE

inetnum:        11.0.0.0 - 11.0.0.255
descr:          Unknown Status Org
status:         SOME FUTURE TYPE
source:         RIPE
",
        Registry::Rir(Rir::Ripe),
    );
    assert!(problems >= 1);
    let (tree, stats) = db.build();
    // The broken record is dropped; the unknown-status record is excluded
    // from the tree (no rights known) but counted.
    assert_eq!(tree.len(), 1);
    assert_eq!(stats.missing_alloc, 1);

    let mut routes = RouteTable::new();
    routes.add_route(p("10.1.0.0/16"), 64512);
    routes.add_route(p("11.0.0.0/24"), 64512); // only covered by the dropped record
    let clusters = p2o_as2org::As2OrgDb::new().cluster();
    let (rpki, _) = RpkiRepository::new().validate(20240901);
    let ds = Pipeline::default().run(&PipelineInputs {
        delegations: &tree,
        routes: &routes,
        asn_clusters: &clusters,
        rpki: &rpki,
    });
    assert_eq!(ds.len(), 1);
    assert_eq!(ds.metrics().unresolved_prefixes, 1);
    assert_eq!(
        ds.record(&p("10.1.0.0/16")).unwrap().direct_owner,
        "Survivor Org"
    );
}

#[test]
fn corrupted_rpki_weakens_clustering_without_breaking_it() {
    let world = World::generate(WorldConfig::tiny(0xBAD));
    let built = world.build_inputs();

    // Baseline dataset.
    let baseline = Pipeline::default().run(&PipelineInputs {
        delegations: &built.tree,
        routes: &built.routes,
        asn_clusters: &built.clusters,
        rpki: &built.rpki,
    });

    // Corrupt every certificate signature below the trust anchors, going
    // through the persistence round-trip first (so the tamper path is the
    // on-disk one).
    let jsonl = p2o_rpki::persist::to_jsonl(&world.rpki);
    let mut repo = p2o_rpki::persist::from_jsonl(&jsonl).unwrap();
    let victims: Vec<_> = repo
        .certs_in_order()
        .filter(|c| c.issuer.is_some())
        .map(|c| c.id)
        .collect();
    assert!(!victims.is_empty());
    for id in victims {
        repo.corrupt_signature(id);
    }
    let (rpki, problems) = repo.validate(20240901);
    assert!(!problems.is_empty(), "tampering must surface as problems");

    let degraded = Pipeline::default().run(&PipelineInputs {
        delegations: &built.tree,
        routes: &built.routes,
        asn_clusters: &built.clusters,
        rpki: &rpki,
    });
    // Same coverage: RPKI is clustering evidence, not a mapping input.
    assert_eq!(degraded.len(), baseline.len());
    // But the RPKI-coverage metric collapses and clustering can only get
    // coarser or equal (fewer merges), never finer than W-only.
    assert!(
        degraded.metrics().pct_prefixes_rpki_covered < baseline.metrics().pct_prefixes_rpki_covered
    );
    assert!(degraded.metrics().final_clusters >= baseline.metrics().final_clusters);
}

#[test]
fn truncated_mrt_fails_loud_not_wrong() {
    let world = World::generate(WorldConfig::tiny(0xFEED));
    // Cut the RIB mid-record at several points: every cut must error, not
    // yield a silently shorter table.
    for frac in [10, 50, 90] {
        let cut = world.mrt.len() * frac / 100;
        let result = RouteTable::from_mrt(&world.mrt[..cut]);
        assert!(result.is_err(), "cut at {frac}% parsed successfully");
    }
    // Empty input too.
    assert!(RouteTable::from_mrt([]).is_err());
}

#[test]
fn overclaiming_cert_cannot_capture_foreign_prefixes() {
    // An attacker-ish scenario: a certificate claiming someone else's space
    // must be excluded by validation, so it cannot create false 𝓡 evidence.
    let mut db = WhoisDb::new();
    db.add_arin(
        "\
NetRange: 10.0.0.0 - 10.255.255.255\nNetType: Allocation\nOrgName: Victim Corp\nUpdated: 2024-01-01\n\n\
NetRange: 20.0.0.0 - 20.255.255.255\nNetType: Allocation\nOrgName: Victim Corporation\nUpdated: 2024-01-01\n",
    );
    let (tree, _) = db.build();
    let mut routes = RouteTable::new();
    routes.add_route(p("10.0.0.0/8"), 1);
    routes.add_route(p("20.0.0.0/8"), 2);

    let mut repo = RpkiRepository::new();
    let ta = repo.issue_trust_anchor(
        "ARIN",
        [p("10.0.0.0/8")].into_iter().collect::<IpResourceSet>(),
        20200101,
        20301231,
    );
    // The attacker cert claims 20/8, which the TA does not hold.
    repo.insert_cert_unchecked(
        ta,
        "attacker",
        [p("10.0.0.0/8"), p("20.0.0.0/8")].into_iter().collect(),
        20200101,
        20301231,
    );
    let (rpki, problems) = repo.validate(20240901);
    assert_eq!(problems.len(), 1);

    let clusters = p2o_as2org::As2OrgDb::new().cluster();
    let ds = Pipeline::default().run(&PipelineInputs {
        delegations: &tree,
        routes: &routes,
        asn_clusters: &clusters,
        rpki: &rpki,
    });
    // Without the invalid cert there is no shared-certificate evidence, so
    // the two similarly-named owners stay separate clusters.
    let a = ds.record(&p("10.0.0.0/8")).unwrap();
    let b = ds.record(&p("20.0.0.0/8")).unwrap();
    assert_ne!(a.cluster, b.cluster);
    assert!(a.rpki_certificate.is_none());
}

#[test]
fn conflicting_duplicate_records_resolve_to_latest() {
    // Ten conflicting versions of the same block, shuffled dates: the §4.2
    // rule (latest wins) must hold regardless of input order.
    let mut db = WhoisDb::new();
    for (i, year) in [2021u32, 2024, 2019, 2022, 2020].iter().enumerate() {
        db.add_arin(&format!(
            "NetRange: 10.0.0.0 - 10.255.255.255\nNetType: Allocation\nOrgName: Owner v{i}\nUpdated: {year}-06-01\n",
        ));
    }
    let (tree, stats) = db.build();
    assert_eq!(stats.superseded, 4);
    let entries = tree.entries(&p("10.0.0.0/8")).unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(tree.name(entries[0].org_name), "Owner v1"); // the 2024 record
}

#[test]
fn empty_world_pieces_compose() {
    // All-empty inputs: the pipeline yields an empty dataset, not a panic.
    let (tree, _) = WhoisDb::new().build();
    let routes = RouteTable::new();
    let clusters = p2o_as2org::As2OrgDb::new().cluster();
    let (rpki, _) = RpkiRepository::new().validate(20240901);
    let ds = Pipeline::with_threads(8).run(&PipelineInputs {
        delegations: &tree,
        routes: &routes,
        asn_clusters: &clusters,
        rpki: &rpki,
    });
    assert!(ds.is_empty());
    assert_eq!(ds.metrics().final_clusters, 0);
    assert!(prefix2org::to_jsonl(&ds).is_empty());
}
