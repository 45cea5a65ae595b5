//! End-to-end corruption recovery: the acceptance property of the
//! resilient-ingest subsystem.
//!
//! For seeded fault injection over a whole synthetic world, a lenient
//! parse of the corrupted artifacts must (a) never panic, (b) quarantine
//! exactly the injected faults — per layer, not just in total — and
//! (c) produce a pipeline export identical to parsing the same world with
//! the victim records removed up front. One corrupt record costs exactly
//! that record, never a neighbour and never the run.

use p2o_bgp::RouteTable;
use p2o_synth::corrupt::{corrupt_world, CorruptionConfig};
use p2o_synth::{World, WorldConfig};
use p2o_whois::{Registry, WhoisDb};
use prefix2org::{Pipeline, PipelineInputs};

/// One lenient parse + pipeline run over explicit artifact bytes.
struct RunResult {
    export: String,
    whois_quarantined: usize,
    mrt_quarantined: usize,
    rpki_quarantined: usize,
}

/// Ingests through the CLI loader's per-registry dispatch, but over
/// in-memory artifacts so the test controls exactly what is corrupted.
fn run_pipeline(world: &World, whois: &[(Registry, String)], mrt: &[u8], rpki: &str) -> RunResult {
    let mut db = WhoisDb::new();
    for (registry, text) in whois {
        db.add_dump(text, *registry, 1);
    }
    db.fill_jpnic_alloc(|p| world.jpnic_alloc.get(p).copied());
    let whois_quarantined = db.problems().len();
    let (tree, _stats) = db.build();

    let lenient = RouteTable::from_mrt_lenient(mrt, None, 1);
    let (repo, rejected) = p2o_rpki::persist::from_jsonl_lenient(rpki);
    let (rpki, _problems) = repo.validate(world.config.snapshot_date);
    let clusters = world.as2org.cluster();

    let dataset = Pipeline::default().run(&PipelineInputs {
        delegations: &tree,
        routes: &lenient.table,
        asn_clusters: &clusters,
        rpki: &rpki,
    });
    RunResult {
        export: prefix2org::to_jsonl(&dataset),
        whois_quarantined,
        mrt_quarantined: lenient.quarantined.len(),
        rpki_quarantined: rejected.len(),
    }
}

fn check_world(seed: u64, rate: f64) {
    let world = World::generate(WorldConfig::tiny(seed));
    let config = CorruptionConfig::uniform(seed ^ 0xFA11, rate);
    let corrupted = corrupt_world(&world, &config);
    assert!(
        corrupted.total_faults() > 0,
        "seed {seed:#x} rate {rate}: no faults injected"
    );

    // Lenient parse of the corrupted artifacts...
    let dirty_whois: Vec<(Registry, String)> = corrupted
        .whois
        .iter()
        .map(|(r, c)| (*r, c.data.clone()))
        .collect();
    let dirty = run_pipeline(
        &world,
        &dirty_whois,
        &corrupted.mrt.data,
        &corrupted.rpki_jsonl.data,
    );

    // ...quarantines exactly what was injected, per layer.
    let whois_faults: usize = corrupted.whois.iter().map(|(_, c)| c.faults).sum();
    assert_eq!(
        dirty.whois_quarantined, whois_faults,
        "whois, seed {seed:#x}"
    );
    assert_eq!(
        dirty.mrt_quarantined, corrupted.mrt.faults,
        "mrt, seed {seed:#x}"
    );
    assert_eq!(
        dirty.rpki_quarantined, corrupted.rpki_jsonl.faults,
        "rpki, seed {seed:#x}"
    );

    // A parse of the same world with the victims removed up front sees no
    // corruption at all...
    let clean_whois: Vec<(Registry, String)> = corrupted
        .whois
        .iter()
        .map(|(r, c)| (*r, c.without_victims.clone()))
        .collect();
    let clean = run_pipeline(
        &world,
        &clean_whois,
        &corrupted.mrt.without_victims,
        &corrupted.rpki_jsonl.without_victims,
    );
    assert_eq!(clean.whois_quarantined, 0);
    assert_eq!(clean.mrt_quarantined, 0);
    assert_eq!(clean.rpki_quarantined, 0);

    // ...and the exports agree byte for byte: the lenient run lost the
    // quarantined records' contributions and nothing else.
    assert_eq!(
        dirty.export, clean.export,
        "seed {seed:#x} rate {rate}: lenient(corrupted) != strict(clean - victims)"
    );
}

#[test]
fn lenient_parse_of_corrupted_world_equals_clean_minus_victims() {
    for seed in [0x0A01, 0x0A02, 0x0A03] {
        check_world(seed, 0.10);
    }
}

#[test]
fn heavy_corruption_still_reconciles_without_panicking() {
    check_world(0x0B01, 0.5);
}

#[test]
fn rate_zero_injection_is_the_identity() {
    let world = World::generate(WorldConfig::tiny(0x0C01));
    let corrupted = corrupt_world(&world, &CorruptionConfig::uniform(7, 0.0));
    assert_eq!(corrupted.total_faults(), 0);
    assert_eq!(corrupted.mrt.data, world.mrt);
    for (registry, c) in &corrupted.whois {
        let original = world
            .whois_dumps
            .iter()
            .find(|d| d.registry == *registry)
            .expect("registry present");
        assert_eq!(c.data, original.text);
    }
}
