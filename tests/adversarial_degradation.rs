//! Semantic-adversarial degradation pins.
//!
//! For every [`FaultClass`] at two adversary seeds, this test builds the
//! clean tiny world and its semantically-mutated twin, computes exactly how
//! the mutation degrades ROV states and attribution, and compares the
//! result byte-for-byte against a pinned expectation file under
//! `tests/expectations/`. The mutations are *semantic*: every object still
//! parses and its signature verifies, so any drift here is a behavioural
//! change in validation, resolution, or clustering — not a parser change.
//!
//! The second half closes the loop the issue asks for: operator exception
//! rules asserting each degraded prefix back to its clean attribution must
//! restore the (prefix → final cluster) projection *byte-identically* to
//! the clean world, and the override must be reported identically by the
//! reference trace, the in-memory dataset, and the frozen zero-copy
//! artifact.
//!
//! Regenerate pins after an intentional behaviour change with:
//!
//! ```text
//! P2O_UPDATE_EXPECT=1 cargo test -q --test adversarial_degradation
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use p2o_net::Prefix;
use p2o_rpki::RovStatus;
use p2o_synth::adversary::{self, AdversaryOutcome, FaultClass};
use p2o_synth::{BuiltInputs, World, WorldConfig};
use p2o_util::Json;
use prefix2org::{
    attribution_trace, freeze, ExceptionSet, FrozenDataset, MergeEdge, Pipeline, PipelineInputs,
    Prefix2OrgDataset,
};

const WORLD_SEED: u64 = 41;
const ADV_SEEDS: [u64; 2] = [7, 8];

/// Two adversary seeds per class. Expired-cert gets seed 45 as its second:
/// it expires the ARIN *trust anchor*, the one fault shape that reaches
/// clustering (ARIN's non-signer gaps leave same-base merges that exist
/// through shared-certificate evidence alone, so a dead TA splits them) —
/// which is what makes the exception-restoration half of the test
/// non-vacuous.
fn adv_seeds(class: FaultClass) -> [u64; 2] {
    match class {
        FaultClass::ExpiredCert => [ADV_SEEDS[0], 45],
        _ => ADV_SEEDS,
    }
}

fn build(built: &BuiltInputs) -> (Prefix2OrgDataset, Vec<MergeEdge>) {
    let inputs = PipelineInputs {
        delegations: &built.tree,
        routes: &built.routes,
        asn_clusters: &built.clusters,
        rpki: &built.rpki,
    };
    Pipeline::with_threads(2).dataset_with_evidence(&inputs, None)
}

/// `(prefix → (rov, final cluster))`, keyed canonically for order-free diffs.
fn projection(dataset: &Prefix2OrgDataset) -> BTreeMap<String, (RovStatus, String)> {
    dataset
        .records()
        .iter()
        .map(|r| (r.prefix.to_string(), (r.rov, r.final_cluster_label.clone())))
        .collect()
}

fn tally_json(tallies: [u64; 3]) -> Json {
    let mut o = Json::object();
    o.set("valid", Json::Num(tallies[0] as f64));
    o.set("invalid", Json::Num(tallies[1] as f64));
    o.set("not_found", Json::Num(tallies[2] as f64));
    o
}

/// The canonical degradation report for one `(class, adversary seed)` cell:
/// who was mutated, which validation problems appeared, and the exact
/// per-prefix ROV and attribution deltas against the clean twin.
fn degradation_report(
    outcome: &AdversaryOutcome,
    clean: &Prefix2OrgDataset,
    adv: &Prefix2OrgDataset,
    adv_problems: usize,
) -> Json {
    let clean_proj = projection(clean);
    let adv_proj = projection(adv);
    assert_eq!(
        clean_proj.keys().collect::<Vec<_>>(),
        adv_proj.keys().collect::<Vec<_>>(),
        "semantic RPKI mutations must not add or drop attributed prefixes \
         (routes and WHOIS are untouched)"
    );

    let mut rov_transitions = Vec::new();
    let mut attribution_changes = Vec::new();
    for (prefix, (clean_rov, clean_label)) in &clean_proj {
        let (adv_rov, adv_label) = &adv_proj[prefix];
        if clean_rov != adv_rov {
            let mut t = Json::object();
            t.set("prefix", Json::Str(prefix.clone()));
            t.set("clean", Json::Str(clean_rov.as_str().to_string()));
            t.set("adversarial", Json::Str(adv_rov.as_str().to_string()));
            rov_transitions.push(t);
        }
        if clean_label != adv_label {
            let mut t = Json::object();
            t.set("prefix", Json::Str(prefix.clone()));
            t.set("clean", Json::Str(clean_label.clone()));
            t.set("adversarial", Json::Str(adv_label.clone()));
            attribution_changes.push(t);
        }
    }

    let mut o = Json::object();
    o.set("class", Json::Str(outcome.class.as_str().to_string()));
    o.set("world_seed", Json::Num(WORLD_SEED as f64));
    o.set("adv_seed", Json::Num(outcome.seed as f64));
    o.set(
        "victim_subjects",
        Json::Arr(
            outcome
                .victim_subjects
                .iter()
                .map(|s| Json::Str(s.clone()))
                .collect(),
        ),
    );
    o.set(
        "affected_prefixes",
        Json::Arr(
            outcome
                .affected_prefixes
                .iter()
                .map(|p| Json::Str(p.to_string()))
                .collect(),
        ),
    );
    o.set("rpki_problems", Json::Num(adv_problems as f64));
    o.set("rov_clean", tally_json(clean.rov_tallies()));
    o.set("rov_adversarial", tally_json(adv.rov_tallies()));
    o.set("rov_transitions", Json::Arr(rov_transitions));
    o.set("attribution_changes", Json::Arr(attribution_changes));
    o.set(
        "final_clusters_clean",
        Json::Num(clean.metrics().final_clusters as f64),
    );
    o.set(
        "final_clusters_adversarial",
        Json::Num(adv.metrics().final_clusters as f64),
    );
    o
}

fn expectation_path(class: FaultClass, adv_seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/expectations")
        .join(format!("{}-s{adv_seed}.json", class.as_str()))
}

/// Compares `report` against its pinned expectation file, or rewrites the
/// pin when `P2O_UPDATE_EXPECT` is set.
fn check_pin(class: FaultClass, adv_seed: u64, report: &Json) {
    let path = expectation_path(class, adv_seed);
    let rendered = format!("{}\n", report.to_string_pretty());
    if std::env::var_os("P2O_UPDATE_EXPECT").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing expectation pin {} ({e}); regenerate with \
             P2O_UPDATE_EXPECT=1 cargo test --test adversarial_degradation",
            path.display()
        )
    });
    assert_eq!(
        pinned,
        rendered,
        "degradation for {} seed {adv_seed} drifted from its pin at {}; \
         if the change is intentional, regenerate with P2O_UPDATE_EXPECT=1",
        class.as_str(),
        path.display()
    );
}

/// Builds one exception rule line asserting `prefix` back to `org`.
fn assert_rule(prefix: &str, org: &str) -> String {
    let mut o = Json::object();
    o.set("prefix", Json::Str(prefix.to_string()));
    o.set("action", Json::Str("assert".to_string()));
    o.set("org", Json::Str(org.to_string()));
    o.to_string()
}

/// The tentpole property: every fault class at every adversary seed
/// degrades exactly as pinned, and exceptions restore clean attribution.
#[test]
fn every_fault_class_degrades_as_pinned_and_exceptions_restore() {
    let clean_world = World::generate(WorldConfig::tiny(WORLD_SEED));
    let clean_built = clean_world.build_inputs();
    assert!(
        clean_built.rpki_problems.is_empty(),
        "the clean tiny world must validate with zero problems"
    );
    let (clean_dataset, _) = build(&clean_built);
    let clean_proj = projection(&clean_dataset);

    let mut any_rov_transition = false;
    let mut any_attribution_change = false;
    for class in FaultClass::ALL {
        for adv_seed in adv_seeds(class) {
            let mut world = World::generate(WorldConfig::tiny(WORLD_SEED));
            let outcome = adversary::apply(&mut world, class, adv_seed);
            assert!(
                !outcome.affected_prefixes.is_empty(),
                "{class} seed {adv_seed}: mutation must touch at least one prefix"
            );
            let built = world.build_inputs();
            let (mut adv_dataset, _) = build(&built);

            let report = degradation_report(
                &outcome,
                &clean_dataset,
                &adv_dataset,
                built.rpki_problems.len(),
            );
            check_pin(class, adv_seed, &report);

            let transitions = report.get("rov_transitions").unwrap();
            if let Json::Arr(t) = transitions {
                any_rov_transition |= !t.is_empty();
            }

            // Restoration: assert every prefix whose attribution drifted
            // back to its clean label; the projection must come back
            // byte-identical. ROV stays degraded on purpose — exceptions
            // assert *attribution*, not routing security.
            let adv_proj = projection(&adv_dataset);
            let mut rules = String::new();
            for (prefix, (_, clean_label)) in &clean_proj {
                if &adv_proj[prefix].1 != clean_label {
                    rules.push_str(&assert_rule(prefix, clean_label));
                    rules.push('\n');
                    any_attribution_change = true;
                }
            }
            let (set, rejected) = ExceptionSet::parse_lenient(&rules);
            assert!(rejected.is_empty(), "generated rules must all parse");
            let summary = set.apply(&mut adv_dataset);
            assert_eq!(summary.unmatched, 0, "every rule targets a live record");
            let restored = projection(&adv_dataset);
            for (prefix, (_, clean_label)) in &clean_proj {
                assert_eq!(
                    &restored[prefix].1, clean_label,
                    "{class} seed {adv_seed}: exceptions must restore {prefix} \
                     to its clean attribution"
                );
            }
        }
    }
    assert!(
        any_rov_transition,
        "at least one fault class must flip a ROV state"
    );
    assert!(
        any_attribution_change,
        "at least one fault class must change an attribution \
         (otherwise the restoration half of this test is vacuous)"
    );
}

/// The override provenance for a corrected victim must agree across all
/// three read paths: the reference trace, the in-memory dataset record,
/// and the frozen zero-copy artifact, whose stored trace `explain` and
/// `/prefix` print.
#[test]
fn override_provenance_agrees_across_explain_dataset_and_frozen() {
    let mut world = World::generate(WorldConfig::tiny(WORLD_SEED));
    let outcome = adversary::apply(&mut world, FaultClass::ConflictingRoas, ADV_SEEDS[0]);
    let built = world.build_inputs();
    let inputs = PipelineInputs {
        delegations: &built.tree,
        routes: &built.routes,
        asn_clusters: &built.clusters,
        rpki: &built.rpki,
    };
    let pipeline = Pipeline::with_threads(2);
    let (mut dataset, merge_edges) = pipeline.dataset_with_evidence(&inputs, None);

    // Override the first prefix the hijacker ROA flipped to Invalid; fall
    // back to the first record if none of the affected prefixes is an
    // exact dataset record (they always are for conflicting-roas, which
    // targets routed space by construction).
    let target: Prefix = outcome
        .affected_prefixes
        .iter()
        .copied()
        .find(|p| dataset.records().iter().any(|r| r.prefix == *p))
        .unwrap_or(dataset.records()[0].prefix);
    let rules = format!(
        "{}\n",
        assert_rule(&target.to_string(), "Operator Override LLC")
    );
    let (set, rejected) = ExceptionSet::parse_lenient(&rules);
    assert!(rejected.is_empty());
    let summary = set.apply(&mut dataset);
    assert_eq!((summary.asserted, summary.unmatched), (1, 0));

    // Path 1: the in-memory dataset record.
    let record = dataset
        .records()
        .iter()
        .find(|r| r.prefix == target)
        .expect("override target is a dataset record");
    assert_eq!(record.final_cluster_label, "Operator Override LLC");
    assert!(record.local_exception.is_some());
    assert_eq!(
        record.rov,
        RovStatus::Invalid,
        "the exception asserts attribution; the hijacked ROV verdict stays"
    );

    // Path 2: the reference trace of the record with the rules applied.
    let rendered = attribution_trace(&inputs, &dataset, &merge_edges, &target).render();
    assert!(
        rendered.contains("local_exception"),
        "the trace must surface the override step:\n{rendered}"
    );
    assert!(
        rendered.contains("Operator Override LLC"),
        "the trace must land on the overridden label:\n{rendered}"
    );

    // Path 3: the frozen zero-copy artifact built from the same dataset.
    let payload = freeze(&inputs, &dataset, &merge_edges, 0);
    let frozen = FrozenDataset::from_payload(payload).expect("freeze yields a valid payload");
    let idx = frozen.exact(&target).expect("frozen keeps the record");
    assert!(frozen.has_local_exception(idx));
    assert_eq!(frozen.rov(idx), RovStatus::Invalid);
    assert_eq!(frozen.exception_count(), 1);
    assert_eq!(frozen.rov_tallies(), dataset.rov_tallies());
    assert_eq!(frozen.provenance(idx), rendered);
}
