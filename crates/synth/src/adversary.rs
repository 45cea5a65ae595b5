//! Semantic adversarial mutations of a generated world's RPKI layer.
//!
//! Where [`crate::corrupt`] damages *bytes* (torn frames, junk lines) that
//! the lenient parsers quarantine, this module damages *meaning*: every
//! mutated object still parses — and its signature still verifies — but
//! chain validation rejects it for a semantic reason, exactly as a relying
//! party would. The world's WHOIS, MRT, and AS2Org artifacts are untouched;
//! only the RPKI repository changes, so the degradation an adversarial
//! world shows against its clean twin is attributable to RPKI evidence
//! alone (ROV statuses, Resource-Certificate coverage, cluster merges).
//!
//! Fault classes (all seeded, all deterministic):
//!
//! - [`FaultClass::ExpiredCert`]: a member account certificate — or one of
//!   the RIR *trust anchors* — is re-signed with a validity window that
//!   ended before the snapshot date. Validation reports `Expired`; its ROAs
//!   lose their parent, so covered routes fall from `valid` to `not_found`,
//!   and RC coverage over its resources is gone. An expired TA collapses
//!   its whole region's chain at once, the only fault that also reaches
//!   cluster merges (member-cert loss falls back to a still-valid
//!   covering ancestor).
//! - [`FaultClass::ResourceOverclaim`]: the certificate is re-signed
//!   claiming `192.0.2.0/24` (TEST-NET-1, outside every RIR pool) on top of
//!   its real resources — a correctly signed RFC 3779 violation. The whole
//!   certificate is rejected (`ResourceOverclaim`), degrading exactly like
//!   the expiry case: one semantically-plausible extra prefix poisons all
//!   of the holder's legitimate evidence.
//! - [`FaultClass::ConflictingRoas`]: for routed prefixes with **no** VRP
//!   coverage (preferring MOAS sets, where every origin in the set is
//!   hit at once), a perfectly valid ROA authorizing a hijacker ASN is
//!   issued under the covering trust anchor. Real announcements fall from
//!   `not_found` to `invalid` — the classic misissued-ROA incident.
//! - [`FaultClass::OrphanedDelegation`]: a mid-chain certificate is removed
//!   outright while its children and ROAs stay behind, chaining to a key
//!   that no longer exists (`UnknownIssuer` / `RoaBadParent`) — the
//!   repository-withdrawal failure mode.
//!
//! Victim selection draws from candidate lists sorted by subject (or
//! prefix), so a `(world seed, class, adversary seed)` triple always
//! produces the same mutation — the property the pinned expectation files
//! in `tests/expectations/` rely on.

use core::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use p2o_bgp::RouteTable;
use p2o_net::Prefix;
use p2o_rpki::{CertId, RoaPrefix, RovStatus};
use p2o_util::Json;

use crate::world::World;

/// The origin ASN the conflicting-ROA adversary authorizes. Outside the
/// generator's ASN range (60000+ counted upward never reaches it in any
/// supported scale) and visibly bogus in traces.
pub const HIJACKER_ASN: u32 = 64666;

/// The overclaimed prefix (TEST-NET-1): outside every carver pool, so it is
/// never legitimately delegated.
pub const OVERCLAIM_PREFIX: &str = "192.0.2.0/24";

/// A semantic fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A member certificate re-signed with an elapsed validity window.
    ExpiredCert,
    /// A member certificate re-signed claiming space its issuer never held.
    ResourceOverclaim,
    /// A valid ROA authorizing a hijacker ASN over uncovered routed space.
    ConflictingRoas,
    /// A mid-chain certificate withdrawn, orphaning its subtree and ROAs.
    OrphanedDelegation,
}

impl FaultClass {
    /// Every class, in a stable order.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::ExpiredCert,
        FaultClass::ResourceOverclaim,
        FaultClass::ConflictingRoas,
        FaultClass::OrphanedDelegation,
    ];

    /// The CLI / file-name spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultClass::ExpiredCert => "expired-cert",
            FaultClass::ResourceOverclaim => "resource-overclaim",
            FaultClass::ConflictingRoas => "conflicting-roas",
            FaultClass::OrphanedDelegation => "orphaned-delegation",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a mutation did, for the `adversary.json` manifest and the pinned
/// expectation machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversaryOutcome {
    /// The applied class.
    pub class: FaultClass,
    /// The adversary seed (independent of the world seed).
    pub seed: u64,
    /// Subjects of mutated/removed certificates (empty for ROA-only
    /// classes).
    pub victim_subjects: Vec<String>,
    /// Routed prefixes whose RPKI posture the mutation degrades, sorted.
    pub affected_prefixes: Vec<Prefix>,
}

impl AdversaryOutcome {
    /// The manifest representation written next to the world's artifacts.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("class", self.class.as_str());
        o.set("seed", self.seed);
        o.set(
            "victim_subjects",
            Json::Arr(
                self.victim_subjects
                    .iter()
                    .map(|s| Json::Str(s.clone()))
                    .collect(),
            ),
        );
        o.set(
            "affected_prefixes",
            Json::Arr(
                self.affected_prefixes
                    .iter()
                    .map(|p| Json::Str(p.to_string()))
                    .collect(),
            ),
        );
        o
    }
}

/// Applies `class` to `world`'s RPKI repository in place. Panics only if
/// the world has no eligible victim at all (a misconfigured world, not a
/// runtime condition — every supported scale has candidates for every
/// class).
pub fn apply(world: &mut World, class: FaultClass, seed: u64) -> AdversaryOutcome {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4144_5645_5253_4152);
    match class {
        FaultClass::ExpiredCert => {
            let victim = pick_expirable(world, &mut rng);
            let affected = roa_prefixes_under(world, victim.0);
            // The window closed well before any generated snapshot date.
            assert!(world
                .rpki
                .reissue_with_validity(victim.0, 20150101, 20160101));
            AdversaryOutcome {
                class,
                seed,
                victim_subjects: vec![victim.1],
                affected_prefixes: affected,
            }
        }
        FaultClass::ResourceOverclaim => {
            let victim = pick_roa_anchor(world, &mut rng);
            let affected = roa_prefixes_under(world, victim.0);
            let overclaim: Prefix = OVERCLAIM_PREFIX.parse().expect("constant parses");
            let mut resources = world
                .rpki
                .cert(&victim.0)
                .expect("picked from repo")
                .resources
                .clone();
            resources.add_prefix(&overclaim);
            assert!(world.rpki.reissue_with_resources(victim.0, resources));
            AdversaryOutcome {
                class,
                seed,
                victim_subjects: vec![victim.1],
                affected_prefixes: affected,
            }
        }
        FaultClass::ConflictingRoas => {
            let targets = pick_uncovered_routes(world, &mut rng);
            assert!(
                !targets.is_empty(),
                "world has no uncovered routed prefix to target"
            );
            for &prefix in &targets {
                let ta = covering_trust_anchor(world, &prefix)
                    .expect("routed space is carved from a TA pool");
                world
                    .rpki
                    .issue_roa(
                        ta,
                        HIJACKER_ASN,
                        vec![RoaPrefix::exact(prefix)],
                        20190101,
                        20301231,
                    )
                    .expect("TA holds the pool the prefix was carved from");
            }
            AdversaryOutcome {
                class,
                seed,
                victim_subjects: Vec::new(),
                affected_prefixes: targets,
            }
        }
        FaultClass::OrphanedDelegation => {
            let victim = pick_orphanable(world, &mut rng);
            let affected = roa_prefixes_under(world, victim.0);
            assert!(world.rpki.remove_cert(victim.0));
            AdversaryOutcome {
                class,
                seed,
                victim_subjects: vec![victim.1],
                affected_prefixes: affected,
            }
        }
    }
}

/// Member certificates (never trust anchors) anchoring at least one ROA,
/// sorted by subject for determinism.
fn roa_anchors(world: &World) -> Vec<(CertId, String)> {
    let mut anchors: Vec<(CertId, String)> = world
        .rpki
        .certs_in_order()
        .filter(|c| c.issuer.is_some())
        .filter(|c| world.rpki.roas_in_order().any(|r| r.parent == c.id))
        .map(|c| (c.id, c.subject.clone()))
        .collect();
    anchors.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
    anchors
}

fn pick_roa_anchor(world: &World, rng: &mut StdRng) -> (CertId, String) {
    let anchors = roa_anchors(world);
    assert!(
        !anchors.is_empty(),
        "world has no ROA-anchoring member cert"
    );
    anchors[rng.random_range(0..anchors.len())].clone()
}

/// Expirable victims: every ROA-anchoring member cert, plus the trust
/// anchors themselves. TA expiry is the famous operational failure mode
/// (an RIR lets its root certificate lapse and the whole region's chain
/// collapses at once), and it is the only fault that reaches *clustering*:
/// member-cert loss falls back to a still-valid covering ancestor, but a
/// dead TA leaves its prefixes with no certificate at all.
fn pick_expirable(world: &World, rng: &mut StdRng) -> (CertId, String) {
    let mut candidates = roa_anchors(world);
    candidates.extend(
        world
            .rpki
            .trust_anchors()
            .iter()
            .filter_map(|id| world.rpki.cert(id))
            .filter(|c| !roa_prefixes_under(world, c.id).is_empty())
            .map(|c| (c.id, c.subject.clone())),
    );
    candidates.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
    candidates[rng.random_range(0..candidates.len())].clone()
}

/// Orphanable victims: prefer member certs that issued child certificates
/// (a real mid-chain withdrawal); fall back to ROA anchors.
fn pick_orphanable(world: &World, rng: &mut StdRng) -> (CertId, String) {
    let mut parents: Vec<(CertId, String)> = world
        .rpki
        .certs_in_order()
        .filter(|c| c.issuer.is_some())
        .filter(|c| {
            world
                .rpki
                .certs_in_order()
                .any(|child| child.issuer == Some(c.id))
        })
        // Only certs whose subtree actually anchors ROAs: withdrawing a
        // delegation nobody published under degrades nothing observable.
        .filter(|c| !roa_prefixes_under(world, c.id).is_empty())
        .map(|c| (c.id, c.subject.clone()))
        .collect();
    parents.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
    if parents.is_empty() {
        return pick_roa_anchor(world, rng);
    }
    parents[rng.random_range(0..parents.len())].clone()
}

/// All ROA prefixes anchored (directly or through descendants) at `cert`,
/// sorted and deduplicated — the routes whose ROV posture the mutation
/// reaches.
fn roa_prefixes_under(world: &World, cert: CertId) -> Vec<Prefix> {
    // Collect the descendant set (the repo is a tree, tiny at any scale).
    let mut family = vec![cert];
    loop {
        let before = family.len();
        for c in world.rpki.certs_in_order() {
            if let Some(parent) = c.issuer {
                if family.contains(&parent) && !family.contains(&c.id) {
                    family.push(c.id);
                }
            }
        }
        if family.len() == before {
            break;
        }
    }
    let mut prefixes: Vec<Prefix> = world
        .rpki
        .roas_in_order()
        .filter(|r| family.contains(&r.parent))
        .flat_map(|r| r.prefixes.iter().map(|rp| rp.prefix))
        .collect();
    prefixes.sort();
    prefixes.dedup();
    prefixes
}

/// Routed prefixes with no VRP coverage for any of their origins,
/// MOAS sets first. Takes up to two victims.
fn pick_uncovered_routes(world: &World, rng: &mut StdRng) -> Vec<Prefix> {
    let routes = RouteTable::from_mrt(&world.mrt).expect("generated MRT parses");
    let (valid, _) = world.rpki.validate(world.config.snapshot_date);
    let mut moas: Vec<Prefix> = Vec::new();
    let mut single: Vec<Prefix> = Vec::new();
    for (prefix, origins) in routes.iter() {
        let uncovered = origins
            .iter()
            .all(|&o| valid.rov(prefix, o) == RovStatus::NotFound);
        if !uncovered {
            continue;
        }
        if origins.len() > 1 {
            moas.push(*prefix);
        } else {
            single.push(*prefix);
        }
    }
    moas.sort();
    single.sort();
    let mut pool = if moas.is_empty() { single } else { moas };
    let mut targets = Vec::new();
    for _ in 0..2 {
        if pool.is_empty() {
            break;
        }
        targets.push(pool.remove(rng.random_range(0..pool.len())));
    }
    targets.sort();
    targets
}

/// The trust anchor whose pool contains `prefix`.
fn covering_trust_anchor(world: &World, prefix: &Prefix) -> Option<CertId> {
    world.rpki.trust_anchors().iter().copied().find(|id| {
        world
            .rpki
            .cert(id)
            .is_some_and(|c| c.resources.contains_prefix(prefix))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    fn degradation(class: FaultClass, world_seed: u64, adv_seed: u64) -> (AdversaryOutcome, usize) {
        let clean = World::generate(WorldConfig::tiny(world_seed));
        let (_, clean_problems) = clean.rpki.validate(clean.config.snapshot_date);
        assert!(clean_problems.is_empty(), "{clean_problems:?}");
        let mut world = World::generate(WorldConfig::tiny(world_seed));
        let outcome = apply(&mut world, class, adv_seed);
        let (_, problems) = world.rpki.validate(world.config.snapshot_date);
        (outcome, problems.len())
    }

    #[test]
    fn every_class_degrades_validation() {
        for class in FaultClass::ALL {
            let (outcome, problems) = degradation(class, 41, 7);
            if class == FaultClass::ConflictingRoas {
                // The whole point: the hijacker ROA validates cleanly — the
                // damage shows up in ROV, not in chain validation.
                assert_eq!(problems, 0, "{class}: the conflicting ROA must be valid");
            } else {
                assert!(problems > 0, "{class}: no validation problem appeared");
            }
            assert!(
                !outcome.affected_prefixes.is_empty(),
                "{class}: no affected prefix recorded"
            );
        }
    }

    #[test]
    fn same_seed_same_mutation() {
        for class in FaultClass::ALL {
            let mut a = World::generate(WorldConfig::tiny(41));
            let mut b = World::generate(WorldConfig::tiny(41));
            let oa = apply(&mut a, class, 7);
            let ob = apply(&mut b, class, 7);
            assert_eq!(oa, ob, "{class}");
            assert_eq!(
                p2o_rpki::persist::to_jsonl(&a.rpki),
                p2o_rpki::persist::to_jsonl(&b.rpki),
                "{class}: repositories diverge"
            );
        }
    }

    #[test]
    fn different_seeds_can_pick_different_victims() {
        let outcomes: Vec<AdversaryOutcome> = (0..8)
            .map(|s| {
                let mut w = World::generate(WorldConfig::tiny(41));
                apply(&mut w, FaultClass::ExpiredCert, s)
            })
            .collect();
        let distinct: std::collections::HashSet<_> =
            outcomes.iter().map(|o| o.victim_subjects.clone()).collect();
        assert!(distinct.len() > 1, "victim selection ignores the seed");
    }

    #[test]
    fn expired_cert_flips_rov_valid_to_not_found() {
        let mut world = World::generate(WorldConfig::tiny(41));
        let clean_valid = {
            let (v, _) = world.rpki.validate(world.config.snapshot_date);
            v
        };
        let outcome = apply(&mut world, FaultClass::ExpiredCert, 7);
        let (adv_valid, _) = world.rpki.validate(world.config.snapshot_date);
        let routes = RouteTable::from_mrt(&world.mrt).expect("mrt");
        let mut flipped = 0;
        for prefix in &outcome.affected_prefixes {
            let Some(origins) = routes.origins(prefix) else {
                continue;
            };
            for &o in origins {
                if clean_valid.rov(prefix, o) == RovStatus::Valid
                    && adv_valid.rov(prefix, o) == RovStatus::NotFound
                {
                    flipped += 1;
                }
            }
        }
        assert!(flipped > 0, "no route lost its Valid status");
    }

    #[test]
    fn conflicting_roas_flip_not_found_to_invalid() {
        let mut world = World::generate(WorldConfig::tiny(41));
        let outcome = apply(&mut world, FaultClass::ConflictingRoas, 7);
        let (valid, problems) = world.rpki.validate(world.config.snapshot_date);
        assert!(
            problems.is_empty(),
            "the hijacker ROA is valid: {problems:?}"
        );
        let routes = RouteTable::from_mrt(&world.mrt).expect("mrt");
        for prefix in &outcome.affected_prefixes {
            for &o in routes.origins(prefix).expect("targeted a routed prefix") {
                assert_eq!(
                    valid.rov(prefix, o),
                    RovStatus::Invalid,
                    "{prefix} AS{o} should now be Invalid"
                );
            }
            assert_eq!(valid.rov(prefix, HIJACKER_ASN), RovStatus::Valid);
        }
    }

    #[test]
    fn outcome_json_shape() {
        let mut world = World::generate(WorldConfig::tiny(41));
        let outcome = apply(&mut world, FaultClass::OrphanedDelegation, 7);
        let j = outcome.to_json();
        assert_eq!(
            j.get("class").and_then(Json::as_str),
            Some("orphaned-delegation")
        );
        assert_eq!(j.get("seed").and_then(Json::as_u64), Some(7));
        assert!(matches!(j.get("affected_prefixes"), Some(Json::Arr(_))));
    }

    #[test]
    fn class_parse_round_trips() {
        for class in FaultClass::ALL {
            assert_eq!(FaultClass::parse(class.as_str()), Some(class));
        }
        assert_eq!(FaultClass::parse("bit-flips"), None);
    }
}
