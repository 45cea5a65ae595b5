//! World generation: organizations, delegations, routing, RPKI, AS2Org,
//! WHOIS dumps, and ground truth — all deterministic in the seed.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use p2o_bgp::attrs::{AsPath, PathAttributes};
use p2o_bgp::{MrtWriter, PeerEntry, RibEntry, RouteTable};
use p2o_net::{Prefix, Prefix4, Prefix6};
use p2o_rpki::{CertId, IpResourceSet, RoaPrefix, RpkiRepository, ValidatedRepo};
use p2o_whois::alloc::AllocationType;
use p2o_whois::{DelegationTree, Nir, Registry, Rir, WhoisDb};

use crate::carver::{v4_pools, v6_pool, CarverV4, CarverV6};
use crate::config::WorldConfig;
use crate::names::{self, NameVariant};
use crate::truth::{GroundTruth, PublishedList};

/// Organization archetypes (see module docs and DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrgKind {
    /// Global carrier: multi-region, multi-ASN, many customers.
    Carrier,
    /// Cloud/CDN provider with a public IP list.
    Cloud,
    /// Regional ISP.
    Isp,
    /// IP leasing entity (§8.1 Cloud-Innovation analogue).
    Leasing,
    /// Mid-size enterprise.
    Enterprise,
    /// Small single-prefix organization (§7.2 cohort).
    SmallOrg,
    /// Educational institution (Internet2-affiliate analogue; no ROAs).
    Edu,
    /// Holds address space but no ASN (§8.1).
    NoAsn,
}

/// One synthetic organization.
#[derive(Debug, Clone)]
pub struct SynthOrg {
    /// Dense id; index into [`World::orgs`].
    pub id: usize,
    /// Archetype.
    pub kind: OrgKind,
    /// The unique base word its names derive from.
    pub base: String,
    /// Name variants; `[0]` is the headquarters name used for validation.
    pub names: Vec<NameVariant>,
    /// ASNs the org operates (empty for [`OrgKind::NoAsn`]).
    pub asns: Vec<u32>,
    /// Whether the org issues ROAs for its own space.
    pub rpki_adopter: bool,
    /// RIR regions where it holds direct delegations.
    pub regions: Vec<Rir>,
}

impl SynthOrg {
    /// The headquarters name (used as the validation query).
    pub fn hq_name(&self) -> &str {
        &self.names[0].name
    }
}

/// One direct delegation (RIR/NIR → org).
#[derive(Debug, Clone)]
struct DirectAlloc {
    org: usize,
    name_idx: usize,
    registry: Registry,
    prefix: Prefix,
    alloc: AllocationType,
    /// ARIN legacy without RSA / RIPE legacy not sponsored: no own RPKI.
    legacy_unsigned: bool,
    date: u32,
    /// Sub-carving cursor for customer delegations.
    sub_cursor: u128,
}

/// One sub-delegation (possibly a two-level chain on the same prefix).
#[derive(Debug, Clone)]
struct SubDelegation {
    parent: usize, // index into allocs
    prefix: Prefix,
    steps: Vec<(usize /*org*/, AllocationType)>,
    date: u32,
}

/// A routed prefix with its origins and true Direct Owner.
#[derive(Debug, Clone)]
struct Route {
    prefix: Prefix,
    origins: Vec<u32>,
    true_owner: usize,
}

/// Public summary of one direct delegation (for delegated-file emission
/// and world introspection in tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectAllocationInfo {
    /// The holder organization id.
    pub org: usize,
    /// The issuing registry.
    pub registry: Registry,
    /// The delegated block.
    pub prefix: Prefix,
    /// The allocation type on the WHOIS record.
    pub alloc: AllocationType,
    /// Delegation date (`YYYYMMDD`).
    pub date: u32,
}

/// A WHOIS bulk dump in its native flavour.
#[derive(Debug, Clone)]
pub struct WhoisDump {
    /// The registry the dump belongs to.
    pub registry: Registry,
    /// The dump text in the registry's native format.
    pub text: String,
}

/// The generated world.
#[derive(Debug)]
pub struct World {
    /// The configuration that produced this world.
    pub config: WorldConfig,
    /// All organizations.
    pub orgs: Vec<SynthOrg>,
    /// WHOIS bulk dumps, one per registry that has records.
    pub whois_dumps: Vec<WhoisDump>,
    /// The JPNIC per-prefix allocation-type query service data (§4.2).
    pub jpnic_alloc: HashMap<Prefix, AllocationType>,
    /// The MRT RIB snapshot.
    pub mrt: Vec<u8>,
    /// The RPKI repository (unvalidated; run `validate` yourself or use
    /// [`World::build_inputs`]).
    pub rpki: RpkiRepository,
    /// AS2Org records and sibling edges.
    pub as2org: p2o_as2org::As2OrgDb,
    /// Ground truth.
    pub truth: GroundTruth,
    /// Summary of all direct delegations (delegated-file emission, tests).
    pub allocations: Vec<DirectAllocationInfo>,
}

/// The world's data parsed through the real substrate pipelines, ready for
/// `prefix2org` pipeline consumption.
pub struct BuiltInputs {
    /// The WHOIS delegation tree.
    pub tree: DelegationTree,
    /// The routing table (parsed back from MRT bytes).
    pub routes: RouteTable,
    /// ASN sibling clusters.
    pub clusters: p2o_as2org::AsnClusters,
    /// The validated RPKI view.
    pub rpki: ValidatedRepo,
    /// WHOIS parse/build statistics.
    pub whois_stats: p2o_whois::db::BuildStats,
    /// RPKI validation problems (should be empty for a generated world).
    pub rpki_problems: Vec<p2o_rpki::RepoProblem>,
}

impl World {
    /// Generates a world from the configuration.
    pub fn generate(config: WorldConfig) -> World {
        Generator::new(config).run()
    }

    /// Parses the world's native-format outputs through the real substrate
    /// code paths and returns pipeline-ready inputs.
    pub fn build_inputs(&self) -> BuiltInputs {
        self.build_inputs_with(None)
    }

    /// [`build_inputs`] with optional observability: when `obs` is given the
    /// WHOIS parser, MRT reader, and radix trees tick their counters and
    /// stages into it (the same wiring the CLI `--report` path uses).
    ///
    /// [`build_inputs`]: World::build_inputs
    pub fn build_inputs_with(&self, obs: Option<&p2o_obs::Obs>) -> BuiltInputs {
        let mut db = WhoisDb::new();
        if let Some(o) = obs {
            // The zero-registered counter families are part of the
            // instrumented surface even on clean input, so clean and
            // corrupted runs stay structurally identical.
            p2o_obs::catalogue::register(o, p2o_obs::catalogue::Source::BuildSetup);
            db.instrument(o);
        }
        for dump in &self.whois_dumps {
            db.add_dump(&dump.text, dump.registry, 1);
        }
        db.fill_jpnic_alloc(|p| self.jpnic_alloc.get(p).copied());
        let (tree, whois_stats) = db.build();
        let lenient = RouteTable::from_mrt_lenient(&self.mrt, obs, 1);
        assert!(
            lenient.quarantined.is_empty(),
            "generated MRT parses: {:?}",
            lenient.quarantined
        );
        let routes = lenient.table;
        let clusters = self.as2org.cluster();
        let (rpki, rpki_problems) = self.rpki.validate(self.config.snapshot_date);
        BuiltInputs {
            tree,
            routes,
            clusters,
            rpki,
            whois_stats,
            rpki_problems,
        }
    }

    /// Emits per-RIR NRO delegated-extended statistics files reflecting the
    /// world's direct delegations (NIR-mediated space appears under the
    /// parent RIR, as in reality).
    pub fn delegated_files(&self) -> Vec<(Rir, String)> {
        use p2o_whois::delegated::{DelegatedRecord, DelegatedStatus};
        let mut per_rir: HashMap<Rir, Vec<DelegatedRecord>> = HashMap::new();
        for info in &self.allocations {
            let rir = info.registry.policy_rir();
            let status = if info.alloc.rights().sub_delegation {
                DelegatedStatus::Allocated
            } else {
                DelegatedStatus::Assigned
            };
            let range = match info.prefix {
                Prefix::V4(p) => p2o_net::IpRange::V4(p2o_net::Range4::from_prefix(&p)),
                Prefix::V6(p) => p2o_net::IpRange::V6(p2o_net::Range6::from_prefix(&p)),
            };
            per_rir.entry(rir).or_default().push(DelegatedRecord {
                registry: rir,
                country: "ZZ".to_string(),
                range,
                date: info.date,
                status,
                opaque_id: Some(format!("{}-{}", self.orgs[info.org].base, info.registry)),
            });
        }
        let mut out: Vec<(Rir, String)> = per_rir
            .into_iter()
            .map(|(rir, mut records)| {
                records.sort_by_key(|r| r.range);
                let text = p2o_whois::delegated::write(rir, self.config.snapshot_date, &records);
                (rir, text)
            })
            .collect();
        out.sort_by_key(|(rir, _)| *rir);
        out
    }

    /// The org with the given id.
    pub fn org(&self, id: usize) -> &SynthOrg {
        &self.orgs[id]
    }

    /// Orgs of one archetype.
    pub fn orgs_of_kind(&self, kind: OrgKind) -> impl Iterator<Item = &SynthOrg> {
        self.orgs.iter().filter(move |o| o.kind == kind)
    }
}

// --- generation internals ---

struct Generator {
    config: WorldConfig,
    rng: StdRng,
    orgs: Vec<SynthOrg>,
    carvers4: HashMap<Rir, CarverV4>,
    carvers6: HashMap<Rir, CarverV6>,
    allocs: Vec<DirectAlloc>,
    subs: Vec<SubDelegation>,
    routes: Vec<Route>,
    next_asn: u32,
}

const VALID_FROM: u32 = 20190101;
const VALID_TO: u32 = 20301231;

impl Generator {
    fn new(config: WorldConfig) -> Self {
        Generator {
            config,
            rng: StdRng::seed_from_u64(config.seed),
            orgs: Vec::new(),
            carvers4: Rir::ALL.iter().map(|&r| (r, CarverV4::new(r))).collect(),
            carvers6: Rir::ALL.iter().map(|&r| (r, CarverV6::new(r))).collect(),
            allocs: Vec::new(),
            subs: Vec::new(),
            routes: Vec::new(),
            next_asn: 60000,
        }
    }

    fn date(&mut self) -> u32 {
        let y = self.rng.random_range(2019..=2024u32);
        let m = self.rng.random_range(1..=12u32);
        let d = self.rng.random_range(1..=28u32);
        y * 10000 + m * 100 + d
    }

    fn pick_rir(&mut self) -> Rir {
        Rir::ALL[self.rng.random_range(0..Rir::ALL.len())]
    }

    fn take_asn(&mut self) -> u32 {
        let a = self.next_asn;
        self.next_asn += 1;
        a
    }

    fn run(mut self) -> World {
        self.make_orgs();
        self.make_direct_allocations();
        self.apply_transfers();
        self.make_sub_delegations();
        self.make_routes();
        let mrt = self.make_mrt();
        let (rpki, _accounts) = self.make_rpki();
        let as2org = self.make_as2org();
        let whois_dumps = self.make_whois_dumps();
        let jpnic_alloc = self.jpnic_query_map();
        let truth = self.make_truth();
        let allocations = self
            .allocs
            .iter()
            .map(|a| DirectAllocationInfo {
                org: a.org,
                registry: a.registry,
                prefix: a.prefix,
                alloc: a.alloc,
                date: a.date,
            })
            .collect();
        World {
            config: self.config,
            orgs: self.orgs,
            whois_dumps,
            jpnic_alloc,
            mrt,
            rpki,
            as2org,
            truth,
            allocations,
        }
    }

    fn make_orgs(&mut self) {
        let plan: Vec<(OrgKind, usize)> = vec![
            (OrgKind::Carrier, self.config.carriers),
            (OrgKind::Cloud, self.config.clouds),
            (OrgKind::Isp, self.config.isps),
            (OrgKind::Leasing, self.config.leasing),
            (OrgKind::Enterprise, self.config.enterprises),
            (OrgKind::SmallOrg, self.config.small_orgs),
            (OrgKind::Edu, self.config.edu),
            (OrgKind::NoAsn, self.config.no_asn),
        ];
        for (kind, count) in plan {
            for _ in 0..count {
                let id = self.orgs.len();
                let (n_names, n_asns, adopt_p) = match kind {
                    OrgKind::Carrier => (
                        self.rng.random_range(4..=6),
                        self.rng.random_range(3..=5),
                        0.85,
                    ),
                    OrgKind::Cloud => (
                        self.rng.random_range(2..=3),
                        self.rng.random_range(1..=2),
                        0.9,
                    ),
                    OrgKind::Isp => (
                        self.rng.random_range(1..=2),
                        self.rng.random_range(1..=2),
                        0.5,
                    ),
                    OrgKind::Leasing => (self.rng.random_range(1..=2), 1, 0.8),
                    OrgKind::Enterprise => (1, usize::from(self.rng.random_bool(0.5)), 0.4),
                    OrgKind::SmallOrg => (1, usize::from(self.rng.random_bool(0.7)), 0.35),
                    OrgKind::Edu => (1, 1, 0.0), // the RPKI-Ready (ROA-less) cohort
                    OrgKind::NoAsn => (1, 0, 0.25),
                };
                let names = names::variants(&mut self.rng, id, n_names);
                let asns = (0..n_asns).map(|_| self.take_asn()).collect();
                let rpki_adopter = self.rng.random_bool(adopt_p);
                let regions = match kind {
                    OrgKind::Carrier => {
                        let k = self.rng.random_range(2..=4);
                        let mut rs: Vec<Rir> = Rir::ALL.to_vec();
                        // Deterministic shuffle via index draws.
                        for i in (1..rs.len()).rev() {
                            let j = self.rng.random_range(0..=i);
                            rs.swap(i, j);
                        }
                        rs.truncate(k);
                        rs
                    }
                    OrgKind::Edu => vec![Rir::Arin],
                    _ => vec![self.pick_rir()],
                };
                self.orgs.push(SynthOrg {
                    id,
                    kind,
                    base: names::base_word(id),
                    names,
                    asns,
                    rpki_adopter,
                    regions,
                });
            }
        }
    }

    fn alloc_v4(&mut self, rir: Rir, len_lo: u8, len_hi: u8) -> Prefix4 {
        let len = self.rng.random_range(len_lo..=len_hi);
        self.carvers4.get_mut(&rir).expect("carver").alloc(len)
    }

    fn alloc_v6(&mut self, rir: Rir, len_lo: u8, len_hi: u8) -> Prefix6 {
        let len = self.rng.random_range(len_lo..=len_hi);
        self.carvers6.get_mut(&rir).expect("carver").alloc(len)
    }

    /// Direct-owner allocation type for a (registry, family, archetype).
    fn do_type(&mut self, rir: Rir, v6: bool, kind: OrgKind) -> AllocationType {
        use AllocationType::*;
        let end_user = matches!(
            kind,
            OrgKind::Enterprise | OrgKind::SmallOrg | OrgKind::Edu | OrgKind::NoAsn
        );
        match (rir, v6) {
            (Rir::Arin, _) => Allocation,
            (Rir::Lacnic, _) => {
                if end_user {
                    LacnicAssigned
                } else {
                    LacnicAllocated
                }
            }
            (Rir::Apnic, _) => {
                if end_user {
                    AssignedPortable
                } else {
                    AllocatedPortable
                }
            }
            (Rir::Ripe, false) | (Rir::Afrinic, false) => {
                if end_user {
                    AssignedPi
                } else {
                    AllocatedPa
                }
            }
            (Rir::Ripe, true) | (Rir::Afrinic, true) => AllocatedByRir,
        }
    }

    fn make_direct_allocations(&mut self) {
        for org_id in 0..self.orgs.len() {
            let org = self.orgs[org_id].clone();
            // The headquarters name must appear on at least one record —
            // real organizations always register *something* under their
            // primary legal name, and §7 validation queries by that name.
            let mut hq_used = false;
            for &rir in &org.regions {
                let (v4_blocks, v4_lo, v4_hi, v6_blocks): (usize, u8, u8, usize) = match org.kind {
                    OrgKind::Carrier => (
                        self.rng.random_range(1..=3),
                        12,
                        16,
                        self.rng.random_range(1..=2),
                    ),
                    OrgKind::Cloud => (self.rng.random_range(2..=4), 14, 18, 1),
                    OrgKind::Isp => (self.rng.random_range(1..=2), 16, 19, 1),
                    OrgKind::Leasing => (self.rng.random_range(2..=5), 16, 18, 0),
                    OrgKind::Enterprise => (1, 20, 23, usize::from(self.rng.random_bool(0.3))),
                    OrgKind::SmallOrg => (1, 24, 24, 0),
                    OrgKind::Edu => (1, 16, 21, usize::from(self.rng.random_bool(0.3))),
                    OrgKind::NoAsn => (self.rng.random_range(1..=3), 18, 22, 0),
                };
                for _ in 0..v4_blocks {
                    let prefix = self.alloc_v4(rir, v4_lo, v4_hi);
                    let mut alloc = self.do_type(rir, false, org.kind);
                    let mut legacy_unsigned = false;
                    // Legacy space: ~25% of ARIN/RIPE v4 blocks of the
                    // older org kinds (paper: ~30% of routed IPv4 space is
                    // legacy, concentrated in ARIN and RIPE).
                    if matches!(rir, Rir::Arin | Rir::Ripe)
                        && matches!(
                            org.kind,
                            OrgKind::Carrier | OrgKind::Enterprise | OrgKind::Edu | OrgKind::NoAsn
                        )
                        && self.rng.random_bool(0.25)
                    {
                        if rir == Rir::Arin {
                            // Half of ARIN legacy holders have not signed an
                            // RSA (paper §B.1: 16% of ARIN-zone prefixes lack
                            // one) — they get no Resource Certificate, which
                            // drives the paper's 88% RC-coverage figure.
                            if self.rng.random_bool(0.5) {
                                alloc = AllocationType::AllocationLegacy;
                                legacy_unsigned = true;
                            }
                        } else {
                            alloc = AllocationType::Legacy;
                            // 36.4% of RIPE legacy is not sponsored (§B.1).
                            if self.rng.random_bool(0.364) {
                                alloc = AllocationType::LegacyNotSponsored;
                                legacy_unsigned = true;
                            }
                        }
                    }
                    // NIR-mediated delegation for a share of APNIC/LACNIC
                    // space.
                    let registry = self.pick_registry(rir);
                    let name_idx = if !hq_used {
                        hq_used = true;
                        0
                    } else {
                        self.rng.random_range(0..org.names.len())
                    };
                    let date = self.date();
                    self.allocs.push(DirectAlloc {
                        org: org_id,
                        name_idx,
                        registry,
                        prefix: prefix.into(),
                        alloc,
                        legacy_unsigned,
                        date,
                        sub_cursor: prefix.first_addr() as u128,
                    });
                }
                for _ in 0..v6_blocks {
                    let prefix = self.alloc_v6(rir, 29, 32);
                    let alloc = self.do_type(rir, true, org.kind);
                    let registry = self.pick_registry(rir);
                    let name_idx = self.rng.random_range(0..org.names.len());
                    let date = self.date();
                    self.allocs.push(DirectAlloc {
                        org: org_id,
                        name_idx,
                        registry,
                        prefix: prefix.into(),
                        alloc,
                        legacy_unsigned: false,
                        date,
                        sub_cursor: prefix.first_addr(),
                    });
                }
            }
        }
    }

    /// Applies `config.transfers` ownership transfers: a directly allocated
    /// block of a non-delegating org moves to another non-delegating org
    /// (transfer markets move end-user space; provider blocks with customer
    /// trees below them transfer through M&A, which is out of scope here).
    /// Uses a dedicated RNG stream so that worlds differing only in the
    /// transfer count share every other generation decision.
    fn apply_transfers(&mut self) {
        if self.config.transfers == 0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x7247_4E53_4645_5221);
        let is_end_user = |kind: OrgKind| {
            matches!(
                kind,
                OrgKind::Enterprise | OrgKind::SmallOrg | OrgKind::Edu | OrgKind::NoAsn
            )
        };
        let candidates: Vec<usize> = (0..self.allocs.len())
            .filter(|&i| is_end_user(self.orgs[self.allocs[i].org].kind))
            .collect();
        if candidates.is_empty() {
            return;
        }
        let mut moved = std::collections::HashSet::new();
        for _ in 0..self.config.transfers {
            let idx = candidates[rng.random_range(0..candidates.len())];
            if !moved.insert(idx) {
                continue; // a block transfers at most once per snapshot
            }
            let from = self.allocs[idx].org;
            // Recipients are same-archetype organizations: transfer markets
            // move end-user blocks between comparable holders, and keeping
            // the archetype fixed keeps every other generation decision
            // identical between the two snapshots.
            let kind = self.orgs[from].kind;
            let recipients: Vec<usize> = self
                .orgs
                .iter()
                .filter(|o| o.kind == kind && o.id != from)
                .map(|o| o.id)
                .collect();
            if recipients.is_empty() {
                continue;
            }
            let to = recipients[rng.random_range(0..recipients.len())];
            self.allocs[idx].org = to;
            self.allocs[idx].name_idx = 0;
            self.allocs[idx].date = self.config.snapshot_date;
        }
    }

    fn pick_registry(&mut self, rir: Rir) -> Registry {
        match rir {
            Rir::Apnic if self.rng.random_bool(0.3) => {
                const APNIC_NIRS: [Nir; 7] = [
                    Nir::Jpnic,
                    Nir::Twnic,
                    Nir::Krnic,
                    Nir::Cnnic,
                    Nir::Irinn,
                    Nir::Idnic,
                    Nir::Vnnic,
                ];
                Registry::Nir(APNIC_NIRS[self.rng.random_range(0..APNIC_NIRS.len())])
            }
            Rir::Lacnic if self.rng.random_bool(0.25) => {
                if self.rng.random_bool(0.7) {
                    Registry::Nir(Nir::NicBr)
                } else {
                    Registry::Nir(Nir::NicMx)
                }
            }
            r => Registry::Rir(r),
        }
    }

    /// Carves the next sub-block of length `len` out of a direct
    /// allocation's block (either family).
    fn carve_sub(&mut self, alloc_idx: usize, len: u8) -> Option<Prefix> {
        let alloc = &mut self.allocs[alloc_idx];
        match alloc.prefix {
            Prefix::V4(block) => {
                let size = 1u128 << (32 - len as u32);
                let aligned = alloc.sub_cursor.div_ceil(size) * size;
                if aligned + size - 1 > block.last_addr() as u128 {
                    return None;
                }
                alloc.sub_cursor = aligned + size;
                Some(Prefix4::new_truncated(aligned as u32, len).into())
            }
            Prefix::V6(block) => {
                let size = 1u128 << (128 - len as u32);
                let aligned = alloc.sub_cursor.div_ceil(size) * size;
                if aligned == 0 || aligned + size - 1 > block.last_addr() {
                    return None;
                }
                alloc.sub_cursor = aligned + size;
                Some(Prefix6::new_truncated(aligned, len).into())
            }
        }
    }

    /// Delegated-customer allocation type(s) for a registry.
    fn dc_types(&mut self, rir: Rir, chain: bool) -> Vec<AllocationType> {
        use AllocationType::*;
        match rir {
            Rir::Arin => {
                if chain {
                    vec![Reallocation, Reassignment]
                } else if self.rng.random_bool(0.5) {
                    vec![Reallocation]
                } else {
                    vec![Reassignment]
                }
            }
            Rir::Lacnic => {
                if chain {
                    vec![LacnicReallocated, LacnicReassigned]
                } else {
                    vec![LacnicReassigned]
                }
            }
            Rir::Apnic => {
                if chain {
                    vec![AllocatedNonPortable, AssignedNonPortable]
                } else {
                    vec![AssignedNonPortable]
                }
            }
            Rir::Ripe | Rir::Afrinic => {
                if chain {
                    vec![SubAllocatedPa, AssignedPa]
                } else {
                    vec![AssignedPa]
                }
            }
        }
    }

    fn make_sub_delegations(&mut self) {
        // Customer pool: enterprises, small orgs, no-ASN orgs.
        let customers: Vec<usize> = self
            .orgs
            .iter()
            .filter(|o| {
                matches!(
                    o.kind,
                    OrgKind::Enterprise | OrgKind::SmallOrg | OrgKind::NoAsn
                )
            })
            .map(|o| o.id)
            .collect();
        if customers.is_empty() {
            return;
        }
        let delegators: Vec<usize> = (0..self.allocs.len())
            .filter(|&i| {
                let a = &self.allocs[i];
                a.alloc.rights().sub_delegation
                    && matches!(
                        self.orgs[a.org].kind,
                        OrgKind::Carrier | OrgKind::Isp | OrgKind::Leasing
                    )
            })
            .collect();
        for alloc_idx in delegators {
            let parent_org = self.allocs[alloc_idx].org;
            let rir = self.allocs[alloc_idx].registry.policy_rir();
            let n_customers = match self.orgs[parent_org].kind {
                OrgKind::Carrier => self.rng.random_range(3..=8),
                OrgKind::Isp => self.rng.random_range(1..=4),
                OrgKind::Leasing => self.rng.random_range(5..=12),
                _ => 0,
            };
            let is_v6 = self.allocs[alloc_idx].prefix.as_v6().is_some();
            // Lessees lease addresses in order to announce them: leasing
            // entities' customers are drawn from the AS-holding pool.
            let is_leasing = self.orgs[parent_org].kind == OrgKind::Leasing;
            let asn_customers: Vec<usize> = customers
                .iter()
                .copied()
                .filter(|&c| !self.orgs[c].asns.is_empty())
                .collect();
            let pool: &[usize] = if is_leasing && !asn_customers.is_empty() {
                &asn_customers
            } else {
                &customers
            };
            for _ in 0..n_customers {
                let len = if is_v6 {
                    48
                } else {
                    self.rng.random_range(22..=24)
                };
                let Some(sub) = self.carve_sub(alloc_idx, len) else {
                    break;
                };
                let chain = self.rng.random_bool(0.25);
                let types = self.dc_types(rir, chain);
                let mut steps = Vec::with_capacity(types.len());
                for t in types {
                    let customer = pool[self.rng.random_range(0..pool.len())];
                    steps.push((customer, t));
                }
                let date = self.date();
                self.subs.push(SubDelegation {
                    parent: alloc_idx,
                    prefix: sub,
                    steps,
                    date,
                });
            }
        }
    }

    fn make_routes(&mut self) {
        // Provider ASNs available for orgs without their own.
        let provider_asns: Vec<(usize, u32)> = self
            .orgs
            .iter()
            .filter(|o| matches!(o.kind, OrgKind::Carrier | OrgKind::Isp))
            .flat_map(|o| o.asns.iter().map(move |&a| (o.id, a)))
            .collect();

        // Direct allocations: route the block (or more specifics of it).
        for idx in 0..self.allocs.len() {
            let alloc = self.allocs[idx].clone();
            let org = self.orgs[alloc.org].clone();
            let origin = if org.asns.is_empty() {
                provider_asns[self.rng.random_range(0..provider_asns.len())].1
            } else {
                org.asns[self.rng.random_range(0..org.asns.len())]
            };
            match alloc.prefix {
                Prefix::V4(block) => {
                    // Route the aggregate...
                    self.push_route(block.into(), origin, alloc.org);
                    // ...and a few more specifics for larger blocks.
                    // Educational institutions mostly announce a single
                    // aggregate (the paper's Internet2 cohort: 64% hold one
                    // prefix).
                    let edu_single = org.kind == OrgKind::Edu && self.rng.random_bool(0.72);
                    if block.len() <= 20 && !edu_single {
                        let extra = if org.kind == OrgKind::Edu {
                            1
                        } else {
                            self.rng.random_range(1..=3)
                        };
                        for _ in 0..extra {
                            let len = (block.len() + self.rng.random_range(2..=6u8)).min(24);
                            let offset = self.rng.random_range(0..(1u32 << (len - block.len())));
                            let bits = block.bits() | (offset << (32 - len as u32));
                            let spec = Prefix4::new_truncated(bits, len);
                            self.push_route(spec.into(), origin, alloc.org);
                        }
                    }
                }
                Prefix::V6(block) => {
                    self.push_route(block.into(), origin, alloc.org);
                    if self.rng.random_bool(0.5) {
                        let len = block.len() + 16;
                        let offset = self.rng.random_range(0..4u32) as u128;
                        let bits = block.bits() | (offset << (128 - len as u32));
                        let spec = Prefix6::new_truncated(bits, len);
                        self.push_route(spec.into(), origin, alloc.org);
                    }
                }
            }
        }

        // Sub-delegations: routed by the customer's ASN when it has one,
        // else by the delegating parent's ASN (the paper's "Direct Owner as
        // upstream" norm). The Direct Owner of these routes is the *parent*.
        for idx in 0..self.subs.len() {
            let sub = self.subs[idx].clone();
            let parent_org = self.allocs[sub.parent].org;
            let last_customer = sub.steps.last().expect("non-empty steps").0;
            let customer = self.orgs[last_customer].clone();
            // Most sub-delegated space keeps the Direct Owner as upstream
            // and is originated by the provider's AS (§2.2); a minority of
            // customers originate via their own AS. Leased space is the
            // exception: lessees buy addresses precisely because they route
            // them from their own ASes (§8.1's Cloud Innovation pattern).
            let own_as_p = if self.orgs[parent_org].kind == OrgKind::Leasing {
                0.9
            } else {
                0.35
            };
            let origin = if !customer.asns.is_empty() && self.rng.random_bool(own_as_p) {
                customer.asns[self.rng.random_range(0..customer.asns.len())]
            } else {
                let parent = &self.orgs[parent_org];
                parent.asns[self.rng.random_range(0..parent.asns.len())]
            };
            self.push_route(sub.prefix, origin, parent_org);
        }
    }

    fn push_route(&mut self, prefix: Prefix, origin: u32, true_owner: usize) {
        // Occasional MOAS.
        let mut origins = vec![origin];
        if self.rng.random_bool(0.02) {
            origins.push(origin + 1);
        }
        self.routes.push(Route {
            prefix,
            origins,
            true_owner,
        });
    }

    fn make_mrt(&mut self) -> Vec<u8> {
        let peers = vec![
            PeerEntry {
                bgp_id: 0x0A000001,
                asn: 3356,
            },
            PeerEntry {
                bgp_id: 0x0A000002,
                asn: 174,
            },
            PeerEntry {
                bgp_id: 0x0A000003,
                asn: 2914,
            },
        ];
        let mut writer = MrtWriter::new(1_725_148_800, 7, &peers);
        // Stable output order regardless of generation order.
        let mut routes = self.routes.clone();
        routes.sort_by_key(|r| r.prefix);
        routes.dedup_by_key(|r| r.prefix);
        self.routes = routes.clone();
        for route in &routes {
            let mut entries = Vec::new();
            for (i, &origin) in route.origins.iter().enumerate() {
                let peer = (i % peers.len()) as u16;
                let transit = peers[peer as usize].asn;
                entries.push(RibEntry {
                    peer_index: peer,
                    originated_time: 1_725_000_000,
                    attrs: PathAttributes::ebgp(
                        AsPath::sequence(vec![transit, 6453, origin]),
                        0x0A000001,
                    ),
                });
            }
            writer.push(route.prefix, &entries);
        }
        writer.finish()
    }

    fn make_rpki(&mut self) -> (RpkiRepository, HashMap<(usize, Registry), CertId>) {
        // Stage-local RNG: the number of draws here varies with the account
        // structure (which ownership transfers change), so isolating the
        // stream keeps later stages identical across snapshots.
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5250_4B49_5250_4B49);
        let mut repo = RpkiRepository::new();
        // Trust anchors with each RIR's full pools.
        let mut tas: HashMap<Rir, CertId> = HashMap::new();
        for &rir in &Rir::ALL {
            let mut resources = IpResourceSet::new();
            for &p8 in v4_pools(rir) {
                resources.add_prefix(&Prefix4::new_truncated((p8 as u32) << 24, 8).into());
            }
            resources.add_prefix(&v6_pool(rir).into());
            tas.insert(
                rir,
                repo.issue_trust_anchor(rir.name(), resources, VALID_FROM, VALID_TO),
            );
        }
        // NIR certificates: resources = union of the allocations they
        // mediated.
        let mut nir_resources: HashMap<Nir, IpResourceSet> = HashMap::new();
        for alloc in &self.allocs {
            if let Registry::Nir(nir) = alloc.registry {
                nir_resources
                    .entry(nir)
                    .or_default()
                    .add_prefix(&alloc.prefix);
            }
        }
        let mut nir_certs: HashMap<Nir, CertId> = HashMap::new();
        let mut nirs: Vec<Nir> = nir_resources.keys().copied().collect();
        nirs.sort();
        for nir in nirs {
            let ta = tas[&nir.parent()];
            let id = repo
                .issue_cert(
                    ta,
                    nir.name(),
                    nir_resources[&nir].clone(),
                    VALID_FROM,
                    VALID_TO,
                )
                .expect("NIR resources within TA");
            nir_certs.insert(nir, id);
        }
        // Per-(org, registry) member account certificates — an org holding
        // space both directly from a RIR and via one of its NIRs has a
        // separate resource account (and key) in each system. RIPE
        // unsponsored legacy goes into the shared certificate instead; ARIN
        // unsigned legacy gets no certificate at all.
        let mut account_resources: HashMap<(usize, Registry), IpResourceSet> = HashMap::new();
        let mut ripe_legacy_shared = IpResourceSet::new();
        for alloc in &self.allocs {
            if alloc.legacy_unsigned {
                if alloc.registry.policy_rir() == Rir::Ripe {
                    ripe_legacy_shared.add_prefix(&alloc.prefix);
                }
                continue;
            }
            account_resources
                .entry((alloc.org, alloc.registry))
                .or_default()
                .add_prefix(&alloc.prefix);
        }
        // RIPE sponsoring LIRs (§5.3.2): non-member holders of independent
        // assignments obtain RIPE services through a sponsoring LIR, and
        // resources of *different* organizations sponsored by the same LIR
        // often share one Resource Certificate. Group ~30% of small RIPE
        // direct assignments under shared sponsoring certificates. (The
        // paper's argument — distinct orgs rarely share a base name — keeps
        // this from causing erroneous merges; `sponsoring_certs_do_not_merge_
        // unrelated_orgs` in the e2e tests asserts it.)
        let mut sponsored: Vec<(usize, Registry)> = Vec::new();
        {
            let mut keys: Vec<(usize, Registry)> = account_resources.keys().copied().collect();
            keys.sort();
            for key in keys {
                let (org, registry) = key;
                if registry == Registry::Rir(Rir::Ripe)
                    && matches!(
                        self.orgs[org].kind,
                        OrgKind::SmallOrg | OrgKind::Enterprise | OrgKind::NoAsn
                    )
                    && rng.random_bool(0.3)
                {
                    sponsored.push(key);
                }
            }
        }
        let mut accounts: HashMap<(usize, Registry), CertId> = HashMap::new();
        for (group_idx, group) in sponsored.chunks(3).enumerate() {
            let mut resources = IpResourceSet::new();
            for key in group {
                resources = resources.union(&account_resources[key]);
            }
            let id = repo
                .issue_cert(
                    tas[&Rir::Ripe],
                    &format!("sponsoring-lir-{group_idx}"),
                    resources,
                    VALID_FROM,
                    VALID_TO,
                )
                .expect("sponsored resources within RIPE TA");
            for key in group {
                accounts.insert(*key, id);
            }
        }
        let mut keys: Vec<(usize, Registry)> = account_resources.keys().copied().collect();
        keys.sort();
        for key in keys {
            if accounts.contains_key(&key) {
                continue; // handled by a sponsoring LIR certificate
            }
            let resources = account_resources[&key].clone();
            let (org, registry) = key;
            let rir = registry.policy_rir();
            let subject = format!("{}-account-{registry}", self.orgs[org].base);
            let parent = match registry {
                // NIRs that delegate certification issue a child cert; the
                // sign-on-behalf NIRs (IRINN, VNNIC) keep resources under
                // their own certificate — so the account cert *is* the NIR
                // cert for those.
                Registry::Nir(nir) if nir.runs_own_resource_system() => {
                    if nir.delegates_certification() {
                        nir_certs[&nir]
                    } else {
                        accounts.insert(key, nir_certs[&nir]);
                        continue;
                    }
                }
                _ => tas[&rir],
            };
            let id = repo
                .issue_cert(parent, &subject, resources, VALID_FROM, VALID_TO)
                .expect("account within parent");
            accounts.insert(key, id);
        }
        if !ripe_legacy_shared.is_empty() {
            repo.issue_cert(
                tas[&Rir::Ripe],
                "ripe-legacy-shared",
                ripe_legacy_shared,
                VALID_FROM,
                VALID_TO,
            )
            .expect("legacy within RIPE TA");
        }

        // ROAs: adopters cover their own routed prefixes; customers' routed
        // sub-delegations are mostly left uncovered (§8.2), except leasing
        // entities which ROA their leased space for the lessee origins.
        // Build a quick lookup: routed prefix -> (origins, true owner).
        let mut sub_owner: HashMap<Prefix, usize> = HashMap::new();
        for sub in &self.subs {
            sub_owner.insert(sub.prefix, self.allocs[sub.parent].org);
        }
        for route in &self.routes.clone() {
            let owner = route.true_owner;
            let org = &self.orgs[owner];
            if !org.rpki_adopter {
                continue;
            }
            // Find the covering account cert.
            let Some((&key, _)) = accounts.iter().find(|(&(o, _), &cert)| {
                o == owner
                    && repo
                        .cert(&cert)
                        .map(|c| c.resources.contains_prefix(&route.prefix))
                        .unwrap_or(false)
            }) else {
                continue; // unsigned legacy space etc.
            };
            let is_customer_prefix = sub_owner.contains_key(&route.prefix);
            let is_leasing = org.kind == OrgKind::Leasing;
            // Own prefixes: always ROA'd by adopters. Customer prefixes:
            // only leasing entities (and a 15% minority of other DOs) cover
            // them.
            if is_customer_prefix && !is_leasing && !rng.random_bool(0.15) {
                continue;
            }
            let cert = accounts[&key];
            for &origin in &route.origins {
                repo.issue_roa(
                    cert,
                    origin,
                    vec![RoaPrefix::exact(route.prefix)],
                    VALID_FROM,
                    VALID_TO,
                )
                .expect("ROA within account");
            }
        }
        (repo, accounts)
    }

    fn make_as2org(&mut self) -> p2o_as2org::As2OrgDb {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x4153_324F_5247_2121);
        let mut db = p2o_as2org::As2OrgDb::new();
        for org in &self.orgs {
            for (i, &asn) in org.asns.iter().enumerate() {
                // Carriers register regional ASNs under per-region org ids —
                // the fragmentation sibling datasets repair.
                let org_id = if org.kind == OrgKind::Carrier {
                    format!("ORG-{}-{}", org.base.to_uppercase(), i)
                } else {
                    format!("ORG-{}", org.base.to_uppercase())
                };
                let name_idx = i.min(org.names.len() - 1);
                db.add_record(p2o_as2org::AsOrgRecord {
                    asn,
                    org_id,
                    org_name: org.names[name_idx].name.clone(),
                    country: "ZZ".into(),
                });
            }
            // Sibling edges (as2org+/IIL style) repair most of the carrier
            // fragmentation.
            if org.kind == OrgKind::Carrier {
                for w in org.asns.windows(2) {
                    if rng.random_bool(0.9) {
                        db.add_sibling_edge(w[0], w[1]);
                    }
                }
            }
        }
        db
    }

    fn make_whois_dumps(&mut self) -> Vec<WhoisDump> {
        use std::fmt::Write;
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5748_4F49_5357_4F21);
        let mut texts: HashMap<Registry, String> = HashMap::new();
        let mut ripe_orgs: HashMap<usize, String> = HashMap::new(); // org -> handle

        // Decide stale-duplicate injection and per-record name noise
        // deterministically before formatting (borrow discipline).
        let stale: Vec<bool> = (0..self.allocs.len())
            .map(|_| rng.random_bool(0.05))
            .collect();
        // WHOIS records carry the organization name with registry-operator
        // noise: casing, stray whitespace, parenthetical department tags,
        // embedded street addresses. Each decoration survives the paper's
        // cleaning steps (basic/regex), which is exactly what the Table 2
        // funnel measures.
        let decorations: Vec<u8> = (0..self.allocs.len())
            .map(|_| rng.random_range(0..100u8))
            .collect();
        fn decorate(name: &str, roll: u8) -> String {
            match roll {
                0..=7 => name.to_uppercase(),
                8..=12 => name.replace(' ', "  "),
                13..=18 => format!("{name} (NOC)"),
                19..=23 => format!("{name} - 1600 Network Street"),
                _ => name.to_string(),
            }
        }

        let fmt_date = |d: u32| format!("{:04}-{:02}-{:02}", d / 10000, (d / 100) % 100, d % 100);

        for (idx, alloc) in self.allocs.iter().enumerate() {
            let text = texts.entry(alloc.registry).or_default();
            let name = decorate(
                &self.orgs[alloc.org].names[alloc.name_idx].name,
                decorations[idx],
            );
            let rir = alloc.registry.policy_rir();
            match alloc.registry {
                Registry::Rir(Rir::Arin) => {
                    if stale[idx] {
                        // An older superseded record under an obsolete name.
                        write_arin_block(
                            text,
                            &alloc.prefix,
                            &format!("{} (Obsolete)", name),
                            alloc.alloc.keyword(),
                            "2009-01-15",
                        );
                    }
                    write_arin_block(
                        text,
                        &alloc.prefix,
                        &name,
                        alloc.alloc.keyword(),
                        &fmt_date(alloc.date),
                    );
                }
                Registry::Rir(Rir::Lacnic)
                | Registry::Nir(Nir::NicBr)
                | Registry::Nir(Nir::NicMx) => {
                    write_lacnic_block(
                        text,
                        &alloc.prefix,
                        &name,
                        alloc.alloc.keyword(),
                        alloc.date,
                    );
                }
                Registry::Rir(Rir::Ripe) => {
                    let handle = ripe_orgs
                        .entry(alloc.org)
                        .or_insert_with(|| format!("ORG-S{}-RIPE", alloc.org))
                        .clone();
                    write_rpsl_block(
                        text,
                        &alloc.prefix,
                        RpslOrgField::Handle(&handle),
                        Some(alloc.alloc.keyword()),
                        &fmt_date(alloc.date),
                        "RIPE",
                    );
                }
                reg => {
                    // APNIC/AFRINIC + RPSL NIRs: name in descr. JPNIC omits
                    // the status field entirely (back-filled by queries).
                    let status = if reg == Registry::Nir(Nir::Jpnic) {
                        None
                    } else {
                        Some(alloc.alloc.keyword())
                    };
                    let _ = rir;
                    write_rpsl_block(
                        text,
                        &alloc.prefix,
                        RpslOrgField::Descr(&name),
                        status,
                        &fmt_date(alloc.date),
                        &reg.to_string(),
                    );
                }
            }
        }

        // Sub-delegation records live in the parent's registry.
        for sub in &self.subs {
            let parent = &self.allocs[sub.parent];
            let registry = parent.registry;
            let rir = registry.policy_rir();
            let text = texts.entry(registry).or_default();
            for (i, (customer, alloc_type)) in sub.steps.iter().enumerate() {
                let name = self.orgs[*customer].names[0].name.clone();
                let date = sub.date + i as u32; // keep chain order stable
                match registry {
                    Registry::Rir(Rir::Arin) => write_arin_block(
                        text,
                        &sub.prefix,
                        &name,
                        alloc_type.keyword(),
                        &fmt_date(date),
                    ),
                    Registry::Rir(Rir::Lacnic)
                    | Registry::Nir(Nir::NicBr)
                    | Registry::Nir(Nir::NicMx) => {
                        write_lacnic_block(text, &sub.prefix, &name, alloc_type.keyword(), date)
                    }
                    Registry::Rir(Rir::Ripe) => write_rpsl_block(
                        text,
                        &sub.prefix,
                        RpslOrgField::Descr(&name),
                        Some(alloc_type.keyword()),
                        &fmt_date(date),
                        "RIPE",
                    ),
                    reg => {
                        let status = if reg == Registry::Nir(Nir::Jpnic) {
                            None
                        } else {
                            Some(alloc_type.keyword())
                        };
                        write_rpsl_block(
                            text,
                            &sub.prefix,
                            RpslOrgField::Descr(&name),
                            status,
                            &fmt_date(date),
                            &reg.to_string(),
                        );
                    }
                }
                let _ = rir;
            }
        }

        // RIPE organisation objects for handle resolution (sorted for
        // deterministic dump text).
        if let Some(text) = texts.get_mut(&Registry::Rir(Rir::Ripe)) {
            let mut handles: Vec<(usize, String)> =
                ripe_orgs.iter().map(|(o, h)| (*o, h.clone())).collect();
            handles.sort();
            for (org, handle) in &handles {
                // The org-name is the variant most used in RIPE; the HQ name
                // keeps validation names stable.
                let name = &self.orgs[*org].names[0].name;
                let _ = write!(
                    text,
                    "organisation:   {handle}\norg-name:       {name}\nsource:         RIPE\n\n"
                );
            }
        }

        let mut dumps: Vec<WhoisDump> = texts
            .into_iter()
            .filter(|(_, t)| !t.is_empty())
            .map(|(registry, text)| WhoisDump { registry, text })
            .collect();
        dumps.sort_by_key(|d| d.registry);
        dumps
    }

    fn jpnic_query_map(&self) -> HashMap<Prefix, AllocationType> {
        let mut map = HashMap::new();
        for alloc in &self.allocs {
            if alloc.registry == Registry::Nir(Nir::Jpnic) {
                map.insert(alloc.prefix, alloc.alloc);
            }
        }
        for sub in &self.subs {
            if self.allocs[sub.parent].registry == Registry::Nir(Nir::Jpnic) {
                // The chain's first (shallowest) type answers the query.
                map.insert(sub.prefix, sub.steps[0].1);
            }
        }
        map
    }

    fn make_truth(&mut self) -> GroundTruth {
        let mut truth = GroundTruth::default();
        for route in &self.routes {
            truth
                .org_routed_prefixes
                .entry(route.true_owner)
                .or_default()
                .push(route.prefix);
        }
        for v in truth.org_routed_prefixes.values_mut() {
            v.sort();
            v.dedup();
        }
        truth.rpki_adopters = self
            .orgs
            .iter()
            .filter(|o| o.rpki_adopter)
            .map(|o| o.id)
            .collect();

        // Published lists.
        let clouds: Vec<usize> = self
            .orgs
            .iter()
            .filter(|o| o.kind == OrgKind::Cloud)
            .map(|o| o.id)
            .collect();
        for (i, &org) in clouds.iter().enumerate() {
            let all = truth.prefixes_of(org).to_vec();
            // Public lists omit internal ranges: sample 70-85%.
            let keep_p = 0.70 + 0.15 * self.rng.random_range(0..100) as f64 / 100.0;
            let mut prefixes: Vec<Prefix> = all
                .iter()
                .filter(|_| self.rng.random_bool(keep_p))
                .copied()
                .collect();
            if prefixes.is_empty() {
                prefixes = all.clone();
            }
            // The first cloud's list also includes one partner prefix it
            // does not hold (the Amazon-China phenomenon -> a small false
            // negative source, as in the paper's Table 5).
            if i == 0 {
                if let Some(partner) = clouds.get(1) {
                    prefixes.extend(truth.prefixes_of(*partner).iter().take(1).copied());
                }
            }
            truth.published_lists.push(PublishedList {
                org,
                org_name: self.orgs[org].hq_name().to_string(),
                prefixes,
                exhaustive: false,
            });
        }
        // Exhaustive private lists (Cloudflare/IIJ analogues): the first
        // carrier and the first ISP.
        for kind in [OrgKind::Carrier, OrgKind::Isp] {
            if let Some(org) = self.orgs.iter().find(|o| o.kind == kind).map(|o| o.id) {
                truth.published_lists.push(PublishedList {
                    org,
                    org_name: self.orgs[org].hq_name().to_string(),
                    prefixes: truth.prefixes_of(org).to_vec(),
                    exhaustive: true,
                });
            }
        }
        // Edu institutions: the RPKI-Ready-report analogue — exhaustive
        // per-institution lists (the report enumerates their prefixes).
        for org in self
            .orgs
            .iter()
            .filter(|o| o.kind == OrgKind::Edu)
            .map(|o| o.id)
            .collect::<Vec<_>>()
        {
            truth.published_lists.push(PublishedList {
                org,
                org_name: self.orgs[org].hq_name().to_string(),
                prefixes: truth.prefixes_of(org).to_vec(),
                exhaustive: true,
            });
        }
        truth
    }
}

enum RpslOrgField<'a> {
    Handle(&'a str),
    Descr(&'a str),
}

fn write_rpsl_block(
    out: &mut String,
    prefix: &Prefix,
    org: RpslOrgField<'_>,
    status: Option<&str>,
    date: &str,
    source: &str,
) {
    use std::fmt::Write;
    match prefix {
        Prefix::V4(p) => {
            let range = p2o_net::Range4::from_prefix(p);
            let _ = writeln!(out, "inetnum:        {range}");
        }
        Prefix::V6(p) => {
            let _ = writeln!(out, "inet6num:       {p}");
        }
    }
    match org {
        RpslOrgField::Handle(h) => {
            let _ = writeln!(out, "org:            {h}");
        }
        RpslOrgField::Descr(d) => {
            let _ = writeln!(out, "descr:          {d}");
        }
    }
    if let Some(status) = status {
        let _ = writeln!(out, "status:         {}", status.to_uppercase());
    }
    let _ = writeln!(out, "last-modified:  {date}T00:00:00Z");
    let _ = writeln!(out, "source:         {source}");
    out.push('\n');
}

fn write_arin_block(out: &mut String, prefix: &Prefix, org: &str, net_type: &str, date: &str) {
    use std::fmt::Write;
    match prefix {
        Prefix::V4(p) => {
            let range = p2o_net::Range4::from_prefix(p);
            let _ = writeln!(out, "NetRange:       {range}");
            let _ = writeln!(out, "CIDR:           {p}");
        }
        Prefix::V6(p) => {
            let range = p2o_net::Range6::from_prefix(p);
            let _ = writeln!(out, "NetRange:       {range}");
            let _ = writeln!(out, "CIDR:           {p}");
        }
    }
    let _ = writeln!(out, "NetType:        {net_type}");
    let _ = writeln!(out, "OrgName:        {org}");
    let _ = writeln!(out, "Updated:        {date}");
    out.push('\n');
}

fn write_lacnic_block(out: &mut String, prefix: &Prefix, org: &str, status: &str, date: u32) {
    use std::fmt::Write;
    let _ = writeln!(out, "inetnum:     {prefix}");
    let _ = writeln!(out, "status:      {status}");
    let _ = writeln!(out, "owner:       {org}");
    let _ = writeln!(out, "changed:     {date}");
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(WorldConfig::tiny(42));
        let b = World::generate(WorldConfig::tiny(42));
        assert_eq!(a.orgs.len(), b.orgs.len());
        assert_eq!(a.mrt, b.mrt);
        let mut ta: Vec<_> = a
            .whois_dumps
            .iter()
            .map(|d| (&d.registry, &d.text))
            .collect();
        let mut tb: Vec<_> = b
            .whois_dumps
            .iter()
            .map(|d| (&d.registry, &d.text))
            .collect();
        ta.sort_by_key(|(r, _)| format!("{r}"));
        tb.sort_by_key(|(r, _)| format!("{r}"));
        assert_eq!(ta, tb);
        assert_eq!(a.truth.total_prefixes(), b.truth.total_prefixes());
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(WorldConfig::tiny(1));
        let b = World::generate(WorldConfig::tiny(2));
        assert_ne!(a.mrt, b.mrt);
    }

    #[test]
    fn world_has_expected_shape() {
        let w = World::generate(WorldConfig::tiny(7));
        assert_eq!(w.orgs.len(), WorldConfig::tiny(7).total_orgs());
        assert!(w.orgs_of_kind(OrgKind::NoAsn).all(|o| o.asns.is_empty()));
        assert!(w.orgs_of_kind(OrgKind::Carrier).all(|o| o.asns.len() >= 3));
        assert!(w
            .orgs_of_kind(OrgKind::Carrier)
            .all(|o| o.regions.len() >= 2));
        assert!(w.rpki.cert_count() > Rir::ALL.len());
        assert!(!w.whois_dumps.is_empty());
        assert!(w.truth.total_prefixes() > 0);
        // Edu orgs never adopt (the RPKI-Ready cohort).
        assert!(w.orgs_of_kind(OrgKind::Edu).all(|o| !o.rpki_adopter));
    }

    #[test]
    fn build_inputs_round_trips_through_real_parsers() {
        let w = World::generate(WorldConfig::tiny(11));
        let built = w.build_inputs();
        assert!(built.rpki_problems.is_empty(), "{:?}", built.rpki_problems);
        assert!(!built.routes.is_empty());
        assert!(!built.tree.is_empty());
        assert_eq!(built.whois_stats.missing_alloc, 0, "JPNIC backfill failed");
        // Every routed prefix has a covering WHOIS record.
        for (prefix, _) in built.routes.iter() {
            assert!(
                !built.tree.covering_chain(prefix).is_empty(),
                "{prefix} has no WHOIS cover"
            );
        }
    }

    #[test]
    fn published_lists_reference_real_truth() {
        let w = World::generate(WorldConfig::tiny(13));
        assert!(!w.truth.published_lists.is_empty());
        for list in &w.truth.published_lists {
            assert!(!list.org_name.is_empty());
            if list.exhaustive {
                assert_eq!(
                    list.prefixes,
                    w.truth.prefixes_of(list.org).to_vec(),
                    "exhaustive list must equal truth"
                );
            }
        }
        // At least one exhaustive and one public-style list.
        assert!(w.truth.published_lists.iter().any(|l| l.exhaustive));
        assert!(w.truth.published_lists.iter().any(|l| !l.exhaustive));
    }

    #[test]
    fn jpnic_dump_has_no_status_but_query_map_covers_it() {
        let w = World::generate(WorldConfig::default_scale(3));
        let jpnic = w
            .whois_dumps
            .iter()
            .find(|d| d.registry == Registry::Nir(Nir::Jpnic));
        if let Some(dump) = jpnic {
            assert!(
                !dump.text.contains("status:"),
                "JPNIC dump must omit status"
            );
            assert!(!w.jpnic_alloc.is_empty());
        }
    }

    #[test]
    fn delegated_files_round_trip_and_pass_the_footnote_check() {
        let w = World::generate(WorldConfig::tiny(23));
        let files = w.delegated_files();
        assert!(!files.is_empty());
        let mut total = 0usize;
        for (_rir, text) in &files {
            let (records, problems) = p2o_whois::delegated::parse(text);
            assert!(problems.is_empty(), "{problems:?}");
            assert!(!records.is_empty());
            // The paper's §4.1 footnote: no delegation beyond /8 (v4) or /16
            // (v6).
            let oversized = p2o_whois::delegated::oversized_delegations(&records);
            assert!(oversized.is_empty(), "{oversized:?}");
            total += records.len();
        }
        assert_eq!(total, w.allocations.len());
    }

    #[test]
    fn routed_space_is_inside_allocated_space() {
        let w = World::generate(WorldConfig::tiny(17));
        let built = w.build_inputs();
        for (prefix, _) in built.routes.iter() {
            let chain = built.tree.covering_chain(prefix);
            assert!(!chain.is_empty(), "{prefix} uncovered");
        }
    }
}
