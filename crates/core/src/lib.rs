#![warn(missing_docs)]

//! # Prefix2Org — mapping BGP prefixes to organizations
//!
//! A from-scratch reproduction of *Prefix2Org: Mapping BGP Prefixes to
//! Organizations* (IMC 2025). Given WHOIS delegation data, a BGP routing
//! table, RPKI Resource Certificates, and AS-to-organization siblings, the
//! pipeline produces, for every routed prefix:
//!
//! - the **Direct Owner** — the organization holding the direct RIR/NIR
//!   delegation covering the prefix (provider independence, sub-delegation,
//!   RPKI issuance rights);
//! - the chain of **Delegated Customers** — holders of sub-delegations, in
//!   hierarchical order;
//! - a **final cluster** grouping prefixes whose Direct Owners are the same
//!   organization under different WHOIS names, via base-name extraction
//!   cross-checked against shared RPKI certificates (𝓡 groups) and shared
//!   origin-ASN clusters (𝓐 groups).
//!
//! ```
//! use prefix2org::{Pipeline, PipelineInputs};
//! use p2o_whois::{WhoisDb, Registry, Rir};
//! use p2o_bgp::RouteTable;
//! use p2o_as2org::As2OrgDb;
//! use p2o_rpki::RpkiRepository;
//!
//! // WHOIS: one direct allocation.
//! let mut whois = WhoisDb::new();
//! whois.add_arin("NetRange: 63.64.0.0 - 63.127.255.255\n\
//!                 NetType: Allocation\nOrgName: Verizon Business\nUpdated: 2024-05-20\n");
//! let (tree, _) = whois.build();
//!
//! // BGP: one routed prefix out of that block.
//! let mut routes = RouteTable::new();
//! routes.add_route("63.80.52.0/24".parse().unwrap(), 701);
//!
//! let inputs = PipelineInputs {
//!     delegations: &tree,
//!     routes: &routes,
//!     asn_clusters: &As2OrgDb::new().cluster(),
//!     rpki: &RpkiRepository::new().validate(20240901).0,
//! };
//! let dataset = Pipeline::default().run(&inputs);
//! let rec = dataset.record(&"63.80.52.0/24".parse().unwrap()).unwrap();
//! assert_eq!(rec.direct_owner, "Verizon Business");
//! ```
//!
//! The crate is organized along the paper's pipeline (Figure 2):
//! [`resolve`] implements §5.2 (Direct Owner / Delegated Customer lookup in
//! the delegation tree), [`cluster`] implements §5.3 (base names, 𝒲/𝓡/𝓐
//! clusters, membership merge), [`dataset`] holds the resulting records and
//! the Table 4 metrics, [`org`] answers which prefixes an organization
//! holds (§7.1), [`delta`] diffs two snapshots (§10), [`analytics`]
//! computes the figures and case-study views, and [`pipeline`]
//! orchestrates the whole run (optionally in parallel across prefixes).

pub mod analytics;
pub mod cluster;
pub mod dataset;
pub mod delta;
pub mod exceptions;
pub mod explain;
pub mod export;
pub mod frozen;
pub mod leasing;
pub mod org;
pub mod pipeline;
pub mod resolve;

pub use cluster::{ClusterId, Clusterer, ClusteringOutput, MergeEdge};
pub use dataset::{CustomerStep, DatasetMetrics, Prefix2OrgDataset, PrefixRecord};
pub use delta::{diff, DatasetDelta, OwnerChange};
pub use exceptions::{ExceptionAction, ExceptionSet, ExceptionSummary};
pub use explain::{attribution_trace, Step, Trace};
pub use export::{from_jsonl, to_jsonl, write_jsonl, ExportRecord};
pub use frozen::{
    freeze, freeze_verified, ExportBytes, FreezeLanes, FrozenDataset, FROZEN_FILE,
    FROZEN_FORMAT_VERSION, FROZEN_LABEL,
};
pub use leasing::{infer_leasing, LeasingCandidate, LeasingOptions};
pub use org::OrgIndex;
pub use p2o_radix::LPM_LANES;
pub use pipeline::{default_threads, Pipeline, PipelineInputs};
pub use resolve::{DelegationStep, LpmWalk, OwnershipRecord, Resolver};
