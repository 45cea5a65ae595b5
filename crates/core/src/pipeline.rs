//! End-to-end orchestration of the Prefix2Org pipeline (paper Figure 2).

use p2o_as2org::AsnClusters;
use p2o_bgp::RouteTable;
use p2o_net::Prefix;
use p2o_rpki::ValidatedRepo;
use p2o_whois::DelegationTree;

use crate::cluster::{ClusterOptions, Clusterer, MergeEdge};
use crate::dataset::Prefix2OrgDataset;
use crate::resolve::{OwnershipRecord, Resolver};

/// The four data sources of Figure 2, already parsed/validated.
#[derive(Debug, Clone, Copy)]
pub struct PipelineInputs<'a> {
    /// WHOIS delegation trees (§4.2, §5.2).
    pub delegations: &'a DelegationTree,
    /// Routed prefixes with origins (§4.1).
    pub routes: &'a RouteTable,
    /// ASN sibling clusters (§4.4).
    pub asn_clusters: &'a AsnClusters,
    /// The validated RPKI view (§4.3).
    pub rpki: &'a ValidatedRepo,
}

/// The pipeline: resolution (§5.2) then clustering (§5.3).
///
/// Resolution is one pass over the routed prefixes in table order.
/// `threads` drives only the clustering's two fan-outs, owner-name
/// cleaning and the 𝓡/𝓐 group build, which shard through
/// [`p2o_obs::run_shards`] (CPU-bound fan-out — no async runtime
/// involved). The default is [`default_threads`] (all cores);
/// `threads = 1` runs each of them as one inline shard. Output is
/// byte-identical at any thread count.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline {
    /// Clustering options (ablations flip these).
    pub cluster_options: ClusterOptions,
    /// Worker threads for the name-cleaning and group-build passes.
    pub threads: usize,
}

/// The default pipeline worker count: one per available core, falling back
/// to `1` when parallelism cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline {
            cluster_options: ClusterOptions::default(),
            threads: default_threads(),
        }
    }
}

impl Pipeline {
    /// A pipeline with `threads` clustering workers.
    pub fn with_threads(threads: usize) -> Self {
        Pipeline {
            threads: threads.max(1),
            ..Pipeline::default()
        }
    }

    /// Runs the full pipeline and assembles the dataset.
    pub fn run(&self, inputs: &PipelineInputs<'_>) -> Prefix2OrgDataset {
        self.dataset_with_evidence(inputs, None).0
    }

    /// The one pipeline run behind every entry point: resolution,
    /// clustering with merge-evidence recording, assembly and ROV over the
    /// routed prefixes, returning the dataset and the merge edges the
    /// frozen artifact's `cluster.merge` trace steps are built from. With
    /// `obs`, the run records its `pipeline.*`, `cluster.*` and `rov.*`
    /// counters, the `pipeline.resolve` / `pipeline.cluster` /
    /// `pipeline.assemble` stages, and the resolve and group-build spans.
    pub fn dataset_with_evidence(
        &self,
        inputs: &PipelineInputs<'_>,
        obs: Option<&p2o_obs::Obs>,
    ) -> (Prefix2OrgDataset, Vec<MergeEdge>) {
        // One pass over the table collects the prefix list and counts MOAS
        // prefixes together.
        let mut moas = 0usize;
        let mut prefixes: Vec<Prefix> = Vec::with_capacity(inputs.routes.len());
        for (p, origins) in inputs.routes.iter() {
            if origins.len() > 1 {
                moas += 1;
            }
            prefixes.push(*p);
        }
        if let Some(o) = obs {
            o.counter("pipeline.routed_prefixes")
                .add(prefixes.len() as u64);
            o.counter("pipeline.moas_prefixes").add(moas as u64);
        }

        let resolve_timer = obs.map(|o| o.stage("pipeline.resolve"));
        let (ownership, unresolved) = resolve(inputs.delegations, &prefixes, obs);
        if let Some(mut t) = resolve_timer {
            t.items(prefixes.len() as u64);
            t.finish();
        }
        if let Some(o) = obs {
            o.counter("pipeline.resolved").add(ownership.len() as u64);
            o.counter("pipeline.unresolved").add(unresolved as u64);
        }

        let cluster_timer = obs.map(|o| o.stage("pipeline.cluster"));
        let mut clusterer = Clusterer::new(self.cluster_options)
            .with_threads(self.threads)
            .with_merge_evidence();
        if let Some(o) = obs {
            clusterer = clusterer.with_obs(o);
        }
        let mut clustering = clusterer.cluster(
            &ownership,
            inputs.routes,
            inputs.asn_clusters,
            inputs.rpki,
            inputs.delegations.names(),
        );
        if let Some(mut t) = cluster_timer {
            t.items(ownership.len() as u64);
            t.finish();
        }
        if let Some(o) = obs {
            o.counter("cluster.w_clusters")
                .add(clustering.w_clusters as u64);
            o.counter("cluster.r_groups")
                .add(clustering.r_groups as u64);
            o.counter("cluster.a_groups")
                .add(clustering.a_groups as u64);
            o.counter("cluster.merged_w_clusters")
                .add((clustering.w_clusters - clustering.final_clusters) as u64);
            o.counter("cluster.final_clusters")
                .add(clustering.final_clusters as u64);
            o.counter("cluster.rpki_covered_prefixes")
                .add(clustering.rpki_covered_prefixes as u64);
        }
        let merge_edges = std::mem::take(&mut clustering.merge_edges);

        let assemble_timer = obs.map(|o| o.stage("pipeline.assemble"));
        let mut dataset = Prefix2OrgDataset::assemble(
            ownership,
            clustering,
            unresolved,
            inputs.routes.all_origins().len(),
            inputs.delegations.names(),
        );
        dataset.apply_rov(inputs.routes, inputs.rpki);
        if let Some(o) = obs {
            let [valid, invalid, not_found] = dataset.rov_tallies();
            o.counter("rov.valid").add(valid);
            o.counter("rov.invalid").add(invalid);
            o.counter("rov.not_found").add(not_found);
        }
        if let Some(mut t) = assemble_timer {
            t.items(dataset.len() as u64);
            t.finish();
        }
        (dataset, merge_edges)
    }

    /// The resolution stage alone (exposed for benches).
    pub fn resolve_stage(
        &self,
        tree: &DelegationTree,
        prefixes: &[Prefix],
    ) -> (Vec<OwnershipRecord>, usize) {
        resolve(tree, prefixes, None)
    }
}

/// [`Pipeline::resolve_stage`] with optional tracing: one pass over the
/// prefixes in order under one `resolve` span.
fn resolve(
    tree: &DelegationTree,
    prefixes: &[Prefix],
    obs: Option<&p2o_obs::Obs>,
) -> (Vec<OwnershipRecord>, usize) {
    p2o_obs::traced(obs, "resolve", |span| {
        let out = Resolver.resolve_all(tree, prefixes);
        if let Some(s) = span {
            s.arg("prefixes", prefixes.len());
            s.arg("resolved", out.0.len());
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2o_net::Prefix4;
    use p2o_rpki::RpkiRepository;
    use p2o_whois::alloc::AllocationType;
    use p2o_whois::record::{OrgRef, RawWhoisRecord};
    use p2o_whois::{Registry, Rir, WhoisDb};

    fn world(n_blocks: u32) -> (DelegationTree, RouteTable) {
        let mut db = WhoisDb::new();
        let mut routes = RouteTable::new();
        for i in 0..n_blocks {
            let block = Prefix4::new_truncated(0x0A00_0000 | (i << 12), 20);
            db.add_record(RawWhoisRecord {
                net: p2o_net::IpRange::V4(p2o_net::Range4::from_prefix(&block)),
                org: OrgRef::Name(format!("Org {i} Inc")),
                alloc: Some(AllocationType::Allocation),
                source: Registry::Rir(Rir::Arin),
                last_modified: 20240101,
            });
            // Route two /24s out of each block.
            for j in 0..2u32 {
                let routed = Prefix4::new_truncated(block.bits() | (j << 8), 24);
                routes.add_route(routed.into(), 64512 + i);
            }
        }
        (db.build().0, routes)
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let (tree, routes) = world(64);
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        let inputs = PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        };
        let seq = Pipeline::with_threads(1).run(&inputs);
        let par = Pipeline::with_threads(4).run(&inputs);
        assert_eq!(seq.len(), par.len());
        assert_eq!(seq.metrics(), par.metrics());
        for rec in seq.records() {
            let other = par.record(&rec.prefix).unwrap();
            assert_eq!(other, rec);
        }
        // Cluster ids, labels and member-name lists line up exactly — not
        // just per-record fields.
        assert_eq!(seq.cluster_count(), par.cluster_count());
        for id in 0..seq.cluster_count() as u32 {
            let id = crate::cluster::ClusterId(id);
            assert_eq!(seq.cluster_label(id), par.cluster_label(id));
            assert_eq!(seq.cluster_names(id), par.cluster_names(id));
        }
    }

    #[test]
    fn every_routed_prefix_is_mapped() {
        let (tree, routes) = world(16);
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        let ds = Pipeline::default().run(&PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        });
        assert_eq!(ds.len(), routes.len());
        assert_eq!(ds.metrics().unresolved_prefixes, 0);
        assert_eq!(ds.metrics().origin_asns, 16);
        for (prefix, _) in routes.iter() {
            assert!(ds.record(prefix).is_some(), "{prefix} unmapped");
        }
    }

    #[test]
    fn unresolved_prefixes_are_counted_not_dropped_silently() {
        let (tree, mut routes) = world(4);
        routes.add_route("192.0.2.0/24".parse().unwrap(), 65000); // no WHOIS
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        let ds = Pipeline::default().run(&PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        });
        assert_eq!(ds.metrics().unresolved_prefixes, 1);
        assert_eq!(ds.len(), routes.len() - 1);
    }
}
