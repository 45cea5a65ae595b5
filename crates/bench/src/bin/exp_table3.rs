//! Regenerates paper **Table 3**: the Verizon/Fastly clustering excerpt —
//! four Verizon prefixes under different WHOIS names merged into one final
//! cluster via shared RPKI certificate and origin-ASN evidence, while the
//! unrelated "Fastly Network Solution" stays out of Fastly, Inc.'s cluster
//! despite the identical base name.
//!
//! Built as a hand-seeded mini-world with exactly the paper's P1–P7 rows,
//! run through the real clustering engine.

use p2o_as2org::As2OrgDb;
use p2o_bgp::RouteTable;
use p2o_net::Prefix;
use p2o_rpki::{IpResourceSet, RpkiRepository};
use p2o_util::Interner;
use p2o_whois::alloc::AllocationType;
use p2o_whois::{Registry, Rir};
use prefix2org::cluster::{ClusterOptions, Clusterer};
use prefix2org::resolve::OwnershipRecord;

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn rec(names: &mut Interner, prefix: &str, owner: &str) -> OwnershipRecord {
    OwnershipRecord {
        prefix: p(prefix),
        direct_owner: names.intern(owner),
        do_prefix: p(prefix),
        do_alloc: AllocationType::Allocation,
        do_registry: Registry::Rir(Rir::Arin),
        delegated_customers: Vec::new(),
        lpm: Default::default(),
    }
}

fn main() {
    // P1-P7 exactly as in Table 3.
    let mut names = Interner::new();
    let records = vec![
        rec(&mut names, "210.80.198.0/24", "Verizon Japan Ltd"),
        rec(&mut names, "2404:e8:100::/40", "Verizon Asia Pte Ltd"),
        rec(&mut names, "203.193.92.0/24", "Verizon Hong Kong Ltd"),
        rec(&mut names, "65.196.14.0/24", "Verizon Business"),
        rec(&mut names, "2a04:4e40:8440::/48", "Fastly, Inc."),
        rec(&mut names, "172.111.123.0/24", "Fastly, Inc."),
        rec(&mut names, "103.186.154.0/24", "Fastly Network Solution"),
    ];

    let mut routes = RouteTable::new();
    for (prefix, asn) in [
        ("210.80.198.0/24", 18692u32),
        ("2404:e8:100::/40", 701),
        ("203.193.92.0/24", 395753),
        ("65.196.14.0/24", 395753),
        ("2a04:4e40:8440::/48", 54113),
        ("172.111.123.0/24", 54113),
        ("103.186.154.0/24", 63739),
    ] {
        routes.add_route(p(prefix), asn);
    }

    let mut repo = RpkiRepository::new();
    let ta = repo.issue_trust_anchor("IANA", IpResourceSet::everything(), 20200101, 20991231);
    let mut issue = |prefixes: &[&str], subject: &str| {
        let rs: IpResourceSet = prefixes.iter().map(|s| p(s)).collect();
        repo.issue_cert(ta, subject, rs, 20200101, 20991231)
            .expect("within TA")
    };
    issue(
        &["210.80.198.0/24", "2404:e8:100::/40", "203.193.92.0/24"],
        "verizon-apac-account",
    );
    issue(&["65.196.14.0/24"], "verizon-us-account");
    issue(&["2a04:4e40:8440::/48"], "fastly-account-1");
    issue(&["172.111.123.0/24"], "fastly-account-2");
    issue(&["103.186.154.0/24"], "fastly-vn-account");
    let (rpki, problems) = repo.validate(20240901);
    assert!(problems.is_empty());

    let clusters = As2OrgDb::new().cluster();
    let out = Clusterer::new(ClusterOptions {
        // This seven-name corpus is far below the production frequency
        // threshold; 0 reproduces the paper's corpus-scale behaviour where
        // "Business"/"Network"/"Solution" are frequent words.
        frequency_threshold: 0,
        ..ClusterOptions::default()
    })
    .cluster(&records, &routes, &clusters, &rpki, &names);

    println!("Table 3: Aggregation of Verizon and Fastly prefixes\n");
    let rows: Vec<Vec<String>> = records
        .iter()
        .zip(out.info.iter())
        .enumerate()
        .map(|(i, (rec, info))| {
            vec![
                format!("P{}", i + 1),
                rec.prefix.to_string(),
                names.resolve(rec.direct_owner).to_string(),
                info.base_name.clone(),
                info.rpki_cert
                    .map(|c| format!("({},{})", info.base_name, c.short()))
                    .unwrap_or_else(|| "-".into()),
                info.asn_clusters
                    .iter()
                    .map(|c| format!("({},{c})", info.base_name))
                    .collect::<Vec<_>>()
                    .join(" "),
                out.labels[info.cluster.0 as usize].clone(),
            ]
        })
        .collect();
    p2o_bench::print_table(
        &[
            "No.",
            "Prefix",
            "Direct Owner",
            "Base Name",
            "RPKI Cluster",
            "ASN Cluster",
            "Final Cluster",
        ],
        &rows,
    );

    // The paper's claims, asserted:
    let c: Vec<_> = out.info.iter().map(|i| i.cluster).collect();
    assert!(
        c[0] == c[1] && c[1] == c[2] && c[2] == c[3],
        "Verizon must merge"
    );
    assert!(c[4] == c[5], "Fastly Inc prefixes must merge");
    assert!(c[6] != c[4], "Fastly Network Solution must stay separate");
    println!("\nP1-P4 merged; P5/P6 merged; P7 separate — matches the paper.");
}
