//! Precision/recall evaluation against ground-truth IP range lists (§7.1).

use p2o_net::{AddressFamily, AddressSpan, Prefix};
use prefix2org::Prefix2OrgDataset;

/// Validation result for one organization and one address family — one row
/// of Tables 5/6 (and 13/14 with the FP column).
#[derive(Debug, Clone, PartialEq)]
pub struct OrgValidation {
    /// The organization's display name.
    pub org_name: String,
    /// The family evaluated.
    pub family: AddressFamily,
    /// Ground-truth prefixes (routed ones only).
    pub true_prefixes: usize,
    /// Prefixes Prefix2Org attributes to the organization.
    pub predicted_prefixes: usize,
    /// Predicted prefixes equal to or inside a true prefix.
    pub true_positives: usize,
    /// Predicted prefixes outside every true prefix.
    pub false_positives: usize,
    /// True prefixes not attributed at all.
    pub false_negatives: usize,
}

impl OrgValidation {
    /// `TP / (TP + FP)` as a percentage; 100 when nothing was predicted.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            100.0
        } else {
            100.0 * self.true_positives as f64 / denom as f64
        }
    }

    /// `(true - FN) / true` as a percentage; 100 when there is no truth.
    pub fn recall(&self) -> f64 {
        if self.true_prefixes == 0 {
            100.0
        } else {
            100.0 * (self.true_prefixes - self.false_negatives) as f64 / self.true_prefixes as f64
        }
    }
}

/// Scores the prefixes attributed to an organization (`predicted`, from
/// [`prefix2org::OrgIndex::prefixes_of`]) against its list for one family
/// (§7.1): true prefixes not `routed` are dropped ("we exclude any prefixes
/// ... not present in the BGP routing tables"); TP = predicted prefixes
/// equal to or covered by a true prefix, FP = the rest, FN = true prefixes
/// no predicted prefix equals, covers or is covered by.
pub fn score_list(
    org_name: &str,
    family: AddressFamily,
    truth: &[Prefix],
    predicted: &[Prefix],
    routed: impl Fn(&Prefix) -> bool,
) -> OrgValidation {
    let truth: Vec<Prefix> = truth
        .iter()
        .filter(|p| p.family() == family && routed(p))
        .copied()
        .collect();
    let predicted: Vec<Prefix> = predicted
        .iter()
        .filter(|p| p.family() == family)
        .copied()
        .collect();
    let tp = predicted
        .iter()
        .filter(|p| truth.iter().any(|t| t.contains(p)))
        .count();
    let fnn = truth
        .iter()
        .filter(|t| !predicted.iter().any(|p| t.contains(p) || p.contains(t)))
        .count();
    OrgValidation {
        org_name: org_name.to_string(),
        family,
        true_prefixes: truth.len(),
        predicted_prefixes: predicted.len(),
        true_positives: tp,
        false_positives: predicted.len() - tp,
        false_negatives: fnn,
    }
}

/// Evaluates one organization's list for one family against a dataset:
/// [`score_list`] over the dataset's records and
/// [`Prefix2OrgDataset::prefixes_of_org`].
pub fn evaluate_org(
    dataset: &Prefix2OrgDataset,
    org_name: &str,
    truth: &[Prefix],
    family: AddressFamily,
) -> OrgValidation {
    let routed = |p: &Prefix| dataset.record(p).is_some();
    let predicted = dataset.prefixes_of_org(org_name);
    score_list(org_name, family, truth, &predicted, routed)
}

/// A whole validation campaign: per-org rows plus totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationReport {
    /// Per-organization rows.
    pub rows: Vec<OrgValidation>,
}

impl ValidationReport {
    /// Adds a row.
    pub fn push(&mut self, row: OrgValidation) {
        self.rows.push(row);
    }

    /// Total true prefixes.
    pub fn total_true(&self) -> usize {
        self.rows.iter().map(|r| r.true_prefixes).sum()
    }

    /// Total predicted prefixes.
    pub fn total_predicted(&self) -> usize {
        self.rows.iter().map(|r| r.predicted_prefixes).sum()
    }

    /// Total true positives.
    pub fn total_tp(&self) -> usize {
        self.rows.iter().map(|r| r.true_positives).sum()
    }

    /// Total false positives.
    pub fn total_fp(&self) -> usize {
        self.rows.iter().map(|r| r.false_positives).sum()
    }

    /// Total false negatives.
    pub fn total_fn(&self) -> usize {
        self.rows.iter().map(|r| r.false_negatives).sum()
    }

    /// Aggregate precision (over all rows' TP/FP).
    pub fn precision(&self) -> f64 {
        let denom = self.total_tp() + self.total_fp();
        if denom == 0 {
            100.0
        } else {
            100.0 * self.total_tp() as f64 / denom as f64
        }
    }

    /// Aggregate recall.
    pub fn recall(&self) -> f64 {
        let t = self.total_true();
        if t == 0 {
            100.0
        } else {
            100.0 * (t - self.total_fn()) as f64 / t as f64
        }
    }

    /// Median per-row recall (the §7.2 small-org statistic).
    pub fn median_recall(&self) -> f64 {
        if self.rows.is_empty() {
            return 100.0;
        }
        let mut recalls: Vec<f64> = self.rows.iter().map(|r| r.recall()).collect();
        recalls.sort_by(|a, b| a.partial_cmp(b).expect("recall is finite"));
        recalls[recalls.len() / 2]
    }

    /// The share of the dataset's routed IPv4 address space covered by the
    /// campaign's ground truth (the paper validates 9.3% of routed IPv4
    /// space).
    pub fn validated_space_share(&self, dataset: &Prefix2OrgDataset, truths: &[&[Prefix]]) -> f64 {
        let mut total = AddressSpan::new();
        for rec in dataset.records() {
            total.add(&rec.prefix);
        }
        let mut validated = AddressSpan::new();
        for truth in truths {
            for p in *truth {
                if dataset.record(p).is_some() {
                    validated.add(p);
                }
            }
        }
        if total.v4_addresses() == 0 {
            0.0
        } else {
            100.0 * validated.v4_addresses() as f64 / total.v4_addresses() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2o_bgp::RouteTable;
    use p2o_rpki::RpkiRepository;
    use p2o_whois::WhoisDb;
    use prefix2org::{Pipeline, PipelineInputs};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// World: Acme holds 10.0.0.0/8 and 20.0.0.0/16; Other holds
    /// 30.0.0.0/16. Routed: 10.1.0.0/16, 10.2.0.0/16, 20.0.0.0/16,
    /// 30.0.0.0/16.
    fn dataset() -> Prefix2OrgDataset {
        let mut db = WhoisDb::new();
        db.add_arin(
            "\
NetRange: 10.0.0.0 - 10.255.255.255\nNetType: Allocation\nOrgName: Acme Corp\nUpdated: 2024-01-01\n\n\
NetRange: 20.0.0.0 - 20.0.255.255\nNetType: Allocation\nOrgName: Acme Corp\nUpdated: 2024-01-01\n\n\
NetRange: 30.0.0.0 - 30.0.255.255\nNetType: Allocation\nOrgName: Other Org\nUpdated: 2024-01-01\n",
        );
        let (tree, _) = db.build();
        let mut routes = RouteTable::new();
        for (pre, asn) in [
            ("10.1.0.0/16", 1),
            ("10.2.0.0/16", 1),
            ("20.0.0.0/16", 1),
            ("30.0.0.0/16", 2),
        ] {
            routes.add_route(p(pre), asn);
        }
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        Pipeline::default().run(&PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        })
    }

    #[test]
    fn perfect_prediction() {
        let ds = dataset();
        // Exhaustive truth: all three routed Acme prefixes.
        let truth = vec![p("10.1.0.0/16"), p("10.2.0.0/16"), p("20.0.0.0/16")];
        let v = evaluate_org(&ds, "Acme Corp", &truth, AddressFamily::V4);
        assert_eq!(v.true_prefixes, 3);
        assert_eq!(v.true_positives, 3);
        assert_eq!(v.false_positives, 0);
        assert_eq!(v.false_negatives, 0);
        assert_eq!(v.precision(), 100.0);
        assert_eq!(v.recall(), 100.0);
    }

    #[test]
    fn incomplete_public_list_inflates_fp_not_fn() {
        let ds = dataset();
        // The public list omits 10.2.0.0/16 (internal range).
        let truth = vec![p("10.1.0.0/16"), p("20.0.0.0/16")];
        let v = evaluate_org(&ds, "Acme Corp", &truth, AddressFamily::V4);
        assert_eq!(v.true_prefixes, 2);
        assert_eq!(v.predicted_prefixes, 3);
        assert_eq!(v.true_positives, 2);
        assert_eq!(v.false_positives, 1); // the omitted internal range
        assert_eq!(v.false_negatives, 0);
        assert!(v.precision() < 100.0);
        assert_eq!(v.recall(), 100.0);
    }

    #[test]
    fn partner_prefix_becomes_false_negative() {
        let ds = dataset();
        // The list wrongly includes Other Org's prefix (Amazon-China case).
        let truth = vec![p("10.1.0.0/16"), p("30.0.0.0/16")];
        let v = evaluate_org(&ds, "Acme Corp", &truth, AddressFamily::V4);
        assert_eq!(v.false_negatives, 1);
        assert!(v.recall() < 100.0);
    }

    #[test]
    fn unrouted_truth_is_excluded() {
        let ds = dataset();
        let truth = vec![p("10.1.0.0/16"), p("99.0.0.0/16")]; // 99/16 not routed
        let v = evaluate_org(&ds, "Acme Corp", &truth, AddressFamily::V4);
        assert_eq!(v.true_prefixes, 1);
        assert_eq!(v.recall(), 100.0);
    }

    #[test]
    fn subprefix_containment_counts_as_tp() {
        // Truth lists the aggregate; predictions are routed more-specifics.
        let ds = dataset();
        let truth = vec![p("10.0.0.0/8"), p("20.0.0.0/16")];
        let v = evaluate_org(&ds, "Acme Corp", &truth, AddressFamily::V4);
        // 10.0.0.0/8 itself is not routed, so it is excluded from truth...
        assert_eq!(v.true_prefixes, 1);
        // ...but its routed sub-prefixes would still be TPs if it were kept.
        assert_eq!(v.false_positives, 2);
        let v6 = evaluate_org(&ds, "Acme Corp", &truth, AddressFamily::V6);
        assert_eq!(v6.true_prefixes, 0);
        assert_eq!(v6.recall(), 100.0);
    }

    #[test]
    fn report_aggregation_and_median() {
        let ds = dataset();
        let mut report = ValidationReport::default();
        report.push(evaluate_org(
            &ds,
            "Acme Corp",
            &[p("10.1.0.0/16"), p("20.0.0.0/16")],
            AddressFamily::V4,
        ));
        report.push(evaluate_org(
            &ds,
            "Other Org",
            &[p("30.0.0.0/16")],
            AddressFamily::V4,
        ));
        assert_eq!(report.total_true(), 3);
        assert_eq!(report.total_tp(), 3);
        assert_eq!(report.recall(), 100.0);
        assert!(report.precision() <= 100.0);
        assert_eq!(report.median_recall(), 100.0);
        let t1 = [p("10.1.0.0/16"), p("20.0.0.0/16")];
        let t2 = [p("30.0.0.0/16")];
        let share = report.validated_space_share(&ds, &[&t1, &t2]);
        assert!(share > 0.0 && share <= 100.0);
    }

    #[test]
    fn unknown_org_predicts_nothing() {
        let ds = dataset();
        let v = evaluate_org(&ds, "Ghost LLC", &[p("10.1.0.0/16")], AddressFamily::V4);
        assert_eq!(v.predicted_prefixes, 0);
        assert_eq!(v.false_negatives, 1);
        assert_eq!(v.recall(), 0.0);
        assert_eq!(v.precision(), 100.0); // vacuous
    }
}
