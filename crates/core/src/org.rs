//! The organization index: the one answer to "which prefixes does
//! organization X hold" (§7.1), "how many Direct Owners are there" (Table
//! 4's 𝒲 base clusters: distinct basic-cleaned owner names) and "does this
//! final cluster hold that owner" (the §10 transfer rule, [`crate::diff`]).
//!
//! A fragment names, once basic-cleaned, every final cluster label equal to
//! it or starting with it plus `-` (`telver` names `telver-I`), and every
//! label holding a record whose basic-cleaned Direct Owner contains it. A
//! dataset ([`crate::Prefix2OrgDataset::prefixes_of_org`]) and its JSONL
//! export ([`OrgIndex::of_export`]) index the same records, so they answer
//! alike.

use std::collections::HashMap;
use std::sync::OnceLock;

use p2o_net::Prefix;
use p2o_strings::clean::basic_clean;

use crate::export::ExportRecord;

/// Final cluster labels and basic-cleaned Direct Owner names of a set of
/// records, indexed for the organization match.
#[derive(Debug)]
pub struct OrgIndex {
    /// Each record's prefix, in record order.
    prefixes: Vec<Prefix>,
    /// Each record's owner name, an index into `owners`.
    owner_of: Vec<u32>,
    /// The distinct final cluster labels, ascending.
    labels: Vec<String>,
    /// For each label, its records' indices, ascending.
    members: Vec<Vec<u32>>,
    /// The distinct basic-cleaned Direct Owner names, in first-seen order.
    owners: Vec<String>,
    /// For each owner name, the labels holding a record of it.
    owner_labels: Vec<Vec<u32>>,
    /// The owner names by trigram, built by the first match.
    trigrams: OnceLock<TrigramIndex>,
}

impl OrgIndex {
    /// Indexes `(prefix, final cluster label, Direct Owner)` records in one
    /// pass, basic-cleaning each distinct owner name once.
    pub fn new<'a>(records: impl IntoIterator<Item = (Prefix, &'a str, &'a str)>) -> OrgIndex {
        let records = records.into_iter();
        let n = records.size_hint().0;
        let mut prefixes = Vec::with_capacity(n);
        let mut label_of: Vec<u32> = Vec::with_capacity(n);
        let mut owner_of: Vec<u32> = Vec::with_capacity(n);
        let mut label_ids: HashMap<&str, u32> = HashMap::with_capacity(n);
        let mut cleaned_of: HashMap<&str, u32> = HashMap::with_capacity(n);
        let mut owner_ids: HashMap<String, u32> = HashMap::with_capacity(n);
        for (prefix, label, owner) in records {
            prefixes.push(prefix);
            let next = label_ids.len() as u32;
            label_of.push(*label_ids.entry(label).or_insert(next));
            let next = owner_ids.len() as u32;
            owner_of.push(
                *cleaned_of
                    .entry(owner)
                    .or_insert_with(|| *owner_ids.entry(basic_clean(owner)).or_insert(next)),
            );
        }

        // Renumber the labels in sorted order.
        let mut labels: Vec<(&str, u32)> = label_ids.into_iter().collect();
        labels.sort_unstable();
        let mut rank = vec![0u32; labels.len()];
        for (new, &(_, old)) in (0u32..).zip(&labels) {
            rank[old as usize] = new;
        }
        let mut members = vec![Vec::new(); labels.len()];
        let mut owner_labels = vec![Vec::new(); owner_ids.len()];
        for (r, (&label, &owner)) in (0u32..).zip(label_of.iter().zip(&owner_of)) {
            members[rank[label as usize] as usize].push(r);
            owner_labels[owner as usize].push(rank[label as usize]);
        }
        let mut owners = vec![String::new(); owner_ids.len()];
        for (name, id) in owner_ids {
            owners[id as usize] = name;
        }
        OrgIndex {
            labels: labels.iter().map(|(label, _)| label.to_string()).collect(),
            trigrams: OnceLock::new(),
            prefixes,
            owner_of,
            members,
            owners,
            owner_labels,
        }
    }

    /// Indexes records of a JSONL export.
    pub fn of_export<'a>(records: impl IntoIterator<Item = &'a ExportRecord>) -> OrgIndex {
        let records = records.into_iter();
        OrgIndex::new(records.map(|r| (r.prefix, &r.final_cluster[..], &r.direct_owner[..])))
    }

    /// The final clusters `fragment` names, in label order, each with its
    /// records' indices in record order.
    pub fn matching(&self, fragment: &str) -> Vec<(&str, &[u32])> {
        let needle = basic_clean(fragment);
        // The labels starting with the needle are one run of the sorted
        // labels; it names those it ends or ends before a `-`.
        let first = self.labels.partition_point(|l| *l < needle);
        let mut hits: Vec<u32> = (first as u32..)
            .zip(&self.labels[first..])
            .map_while(|(l, label)| Some((l, label.strip_prefix(needle.as_str())?)))
            .filter(|(_, rest)| rest.is_empty() || rest.starts_with('-'))
            .map(|(l, _)| l)
            .collect();
        let owners = self.owners.iter().map(String::as_str);
        let trigrams = self.trigrams.get_or_init(|| TrigramIndex::new(owners));
        for o in trigrams.candidates(&needle) {
            if self.owners[o].contains(&needle) {
                hits.extend_from_slice(&self.owner_labels[o]);
            }
        }
        hits.sort_unstable();
        hits.dedup();
        hits.into_iter().map(|l| self.cluster(l as usize)).collect()
    }

    /// The prefixes of every final cluster `fragment` names, ascending.
    pub fn prefixes_of(&self, fragment: &str) -> Vec<Prefix> {
        let clusters = self.matching(fragment).into_iter();
        let records = clusters.flat_map(|(_, records)| records);
        let mut out: Vec<Prefix> = records.map(|&r| self.prefixes[r as usize]).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every final cluster, in label order, with its records' indices in
    /// record order.
    pub fn clusters(&self) -> impl ExactSizeIterator<Item = (&str, &[u32])> {
        (0..self.labels.len()).map(|l| self.cluster(l))
    }

    fn cluster(&self, l: usize) -> (&str, &[u32]) {
        (&self.labels[l], &self.members[l])
    }

    /// The number of distinct basic-cleaned Direct Owner names (Table 4's
    /// Direct Owners, [`crate::DatasetMetrics::direct_owners`]).
    pub fn owner_count(&self) -> usize {
        self.owners.len()
    }

    /// Whether the final cluster `label` holds a record whose Direct Owner
    /// basic-cleans to `cleaned_owner`.
    pub fn holds(&self, label: &str, cleaned_owner: &str) -> bool {
        let owned = |&r: &u32| self.owners[self.owner_of[r as usize] as usize] == cleaned_owner;
        match self.labels.binary_search_by(|l| l.as_str().cmp(label)) {
            Ok(l) => self.members[l].iter().any(owned),
            Err(_) => false,
        }
    }
}

/// Names indexed by the byte trigrams they hold. A name that contains a
/// needle holds every trigram of the needle, so a substring search need
/// only check the names holding the needle's rarest trigram.
#[derive(Debug)]
struct TrigramIndex {
    names: usize,
    /// For each trigram, the indices of the names holding it, ascending.
    postings: HashMap<[u8; 3], Vec<u32>>,
}

impl TrigramIndex {
    fn new<'a>(names: impl ExactSizeIterator<Item = &'a str>) -> TrigramIndex {
        let count = names.len();
        let mut postings: HashMap<[u8; 3], Vec<u32>> = HashMap::new();
        for (i, name) in names.enumerate() {
            for trigram in name.as_bytes().windows(3) {
                let posting = postings
                    .entry(trigram.try_into().expect("3 bytes"))
                    .or_default();
                if posting.last() != Some(&(i as u32)) {
                    posting.push(i as u32);
                }
            }
        }
        TrigramIndex {
            names: count,
            postings,
        }
    }

    /// The indices of the names that may contain `needle`, ascending: those
    /// holding its rarest trigram, or every name when the needle is shorter
    /// than a trigram.
    fn candidates<'s>(&'s self, needle: &str) -> Box<dyn Iterator<Item = usize> + 's> {
        if needle.len() < 3 {
            return Box::new(0..self.names);
        }
        let rarest = needle
            .as_bytes()
            .windows(3)
            .map(|trigram| self.postings.get(trigram).map_or(&[][..], Vec::as_slice))
            .min_by_key(|posting| posting.len())
            .unwrap_or_default();
        Box::new(rarest.iter().map(|&i| i as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2o_util::check::{run_cases, Gen};
    use std::collections::{BTreeMap, BTreeSet};

    /// The index finds exactly the names a full `contains` scan finds, for
    /// needles of every length (the empty one included) drawn from the
    /// names themselves and at random, over ASCII and multi-byte names.
    #[test]
    fn trigram_candidates_find_what_a_full_scan_finds() {
        run_cases(200, |g| {
            let names: Vec<String> = (0..g.below(40))
                .map(|_| match g.below(3) {
                    0 => g.unicode_string(12),
                    _ => g.string_from("abc d", 12),
                })
                .collect();
            let index = TrigramIndex::new(names.iter().map(String::as_str));
            for _ in 0..20 {
                let needle = match (g.below(3), names.is_empty()) {
                    (0, false) => {
                        let name = g.pick(&names);
                        substring(g, name)
                    }
                    (1, _) => g.unicode_string(4),
                    _ => g.string_from("abc d", 5),
                };
                let found: Vec<usize> = index
                    .candidates(&needle)
                    .filter(|&i| names[i].contains(&needle))
                    .collect();
                let want: Vec<usize> = (0..names.len())
                    .filter(|&i| names[i].contains(&needle))
                    .collect();
                assert_eq!(found, want, "needle {needle:?} in {names:?}");
            }
        });
    }

    /// A random byte range of `s`, lossily decoded.
    fn substring(g: &mut Gen, s: &str) -> String {
        let bytes = s.as_bytes();
        let start = g.below(bytes.len() + 1);
        let end = start + g.below(bytes.len() - start + 1);
        String::from_utf8_lossy(&bytes[start..end]).into_owned()
    }

    /// One random record's label and Direct Owner: owners over a small
    /// alphabet (so names repeat and contain each other) or multi-byte;
    /// labels `base-roman` like the clusterer's, or, for a record carrying
    /// an asserted exception, any organization text.
    fn record(g: &mut Gen) -> (String, String) {
        let owner = match g.below(4) {
            0 => g.unicode_string(10),
            _ => g.string_from("ab -CD", 10),
        };
        let label = match g.below(4) {
            0 => g.unicode_string(8),
            1 => g.string_from("ab -", 6),
            _ => format!(
                "{}-{}",
                basic_clean(&g.string_from("ab ", 4)),
                g.pick(&["I", "II", "III"])
            ),
        };
        (label, owner)
    }

    /// Every answer equals a brute-force scan of the rule over the records:
    /// the labels a fragment names and their records, the prefixes, the
    /// distinct cleaned owners and the label/owner membership.
    #[test]
    fn answers_equal_a_scan_of_the_rule() {
        run_cases(200, |g| {
            let records: Vec<(Prefix, String, String)> = (0..g.below(30))
                .map(|i| {
                    let (label, owner) = record(g);
                    let prefix = format!("10.{}.0.0/16", i).parse().unwrap();
                    (prefix, label, owner)
                })
                .collect();
            let index = OrgIndex::new(
                records
                    .iter()
                    .map(|(p, label, owner)| (*p, label.as_str(), owner.as_str())),
            );
            let cleaned: Vec<String> = records.iter().map(|r| basic_clean(&r.2)).collect();

            let owners: BTreeSet<&String> = cleaned.iter().collect();
            assert_eq!(index.owner_count(), owners.len());
            let mut clusters: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
            for (i, r) in (0u32..).zip(&records) {
                clusters.entry(r.1.as_str()).or_default().push(i);
            }
            let got: Vec<(&str, &[u32])> = index.clusters().collect();
            let want: Vec<(&str, &[u32])> = clusters.iter().map(|(l, m)| (*l, &m[..])).collect();
            assert_eq!(got, want);

            for _ in 0..10 {
                let fragment = match (g.below(4), records.is_empty()) {
                    (0, false) => {
                        let label = &g.pick(&records).1;
                        substring(g, label)
                    }
                    (1, false) => {
                        let owner = &g.pick(&records).2;
                        substring(g, owner)
                    }
                    (2, _) => g.string_from("ab -", 2),
                    _ => g.unicode_string(3),
                };
                let needle = basic_clean(&fragment);
                let named: BTreeSet<&str> = records
                    .iter()
                    .zip(&cleaned)
                    .filter(|((_, label, _), owner)| {
                        *label == needle
                            || label.starts_with(&format!("{needle}-"))
                            || owner.contains(&needle)
                    })
                    .map(|((_, label, _), _)| label.as_str())
                    .collect();
                let want: Vec<(&str, &[u32])> =
                    named.iter().map(|l| (*l, &clusters[l][..])).collect();
                assert_eq!(index.matching(&fragment), want, "fragment {fragment:?}");
                let mut prefixes: Vec<Prefix> = records
                    .iter()
                    .filter(|r| named.contains(r.1.as_str()))
                    .map(|r| r.0)
                    .collect();
                prefixes.sort();
                assert_eq!(index.prefixes_of(&fragment), prefixes);
            }

            for _ in 0..10 {
                let label = match (g.bool(), records.is_empty()) {
                    (true, false) => g.pick(&records).1.clone(),
                    _ => g.string_from("ab -I", 4),
                };
                let owner = match (g.bool(), cleaned.is_empty()) {
                    (true, false) => g.pick(&cleaned).clone(),
                    _ => g.string_from("ab ", 3),
                };
                let want = records
                    .iter()
                    .zip(&cleaned)
                    .any(|(r, o)| r.1 == label && *o == owner);
                assert_eq!(index.holds(&label, &owner), want, "{label:?} {owner:?}");
            }
        });
    }
}
