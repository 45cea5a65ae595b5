//! The corpus-aware base-name extractor and its funnel statistics.
//!
//! Cleaning splits at the corpus: the basic, regex and corporate stages are
//! a pure function of one name ([`stage`]), and the frequent-word drop needs
//! token counts over the whole corpus. So a corpus in which names repeat —
//! WHOIS owners hold many prefixes — stages each distinct name once and
//! counts its tokens weighted by how often it occurs
//! ([`BaseNameExtractor::from_weighted`]); [`BaseNameExtractor::base_of`]
//! then finishes a staged name without cleaning it again.

use std::collections::{HashMap, HashSet};

use crate::clean::{
    basic_clean, drop_corporate_words, drop_frequent_words, drop_geo_words, refill_short,
    regex_clean, CleanTrace,
};

/// The paper's frequent-word threshold: tokens appearing more than this many
/// times across the corpus are dropped (footnote 5: 50–200 gave similar
/// results; 100 chosen by inspection).
pub const DEFAULT_FREQUENCY_THRESHOLD: usize = 100;

/// The corpus-independent forms of one name: the first three cleaning
/// stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedName {
    /// After basic cleaning (the 𝒲 key).
    pub basic: String,
    /// After the regex drop.
    pub regex: String,
    /// After the corporate-word drop: the form whose tokens the corpus
    /// counts.
    pub corporate: String,
}

/// Runs the basic, regex and corporate stages on one name.
pub fn stage(name: &str) -> StagedName {
    let basic = basic_clean(name);
    let regex = regex_clean(&basic);
    let corporate = drop_corporate_words(&regex);
    StagedName {
        basic,
        regex,
        corporate,
    }
}

/// Unique-name counts after each cleaning stage — the rows of paper Table 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunnelStats {
    /// Distinct raw names.
    pub original: usize,
    /// After basic cleaning.
    pub basic: usize,
    /// After regex drop (incl. spelling standardization).
    pub regex: usize,
    /// After corporate-word drop.
    pub corporate: usize,
    /// After frequent-word drop.
    pub frequent: usize,
    /// After geographic-word drop.
    pub geographic: usize,
    /// Final base names (after short-name refill).
    pub base: usize,
}

impl FunnelStats {
    /// Percentage reduction from basic-cleaned names to base names (the
    /// paper reports 12%).
    pub fn reduction_pct(&self) -> f64 {
        if self.basic == 0 {
            return 0.0;
        }
        100.0 * (self.basic - self.base) as f64 / self.basic as f64
    }
}

/// Extracts base names from WHOIS organization names.
///
/// Construction is corpus-aware: frequent-word removal requires word
/// frequencies over the whole corpus (computed after the corporate-word
/// stage, so legal endings do not dominate the counts).
///
/// ```
/// use p2o_strings::BaseNameExtractor;
///
/// let corpus = ["Verizon Japan Ltd", "Verizon Business", "Fastly, Inc."];
/// let ex = BaseNameExtractor::build(corpus.iter().map(|s| s.to_string()), 100);
/// assert_eq!(ex.extract("Verizon Japan Ltd"), "verizon");
/// assert_eq!(ex.extract("Fastly, Inc."), "fastly");
/// ```
#[derive(Debug, Clone)]
pub struct BaseNameExtractor {
    frequent: HashSet<String>,
    threshold: usize,
}

impl BaseNameExtractor {
    /// Builds an extractor from the name corpus with the given frequent-word
    /// threshold: every name is staged and counts once.
    pub fn build<I, S>(corpus: I, threshold: usize) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Self::from_weighted(
            corpus
                .into_iter()
                .map(|name| (stage(name.as_ref()).corporate, 1)),
            threshold,
        )
    }

    /// Builds an extractor from corporate-stage forms
    /// ([`StagedName::corporate`]) paired with how many corpus entries
    /// carry each: a token counts once per entry, so a form of weight `w`
    /// adds `w` to each of its tokens. Tokens counted more than
    /// `threshold` times are frequent.
    pub fn from_weighted<I, S>(corporate: I, threshold: usize) -> Self
    where
        I: IntoIterator<Item = (S, usize)>,
        S: AsRef<str>,
    {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for (form, weight) in corporate {
            for tok in form.as_ref().split_whitespace() {
                match counts.get_mut(tok) {
                    Some(n) => *n += weight,
                    None => {
                        counts.insert(tok.to_string(), weight);
                    }
                }
            }
        }
        let frequent = counts
            .into_iter()
            .filter(|(_, c)| *c > threshold)
            .map(|(w, _)| w)
            .collect();
        BaseNameExtractor {
            frequent,
            threshold,
        }
    }

    /// An extractor with no corpus (frequent-word removal disabled). Useful
    /// for unit tests and single-name tooling.
    pub fn without_corpus() -> Self {
        BaseNameExtractor {
            frequent: HashSet::new(),
            threshold: DEFAULT_FREQUENCY_THRESHOLD,
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Whether a token is corpus-frequent.
    pub fn is_frequent(&self, token: &str) -> bool {
        self.frequent.contains(token)
    }

    /// The frequent-word list (sorted, for inspection and tests).
    pub fn frequent_words(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.frequent.iter().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }

    /// Runs the full pipeline on one name, keeping every intermediate form.
    pub fn trace(&self, name: &str) -> CleanTrace {
        let staged = stage(name);
        let (frequent, geographic, base) = self.finish(&staged);
        CleanTrace {
            original: name.to_string(),
            basic: staged.basic,
            regex: staged.regex,
            corporate: staged.corporate,
            frequent,
            geographic,
            base,
        }
    }

    /// The frequent-word, geographic and base forms of a staged name.
    fn finish(&self, staged: &StagedName) -> (String, String, String) {
        let frequent = drop_frequent_words(&staged.corporate, |t| self.is_frequent(t));
        let geographic = drop_geo_words(&frequent);
        let base = refill_short(&geographic, &staged.corporate);
        (frequent, geographic, base)
    }

    /// The base name of a name already [`stage`]d: equal to
    /// [`extract`](Self::extract) on the original name.
    pub fn base_of(&self, staged: &StagedName) -> String {
        self.finish(staged).2
    }

    /// The base name of one WHOIS organization name.
    pub fn extract(&self, name: &str) -> String {
        self.trace(name).base
    }

    /// Computes the Table 2 funnel over a corpus: unique-name counts after
    /// each stage.
    pub fn funnel<I, S>(&self, corpus: I) -> FunnelStats
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut sets: [HashSet<String>; 7] = Default::default();
        for name in corpus {
            let t = self.trace(name.as_ref());
            sets[0].insert(t.original);
            sets[1].insert(t.basic);
            sets[2].insert(t.regex);
            sets[3].insert(t.corporate);
            sets[4].insert(t.frequent);
            sets[5].insert(t.geographic);
            sets[6].insert(t.base);
        }
        FunnelStats {
            original: sets[0].len(),
            basic: sets[1].len(),
            regex: sets[2].len(),
            corporate: sets[3].len(),
            frequent: sets[4].len(),
            geographic: sets[5].len(),
            base: sets[6].len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        // A corpus where "network", "solution", "data" are frequent.
        let mut v = Vec::new();
        for i in 0..120 {
            v.push(format!("org{i} network solution"));
            v.push(format!("other{i} data services"));
        }
        v.extend(
            [
                "Verizon Japan Ltd",
                "Verizon Business",
                "Verizon Hong Kong Ltd",
                "Fastly, Inc.",
                "Fastly Network Solution Company",
                "Telefonica del Peru S.A.A.",
                "Telefonica Chile SA",
            ]
            .map(String::from),
        );
        v
    }

    #[test]
    fn paper_examples_reduce_to_base_names() {
        let ex = BaseNameExtractor::build(corpus(), 100);
        assert_eq!(ex.extract("Verizon Japan Ltd"), "verizon");
        assert_eq!(ex.extract("Verizon Business"), "verizon business");
        assert_eq!(ex.extract("Fastly, Inc."), "fastly");
        // The Vietnamese hoster also reduces to "fastly" — the collision the
        // RPKI/ASN evidence must split (§5.3.1, Table 3).
        assert_eq!(ex.extract("Fastly Network Solution Company"), "fastly");
    }

    #[test]
    fn telefonica_variants_share_base_but_not_all() {
        let ex = BaseNameExtractor::build(corpus(), 100);
        assert_eq!(ex.extract("Telefonica del Peru S.A.A."), "telefonica del");
        assert_eq!(ex.extract("Telefonica Chile SA"), "telefonica");
    }

    #[test]
    fn frequent_words_detected_from_corpus() {
        let ex = BaseNameExtractor::build(corpus(), 100);
        assert!(ex.is_frequent("network"));
        assert!(ex.is_frequent("solution"));
        assert!(ex.is_frequent("data"));
        assert!(!ex.is_frequent("verizon"));
        assert!(!ex.frequent_words().is_empty());
    }

    #[test]
    fn threshold_is_respected() {
        let names: Vec<String> = (0..10).map(|i| format!("x{i} shared")).collect();
        let low = BaseNameExtractor::build(names.clone(), 5);
        assert!(low.is_frequent("shared"));
        let high = BaseNameExtractor::build(names, 50);
        assert!(!high.is_frequent("shared"));
        assert_eq!(high.threshold(), 50);
    }

    #[test]
    fn funnel_is_monotone_until_refill() {
        let ex = BaseNameExtractor::build(corpus(), 100);
        let f = ex.funnel(corpus());
        assert!(f.original >= f.basic);
        assert!(f.basic >= f.regex);
        assert!(f.regex >= f.corporate);
        assert!(f.corporate >= f.frequent);
        assert!(f.frequent >= f.geographic);
        // Refill can only split merged names apart again.
        assert!(f.base >= f.geographic);
        assert!(f.reduction_pct() >= 0.0);
    }

    #[test]
    fn extraction_is_idempotent() {
        let ex = BaseNameExtractor::build(corpus(), 100);
        for name in corpus() {
            let once = ex.extract(&name);
            // Re-extracting a clean base name does not change it further
            // (unless refill logic intervenes, which extract() already
            // settles).
            assert_eq!(ex.extract(&once), once, "{name}");
        }
    }

    #[test]
    fn without_corpus_still_cleans() {
        let ex = BaseNameExtractor::without_corpus();
        assert_eq!(ex.extract("Acme GmbH"), "acme");
        assert_eq!(ex.extract("Acme Deutschland GmbH"), "acme");
    }

    #[test]
    fn short_name_refill_applies() {
        let ex = BaseNameExtractor::without_corpus();
        // "KD Deutschland GmbH" -> corporate "kd deutschland" -> geo "kd"
        // (2 chars) -> refill to "kd deutschland".
        assert_eq!(ex.extract("KD Deutschland GmbH"), "kd deutschland");
    }

    #[test]
    fn trace_display_shows_every_step() {
        let ex = BaseNameExtractor::without_corpus();
        let text = ex.trace("Verizon Japan Ltd").to_string();
        for step in [
            "original",
            "basic",
            "regex",
            "corporate",
            "geographic",
            "base",
        ] {
            assert!(text.contains(step), "missing {step}:\n{text}");
        }
        assert!(text.ends_with("base      : verizon"));
    }

    #[test]
    fn empty_and_junk_names() {
        let ex = BaseNameExtractor::without_corpus();
        assert_eq!(ex.extract(""), "");
        assert_eq!(ex.extract("   "), "");
        assert_eq!(ex.extract("!!!"), "");
        assert_eq!(ex.extract("123456"), "");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use p2o_util::check::run_cases;

    /// The extractor must be total over arbitrary unicode input: no
    /// panics, normalized output (lowercase where applicable, single
    /// spaces, trimmed).
    #[test]
    fn extraction_is_total_and_normalized() {
        run_cases(256, |g| {
            let name = g.unicode_string(40);
            let ex = BaseNameExtractor::without_corpus();
            let base = ex.extract(&name);
            assert!(!base.contains("  "), "double space in {base:?}");
            assert_eq!(base.trim(), base.as_str());
            assert_eq!(base.to_lowercase(), base);
        });
    }

    /// Extraction is idempotent over arbitrary input, not just WHOIS-ish
    /// names: re-extracting a base name yields itself.
    #[test]
    fn extraction_idempotent_on_arbitrary_input() {
        run_cases(256, |g| {
            let name = g.string_from(
                "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,()-",
                60,
            );
            let ex = BaseNameExtractor::without_corpus();
            let once = ex.extract(&name);
            assert_eq!(ex.extract(&once), once);
        });
    }

    /// The funnel never panics and stays internally consistent for any
    /// corpus.
    #[test]
    fn funnel_total() {
        run_cases(128, |g| {
            let corpus: Vec<String> = (0..g.below(30)).map(|_| g.unicode_string(40)).collect();
            let ex = BaseNameExtractor::build(corpus.iter(), 5);
            let f = ex.funnel(corpus.iter());
            assert!(f.original >= f.basic);
            assert!(f.base <= f.original.max(1));
        });
    }
}
