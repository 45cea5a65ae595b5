//! Object-boundary sharding of bulk-dump text for parallel parsing.
//!
//! All three dump flavours this crate parses (RPSL, ARIN, LACNIC) share one
//! framing rule: objects are runs of non-blank lines separated by at least
//! one blank line. That makes any line start immediately following a blank
//! line a safe place to cut the text — no object can straddle the cut — so a
//! dump can be split into near-equal shards, parsed on independent threads,
//! and the per-shard results concatenated in shard order to reproduce the
//! sequential parse exactly.
//!
//! "Blank" matches the parsers' own test (`line.trim_end().is_empty()`), so
//! CRLF line endings and whitespace-only separator lines are handled the
//! same way here as there.

/// One shard of dump text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard<'a> {
    /// The text slice; concatenating all shards in order yields the input.
    pub text: &'a str,
    /// Number of input lines before this shard, so 1-based line numbers
    /// reported for objects inside the shard can be rebased onto the whole
    /// dump by adding this offset.
    pub line_offset: usize,
}

/// Splits `text` into at most `shards` pieces, cutting only at object
/// boundaries (a line start directly after a blank line).
///
/// Guarantees:
///
/// - concatenating the returned slices in order reproduces `text` exactly;
/// - no cut falls inside an object, so parsing shards independently finds
///   the same objects as parsing the whole text;
/// - `line_offset` counts the `\n`s before each shard.
///
/// Fewer shards than requested are returned when the text has too few
/// boundaries (e.g. one giant object, or trailing garbage with no blank
/// separators).
pub fn split_at_object_boundaries(text: &str, shards: usize) -> Vec<Shard<'_>> {
    if shards <= 1 || text.is_empty() {
        return vec![Shard {
            text,
            line_offset: 0,
        }];
    }
    // Candidate cut points: (byte offset, line index) of every line that
    // starts right after a blank line.
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    let mut offset = 0usize;
    let mut prev_blank = false;
    for (idx, line) in text.split_inclusive('\n').enumerate() {
        if prev_blank {
            candidates.push((offset, idx));
        }
        prev_blank = line.trim_end().is_empty();
        offset += line.len();
    }

    let mut cuts: Vec<(usize, usize)> = Vec::new();
    let mut from = 0usize; // index into candidates
    for k in 1..shards {
        let target = text.len() * k / shards;
        while from < candidates.len() && candidates[from].0 < target {
            from += 1;
        }
        // Skip candidates already used (or at position 0 — shard 0 covers it).
        if from < candidates.len() && candidates[from].0 > cuts.last().map_or(0, |c| c.0) {
            cuts.push(candidates[from]);
        }
    }

    let mut out = Vec::with_capacity(cuts.len() + 1);
    let mut start = (0usize, 0usize);
    for cut in cuts.into_iter().chain(std::iter::once((text.len(), 0))) {
        if cut.0 > start.0 || out.is_empty() {
            out.push(Shard {
                text: &text[start.0..cut.0],
                line_offset: start.1,
            });
        }
        start = cut;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Registry, Rir};

    fn reassemble(shards: &[Shard<'_>]) -> String {
        shards.iter().map(|s| s.text).collect()
    }

    fn assert_invariants(text: &str, n: usize) -> Vec<Shard<'_>> {
        let shards = split_at_object_boundaries(text, n);
        assert_eq!(reassemble(&shards), text, "shards must concatenate back");
        let mut lines_before = 0usize;
        let mut pos = 0usize;
        for s in &shards {
            assert_eq!(
                s.line_offset, lines_before,
                "line offset must count newlines before the shard"
            );
            lines_before += s.text.matches('\n').count();
            // Every shard after the first must start right after a blank line.
            if pos > 0 {
                let before = &text[..pos];
                let last_line = before.rsplit('\n').nth(1).unwrap_or("");
                assert!(
                    last_line.trim_end().is_empty(),
                    "shard at byte {pos} not preceded by a blank line: {last_line:?}"
                );
            }
            pos += s.text.len();
        }
        shards
    }

    fn rpsl_corpus(objects: usize) -> String {
        (0..objects)
            .map(|i| {
                format!(
                    "inetnum:        10.{}.{}.0 - 10.{}.{}.255\n\
                     descr:          Org {i} Inc\n\
                     status:         ALLOCATED PA\n\
                     source:         RIPE\n\n",
                    i / 256,
                    i % 256,
                    i / 256,
                    i % 256
                )
            })
            .collect()
    }

    #[test]
    fn sharded_rpsl_parse_finds_every_record() {
        let text = rpsl_corpus(64);
        for n in [1, 2, 3, 4, 7, 16] {
            let shards = assert_invariants(&text, n);
            let total: usize = shards
                .iter()
                .map(|s| {
                    crate::rpsl::parse_dump(s.text, Registry::Rir(Rir::Ripe))
                        .records
                        .len()
                })
                .sum();
            assert_eq!(total, 64, "{n} shards must parse all records");
        }
    }

    #[test]
    fn no_cut_splits_an_object_without_trailing_blank() {
        // No blank line at the very end: the last object must stay whole.
        let text = rpsl_corpus(8);
        let text = text.trim_end().to_string();
        let shards = assert_invariants(&text, 4);
        let total: usize = shards
            .iter()
            .map(|s| {
                crate::rpsl::parse_dump(s.text, Registry::Rir(Rir::Ripe))
                    .records
                    .len()
            })
            .sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn crlf_blank_lines_are_boundaries() {
        let text = rpsl_corpus(16).replace('\n', "\r\n");
        let shards = assert_invariants(&text, 4);
        assert!(shards.len() > 1, "CRLF text must still shard");
        let total: usize = shards
            .iter()
            .map(|s| {
                crate::rpsl::parse_dump(s.text, Registry::Rir(Rir::Ripe))
                    .records
                    .len()
            })
            .sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn arin_blocks_never_split() {
        let text: String = (0..32)
            .map(|i| {
                format!(
                    "NetRange:       198.51.{i}.0 - 198.51.{i}.255\n\
                     NetType:        Reassignment\n\
                     OrgName:        Customer {i} LLC\n\
                     Updated:        2024-01-01\n\n"
                )
            })
            .collect();
        let shards = assert_invariants(&text, 5);
        let total: usize = shards
            .iter()
            .map(|s| crate::arin::parse_dump(s.text).records.len())
            .sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn lacnic_blocks_never_split() {
        let text: String = (0..24)
            .map(|i| {
                format!(
                    "inetnum:     200.{i}.0.0/16\n\
                     status:      allocated\n\
                     owner:       Operadora {i} SA\n\
                     changed:     20240101\n\n"
                )
            })
            .collect();
        let shards = assert_invariants(&text, 6);
        let total: usize = shards
            .iter()
            .map(|s| {
                crate::lacnic::parse_dump(s.text, Registry::Rir(Rir::Lacnic))
                    .records
                    .len()
            })
            .sum();
        assert_eq!(total, 24);
    }

    #[test]
    fn trailing_garbage_stays_attached() {
        let mut text = rpsl_corpus(8);
        text.push_str("this is not rpsl at all\nneither: is: this ::\n");
        let shards = assert_invariants(&text, 4);
        let total: usize = shards
            .iter()
            .map(|s| {
                crate::rpsl::parse_dump(s.text, Registry::Rir(Rir::Ripe))
                    .records
                    .len()
            })
            .sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn single_object_cannot_be_sharded() {
        let text = "inetnum: 10.0.0.0 - 10.0.0.255\ndescr: Only One\nstatus: ALLOCATED PA\n";
        let shards = assert_invariants(text, 8);
        assert_eq!(shards.len(), 1);
    }

    #[test]
    fn empty_and_blank_only_input() {
        assert_eq!(split_at_object_boundaries("", 4).len(), 1);
        let blank = "\n\n\n";
        let shards = assert_invariants(blank, 4);
        assert_eq!(reassemble(&shards), blank);
    }

    /// Property: parsing every shard independently and concatenating the
    /// results must equal the sequential parse — records, orgs, and
    /// rebased problem lines all identical, not just counts.
    fn assert_parse_equivalent(text: &str, n: usize) {
        let whole = crate::rpsl::parse_dump(text, Registry::Rir(Rir::Ripe));
        let shards = assert_invariants(text, n);
        let mut records = Vec::new();
        let mut problems: Vec<usize> = Vec::new();
        for s in &shards {
            let dump = crate::rpsl::parse_dump(s.text, Registry::Rir(Rir::Ripe));
            records.extend(dump.records);
            problems.extend(dump.problems.iter().map(|p| p.line + s.line_offset));
        }
        assert_eq!(records, whole.records, "{n} shards changed the records");
        assert_eq!(
            problems,
            whole.problems.iter().map(|p| p.line).collect::<Vec<_>>(),
            "{n} shards changed the problem lines"
        );
    }

    #[test]
    fn xl_scale_sharding_is_parse_equivalent() {
        // An xl-flavoured corpus: tens of thousands of objects, far more
        // than any shard count used in production.
        let text = rpsl_corpus(20_000);
        for n in [2, 8, 64, 512] {
            assert_parse_equivalent(&text, n);
        }
    }

    #[test]
    fn objects_larger_than_a_shard_stay_whole() {
        // One object dwarfs the per-shard target: remarks pad it past
        // 1/4 of the text, so a 4-way split has no boundary inside the
        // giant and must produce lopsided shards rather than cut it.
        let giant: String = std::iter::once(
            "inetnum:        10.99.0.0 - 10.99.255.255\ndescr:          Giant Org\n".to_string(),
        )
        .chain((0..4000).map(|i| format!("remarks:        padding line {i}\n")))
        .chain(std::iter::once("source:         RIPE\n\n".to_string()))
        .collect();
        let mut text = rpsl_corpus(4);
        text.push_str(&giant);
        text.push_str(&rpsl_corpus(4));
        for n in [2, 4, 8] {
            assert_parse_equivalent(&text, n);
        }
        // The giant must appear in exactly one shard.
        let shards = split_at_object_boundaries(&text, 8);
        let holding: Vec<_> = shards
            .iter()
            .filter(|s| s.text.contains("Giant Org"))
            .collect();
        assert_eq!(holding.len(), 1);
        assert!(holding[0].text.contains("padding line 3999"));
    }

    #[test]
    fn crlf_only_separators_are_boundaries() {
        // Separators that are bare "\r\n" (no LF-only blank lines
        // anywhere): boundary detection must still fire on every one.
        let text: String = (0..64)
            .map(|i| {
                format!(
                    "inetnum:        10.0.{i}.0 - 10.0.{i}.255\r\n\
                     descr:          CRLF Org {i}\r\n\
                     source:         RIPE\r\n\r\n"
                )
            })
            .collect();
        for n in [2, 4, 16] {
            assert_parse_equivalent(&text, n);
        }
        assert!(split_at_object_boundaries(&text, 4).len() == 4);
    }

    #[test]
    fn trailing_unterminated_object_stays_whole() {
        // The dump ends mid-object: no final newline, no trailing blank.
        let mut text = rpsl_corpus(32);
        text.push_str("inetnum:        10.200.0.0 - 10.200.0.255\ndescr:          Tail Org");
        for n in [2, 4, 8, 32] {
            assert_parse_equivalent(&text, n);
        }
        let shards = split_at_object_boundaries(&text, 8);
        let last = shards.last().unwrap();
        assert!(last.text.contains("Tail Org"));
        assert!(last.text.contains("inetnum:        10.200.0.0"));
    }

    #[test]
    fn line_offsets_rebase_problem_lines_exactly() {
        // A bad object deep in the text must report the same 1-based line
        // number whether parsed whole or in shards.
        let mut text = rpsl_corpus(20);
        text.push_str(
            "inetnum:        999.0.0.0 - 999.0.0.255\nstatus: ALLOCATED PA\ndescr: Broken\n",
        );
        let whole = crate::rpsl::parse_dump(&text, Registry::Rir(Rir::Ripe));
        assert_eq!(whole.problems.len(), 1);
        let shards = assert_invariants(&text, 4);
        let mut sharded: Vec<usize> = Vec::new();
        for s in &shards {
            let dump = crate::rpsl::parse_dump(s.text, Registry::Rir(Rir::Ripe));
            sharded.extend(dump.problems.iter().map(|p| p.line + s.line_offset));
        }
        assert_eq!(sharded, vec![whole.problems[0].line]);
    }
}
