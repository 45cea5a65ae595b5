//! Decision provenance: the rule chain behind one pipeline answer.
//!
//! The paper's validation (§5) hinges on being able to audit *why* a
//! prefix was assigned its Direct Owner and Delegated Customers — which
//! covering delegations were consulted, which radix LPM nodes were
//! walked, which WHOIS org matched, which merge joined the clusters.
//! A [`DecisionTrace`] captures that chain as ordered, human-readable
//! steps; `p2o explain <prefix>` renders it.
//!
//! Steps are plain `{rule, detail}` strings: this crate sits below
//! `p2o-whois`/`p2o-core` in the dependency graph, so the domain layers
//! format their own details and the trace stays type-agnostic. Unlike
//! span timestamps, a decision trace is fully deterministic for a
//! deterministic input — tests pin rendered traces verbatim.
//!
//! [`write_trace`] is the one place that knows how a trace is laid out as
//! text. [`DecisionTrace::render`] uses it, and so does every surface that
//! prints a trace the frozen dataset stored as `(rule, detail)` pairs.

use std::fmt::{self, Write as _};

use p2o_util::json::Escaper;

/// One applied rule in a decision chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionStep {
    /// Short rule identifier (e.g. `radix.lpm`, `whois.direct_owner`).
    pub rule: String,
    /// Human-readable detail: what the rule matched and produced.
    pub detail: String,
}

/// The ordered rule chain that produced one answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionTrace {
    /// What is being explained (e.g. the prefix under resolution).
    pub subject: String,
    /// Applied rules, in application order.
    pub steps: Vec<DecisionStep>,
}

impl DecisionTrace {
    /// An empty trace for `subject`.
    pub fn new(subject: impl Into<String>) -> DecisionTrace {
        DecisionTrace {
            subject: subject.into(),
            steps: Vec::new(),
        }
    }

    /// Appends a step.
    pub fn push(&mut self, rule: impl Into<String>, detail: impl Into<String>) {
        self.steps.push(DecisionStep {
            rule: rule.into(),
            detail: detail.into(),
        });
    }

    /// Whether any step used rule `rule`.
    pub fn used(&self, rule: &str) -> bool {
        self.steps.iter().any(|s| s.rule == rule)
    }

    /// Renders the chain as [`write_trace`] lays it out.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let steps = self
            .steps
            .iter()
            .map(|s| (s.rule.as_str(), s.detail.as_str()));
        write_trace(&mut out, &self.subject, steps).expect("String writes succeed");
        out
    }
}

/// Writes a decision trace as numbered, rule-aligned lines under its
/// subject:
///
/// ```text
/// 203.0.113.0/24
///   1. bgp.origins      announced by AS65001
///   2. radix.lpm        covering chain has 2 blocks (7 nodes walked)
/// ```
///
/// Numbers are right-aligned to the widest one, and each rule is padded
/// to the longest rule's byte length counted in chars, as `{:width$}`
/// pads. A trace with no steps reads `  (no rules applied)`.
pub fn write_trace<'s, W, I>(out: &mut W, subject: impl fmt::Display, steps: I) -> fmt::Result
where
    W: fmt::Write + ?Sized,
    I: Iterator<Item = (&'s str, &'s str)> + Clone,
{
    write_lines(out, subject, steps, false)
}

/// [`write_trace`]'s text as one JSON string literal, escaped as
/// [`write_escaped`](p2o_util::json::write_escaped) escapes a string.
pub fn write_trace_json<'s, W, I>(out: &mut W, subject: impl fmt::Display, steps: I) -> fmt::Result
where
    W: fmt::Write + ?Sized,
    I: Iterator<Item = (&'s str, &'s str)> + Clone,
{
    out.write_char('"')?;
    write_lines(out, subject, steps, true)?;
    out.write_char('"')
}

/// The layout behind [`write_trace`] and [`write_trace_json`]: one pass
/// over `steps` for the widths, one to write. It runs once per served
/// answer, so each line is appended from its pieces with no formatting
/// machinery, and only the subject, rules and details pass through the
/// JSON escaper (the numbers and padding never need it).
fn write_lines<'s, W, I>(
    out: &mut W,
    subject: impl fmt::Display,
    steps: I,
    json: bool,
) -> fmt::Result
where
    W: fmt::Write + ?Sized,
    I: Iterator<Item = (&'s str, &'s str)> + Clone,
{
    let text = |out: &mut W, s: &str| {
        if json {
            Escaper::new(out).write_str(s)
        } else {
            out.write_str(s)
        }
    };
    let newline = if json { "\\n" } else { "\n" };
    let (count, width) = steps.clone().fold((0usize, 0usize), |(n, w), (rule, _)| {
        (n + 1, w.max(rule.len()))
    });
    if json {
        write!(Escaper::new(&mut *out), "{subject}")?;
    } else {
        write!(out, "{subject}")?;
    }
    out.write_str(newline)?;
    if count == 0 {
        out.write_str("  (no rules applied)")?;
        return out.write_str(newline);
    }
    let digits = count.ilog10() as usize + 1;
    // "  ", the number right-aligned in `digits` columns, ". ".
    let mut head = [b' '; 24];
    head[2 + digits..4 + digits].copy_from_slice(b". ");
    for (n, (rule, detail)) in (1usize..).zip(steps) {
        let mut rest = n;
        for slot in head[2..2 + digits].iter_mut().rev() {
            *slot = if rest == 0 {
                b' '
            } else {
                b'0' + (rest % 10) as u8
            };
            rest /= 10;
        }
        out.write_str(std::str::from_utf8(&head[..4 + digits]).expect("ASCII"))?;
        text(out, rule)?;
        write_spaces(out, width - rule.chars().count() + 2)?;
        text(out, detail)?;
        out.write_str(newline)?;
    }
    Ok(())
}

fn write_spaces<W: fmt::Write + ?Sized>(out: &mut W, mut n: usize) -> fmt::Result {
    const SPACES: &str = "                                ";
    while n > 0 {
        let chunk = n.min(SPACES.len());
        out.write_str(&SPACES[..chunk])?;
        n -= chunk;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_numbered_and_aligned() {
        let mut trace = DecisionTrace::new("203.0.113.0/24");
        trace.push("bgp.origins", "announced by AS65001");
        trace.push("radix.lpm", "covering chain has 2 blocks");
        trace.push("whois.direct_owner", "Example Networks (allocation)");
        let text = trace.render();
        assert_eq!(
            text,
            "203.0.113.0/24\n\
             \x20 1. bgp.origins         announced by AS65001\n\
             \x20 2. radix.lpm           covering chain has 2 blocks\n\
             \x20 3. whois.direct_owner  Example Networks (allocation)\n"
        );
        assert!(trace.used("radix.lpm"));
        assert!(!trace.used("cluster.merge"));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let trace = DecisionTrace::new("198.51.100.0/24");
        assert_eq!(trace.render(), "198.51.100.0/24\n  (no rules applied)\n");
    }

    /// `render` before the shared writer: one `format!` per line. Kept as
    /// the layout's reference.
    fn reference_render(trace: &DecisionTrace) -> String {
        let mut out = String::new();
        out.push_str(&trace.subject);
        out.push('\n');
        let width = trace.steps.iter().map(|s| s.rule.len()).max().unwrap_or(0);
        let digits = trace.steps.len().to_string().len();
        for (i, step) in trace.steps.iter().enumerate() {
            out.push_str(&format!(
                "  {:>digits$}. {:width$}  {}\n",
                i + 1,
                step.rule,
                step.detail,
            ));
        }
        if trace.steps.is_empty() {
            out.push_str("  (no rules applied)\n");
        }
        out
    }

    /// Property: for traces of 0, 1, 9, 10, 11 and 100 steps, with rules of
    /// unequal length (some non-ASCII) and details holding quotes,
    /// backslashes, control bytes, tabs, non-ASCII text and the empty
    /// string, the writer reproduces the reference layout, and written
    /// through the JSON escaper it is the escaped reference text.
    #[test]
    fn write_trace_matches_the_reference_layout_as_text_and_json() {
        let rules = [
            "bgp.origins",
            "radix.lpm",
            "whois.delegated_customer",
            "r",
            "rpki.rov",
            "règle.déléguée",
            "",
        ];
        let mut counts = [0usize; 6];
        p2o_util::check::run_cases(240, |g| {
            let which = g.below(6);
            counts[which] += 1;
            let len = [0, 1, 9, 10, 11, 100][which];
            let mut trace = DecisionTrace::new(g.unicode_string(20));
            for _ in 0..len {
                let rule = match g.below(4) {
                    0 => g.unicode_string(12),
                    _ => g.pick(&rules).to_string(),
                };
                let mut detail = String::new();
                for _ in 0..g.below(6) {
                    match g.below(5) {
                        0 => detail.push(char::from(g.below(0x20) as u8)),
                        1 => detail.push(*g.pick(&['"', '\\', '\t', '\u{7f}'])),
                        _ => detail.push_str(&g.unicode_string(8)),
                    }
                }
                trace.push(rule, detail);
            }
            let want = reference_render(&trace);
            assert_eq!(trace.render(), want);

            let mut json = String::new();
            let steps = trace
                .steps
                .iter()
                .map(|s| (s.rule.as_str(), s.detail.as_str()));
            write_trace_json(&mut json, &trace.subject, steps).unwrap();
            let mut escaped = String::new();
            p2o_util::json::write_escaped(&mut escaped, &want).unwrap();
            assert_eq!(json, escaped);
        });
        assert!(counts.iter().all(|&n| n > 0), "{counts:?}");
    }

    #[test]
    fn traces_are_comparable_for_pinning() {
        let mut a = DecisionTrace::new("s");
        a.push("r", "d");
        let mut b = DecisionTrace::new("s");
        b.push("r", "d");
        assert_eq!(a, b);
        b.push("r2", "d2");
        assert_ne!(a, b);
    }
}
