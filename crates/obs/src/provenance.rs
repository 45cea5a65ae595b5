//! Decision provenance: the rule chain behind one pipeline answer.
//!
//! The paper's validation (§5) hinges on being able to audit *why* a
//! prefix was assigned its Direct Owner and Delegated Customers — which
//! covering delegations were consulted, which radix LPM nodes were
//! walked, which WHOIS org matched, which merge joined the clusters.
//! A [`DecisionTrace`] captures that chain as ordered, human-readable
//! steps; `p2o explain <prefix>` renders it.
//!
//! A step is anything that implements [`TraceStep`]: a rule name plus a
//! writer for its detail. This crate sits below `p2o-whois`/`p2o-core` in
//! the dependency graph, so the domain layers define their own typed steps
//! (`p2o_core::Step`) and write each detail from the facts the step holds;
//! a `(rule, detail)` pair of strings is a step too. Unlike span
//! timestamps, a decision trace is fully deterministic for a deterministic
//! input — tests pin rendered traces verbatim.
//!
//! [`write_trace`] is the one place that knows how a trace is laid out as
//! text. [`DecisionTrace::render`] uses it, and so does every surface that
//! prints a trace the frozen dataset renders from its records.
//! [`write_trace_json`] writes the same text as one JSON string literal in
//! the same single pass: a step writes its detail into a [`DetailSink`],
//! which keeps the step's own text apart from the names it carries, so
//! only the names go through the escaper.

use std::fmt::{self, Write as _};

use p2o_util::json::Escaper;

/// One applied rule in a decision chain: its identifier and a writer for
/// the human-readable detail of what it matched and produced.
pub trait TraceStep {
    /// Short rule identifier (e.g. `radix.lpm`, `whois.direct_owner`).
    fn rule(&self) -> &str;
    /// Writes the step's detail into `out`.
    fn write_detail<W: fmt::Write + ?Sized>(&self, out: &mut DetailSink<'_, W>) -> fmt::Result;
}

impl<T: TraceStep + ?Sized> TraceStep for &T {
    fn rule(&self) -> &str {
        (**self).rule()
    }

    fn write_detail<W: fmt::Write + ?Sized>(&self, out: &mut DetailSink<'_, W>) -> fmt::Result {
        (**self).write_detail(out)
    }
}

/// A step given as text: `(rule, detail)`. The detail is a name: nothing
/// is known about its bytes.
impl<R: AsRef<str>, D: AsRef<str>> TraceStep for (R, D) {
    fn rule(&self) -> &str {
        self.0.as_ref()
    }

    fn write_detail<W: fmt::Write + ?Sized>(&self, out: &mut DetailSink<'_, W>) -> fmt::Result {
        out.name(self.1.as_ref())
    }
}

/// Where a step writes its detail, as plain text or as the body of a JSON
/// string literal. A detail has three kinds of piece, kept apart so that
/// JSON escapes only what can need it:
///
/// - the step's own text, written through [`fmt::Write`] (so
///   `Prefix::write_to` and `p2o_util::json::write_u64` write into the
///   sink directly). It comes from the code, never from the data, and holds
///   no quote mark, backslash or control byte, so it is written as it is
///   either way;
/// - a name the step carries ([`name`](Self::name)): an organization, a
///   label, a certificate, merge evidence — anything read from the data.
///   JSON sends it through the [`Escaper`];
/// - the quote marks around a name ([`quoted`](Self::quoted)): `\"` in
///   JSON.
pub struct DetailSink<'a, W: ?Sized> {
    out: &'a mut W,
    json: bool,
}

impl<'a, W: fmt::Write + ?Sized> DetailSink<'a, W> {
    /// Writes every piece into `out` as it is: the text `explain` prints.
    pub fn text(out: &'a mut W) -> Self {
        DetailSink { out, json: false }
    }

    /// Writes the pieces into `out` as the body of a JSON string literal.
    pub fn json(out: &'a mut W) -> Self {
        DetailSink { out, json: true }
    }

    /// Writes a name: as it is in text, escaped in JSON.
    pub fn name(&mut self, name: &str) -> fmt::Result {
        if self.json {
            Escaper::new(&mut *self.out).write_str(name)
        } else {
            self.out.write_str(name)
        }
    }

    /// Writes a name between quote marks.
    pub fn quoted(&mut self, name: &str) -> fmt::Result {
        let quote = if self.json { "\\\"" } else { "\"" };
        self.out.write_str(quote)?;
        self.name(name)?;
        self.out.write_str(quote)
    }
}

/// The step's own text, written as it is.
impl<W: fmt::Write + ?Sized> fmt::Write for DetailSink<'_, W> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.out.write_str(text)
    }
}

/// The ordered rule chain that produced one answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionTrace<S> {
    /// What is being explained (e.g. the prefix under resolution).
    pub subject: String,
    /// Applied rules, in application order.
    pub steps: Vec<S>,
}

impl<S> DecisionTrace<S> {
    /// An empty trace for `subject`.
    pub fn new(subject: impl Into<String>) -> DecisionTrace<S> {
        DecisionTrace {
            subject: subject.into(),
            steps: Vec::new(),
        }
    }

    /// Appends a step.
    pub fn push(&mut self, step: S) {
        self.steps.push(step);
    }
}

impl<S: TraceStep> DecisionTrace<S> {
    /// Whether any step used rule `rule`.
    pub fn used(&self, rule: &str) -> bool {
        self.steps.iter().any(|s| s.rule() == rule)
    }

    /// Renders the chain as [`write_trace`] lays it out.
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_trace(&mut out, &self.subject, self.steps.iter()).expect("String writes succeed");
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
pub fn write_trace<W, I>(out: &mut W, subject: &str, steps: I) -> fmt::Result
where
    W: fmt::Write + ?Sized,
    I: Iterator + Clone,
    I::Item: TraceStep,
{
    write_lines(&mut DetailSink::text(out), subject, steps)
}

/// [`write_trace`]'s text as one JSON string literal, escaped as
/// [`write_escaped`](p2o_util::json::write_escaped) escapes a string.
pub fn write_trace_json<W, I>(out: &mut W, subject: &str, steps: I) -> fmt::Result
where
    W: fmt::Write + ?Sized,
    I: Iterator + Clone,
    I::Item: TraceStep,
{
    out.write_char('"')?;
    write_lines(&mut DetailSink::json(out), subject, steps)?;
    out.write_char('"')
}

/// The layout behind [`write_trace`] and [`write_trace_json`]: one pass
/// over `steps` for the widths, one to write. It runs once per served
/// answer, so every piece goes straight to `out` with no formatting
/// machinery and no line buffer. The subject and the rules are names, as
/// anything a caller passes may be; numbers, padding and newlines are the
/// layout's own text.
fn write_lines<W, I>(out: &mut DetailSink<'_, W>, subject: &str, steps: I) -> fmt::Result
where
    W: fmt::Write + ?Sized,
    I: Iterator + Clone,
    I::Item: TraceStep,
{
    let newline = if out.json { "\\n" } else { "\n" };
    let (count, width) = steps.clone().fold((0usize, 0usize), |(n, w), step| {
        (n + 1, w.max(step.rule().len()))
    });
    out.name(subject)?;
    out.write_str(newline)?;
    if count == 0 {
        out.write_str("  (no rules applied)")?;
        return out.write_str(newline);
    }
    let digits = count.ilog10() as usize + 1;
    // "  ", the number right-aligned in `digits` columns, ". ".
    let mut head = [b' '; 24];
    head[2 + digits..4 + digits].copy_from_slice(b". ");
    for (n, step) in (1usize..).zip(steps) {
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
        let rule = step.rule();
        out.name(rule)?;
        write_spaces(out, width - rule.chars().count() + 2)?;
        step.write_detail(out)?;
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
        trace.push(("bgp.origins", "announced by AS65001"));
        trace.push(("radix.lpm", "covering chain has 2 blocks"));
        trace.push(("whois.direct_owner", "Example Networks (allocation)"));
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
        let trace = DecisionTrace::<(&str, &str)>::new("198.51.100.0/24");
        assert_eq!(trace.render(), "198.51.100.0/24\n  (no rules applied)\n");
    }

    /// `render` before the shared writer: one `format!` per line. Kept as
    /// the layout's reference.
    fn reference_render(trace: &DecisionTrace<(String, String)>) -> String {
        let mut out = String::new();
        out.push_str(&trace.subject);
        out.push('\n');
        let width = trace.steps.iter().map(|s| s.0.len()).max().unwrap_or(0);
        let digits = trace.steps.len().to_string().len();
        for (i, step) in trace.steps.iter().enumerate() {
            out.push_str(&format!(
                "  {:>digits$}. {:width$}  {}\n",
                i + 1,
                step.0,
                step.1,
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
                trace.push((rule, detail));
            }
            let want = reference_render(&trace);
            assert_eq!(trace.render(), want);

            let mut json = String::new();
            write_trace_json(&mut json, &trace.subject, trace.steps.iter()).unwrap();
            let mut escaped = String::new();
            p2o_util::json::write_escaped(&mut escaped, &want).unwrap();
            assert_eq!(json, escaped);
        });
        assert!(counts.iter().all(|&n| n > 0), "{counts:?}");
    }

    #[test]
    fn traces_are_comparable_for_pinning() {
        let mut a = DecisionTrace::new("s");
        a.push(("r", "d"));
        let mut b = DecisionTrace::new("s");
        b.push(("r", "d"));
        assert_eq!(a, b);
        b.push(("r2", "d2"));
        assert_ne!(a, b);
    }
}
