#![warn(missing_docs)]

//! Validation harness for Prefix2Org (paper §7 and §8.2).
//!
//! - [`metrics`] — per-organization precision/recall against IP range lists
//!   (Tables 5/6/13/14), with the paper's containment semantics: a predicted
//!   prefix counts as a true positive when it equals or is a sub-prefix of a
//!   ground-truth prefix, and true positives can therefore exceed the true
//!   prefix count (Appendix C note);
//! - [`roa`] — the AS-centric vs prefix-centric ROA-coverage comparison of
//!   Table 7.

pub mod metrics;
pub mod roa;

pub use metrics::{evaluate_org, score_list, OrgValidation, ValidationReport};
pub use roa::{roa_coverage, RoaCoverageRow};
