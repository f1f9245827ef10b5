//! `pls-detlint` — determinism static analysis for the workspace.
//!
//! Every result in this reproduction rests on all three executives
//! committing byte-identical histories. That property was previously
//! guarded only at runtime (the `detcheck` golden diff), which — like any
//! dynamic checker — can only catch hazards on paths a test happens to
//! execute. This crate rejects nondeterminism *at the source level*:
//!
//! * a [rule engine](crate::engine) over a hand-rolled
//!   [lexer]: lexical rules [`RuleId::D001`]–
//!   [`RuleId::D005`] and [`RuleId::D007`], with inline
//!   `// detlint: allow(D00x, reason)` waivers and `--json` / `--sarif`
//!   machine reports;
//! * a structural layer — a recursive-descent [item
//!   parser](crate::parser), an intra-workspace [call
//!   graph](crate::callgraph), and [reachability
//!   rules](crate::structural) [`RuleId::D006`] (rollback soundness)
//!   and [`RuleId::D008`] (probe purity) seeded at every
//!   `Application`/`Probe` impl;
//! * a flow layer on top of the call graph — [`RuleId::D009`]
//!   lock/channel protocol analysis ([`crate::concurrency`]),
//!   [`RuleId::D010`] GVT phase discipline over `// detlint: phase(...)`
//!   annotations ([`crate::phase`]), and [`RuleId::D011`] interprocedural
//!   nondeterminism-taint dataflow ([`crate::dataflow`]);
//! * a [self-test](crate::selftest) (`--self-test`) that re-injects
//!   seeded bug shapes and fails unless the rules catch them;
//! * a front-end (`pls-detlint mc`) for the exhaustive interleaving
//!   model checker in [`pls_timewarp::modelcheck`], which proves the
//!   threaded executive's flush-and-barrier GVT and 4-phase migration
//!   protocol safe under *all* schedules at small bounds.
//!
//! See `docs/LINTS.md` for the rule catalog and waiver syntax.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod concurrency;
pub mod dataflow;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod phase;
pub mod rules;
pub mod sarif;
pub mod selftest;
pub mod structural;

pub use engine::{
    analyze_source, analyze_sources, analyze_workspace, changed_files, retain_files, rules_for,
    to_json, to_text, FileIssue, Finding, Report,
};
pub use rules::RuleId;
pub use sarif::to_sarif;
pub use selftest::run_self_test;
