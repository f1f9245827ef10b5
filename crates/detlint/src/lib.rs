//! `pls-detlint` — determinism static analysis for the workspace.
//!
//! Every result in this reproduction rests on all three executives
//! committing byte-identical histories. That property was previously
//! guarded only at runtime (the `detcheck` golden diff), which — like any
//! dynamic checker — can only catch hazards on paths a test happens to
//! execute. This crate rejects nondeterminism *at the source level*,
//! checking only what rustc and clippy cannot (kernel crates are
//! `#![forbid(unsafe_code)]`, and `clippy.toml` denies RandomState maps
//! and host clocks in them):
//!
//! * a [rule engine](crate::engine) over a hand-rolled
//!   [lexer]: lexical rules [`RuleId::D003`], [`RuleId::D004`] and
//!   [`RuleId::D007`], with inline `// detlint: allow(D0xx, reason)`
//!   waivers and a `--json` machine report;
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
//!   seeded bug shapes and fails unless the rules catch them.
//!
//! Each rule is one row of [`rules::RULES`]. See `docs/LINTS.md` for the
//! rule catalog and waiver syntax.

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
pub mod selftest;
pub mod structural;

pub use engine::{
    analyze_source, analyze_sources, analyze_workspace, rules_for, to_json, to_text, FileIssue,
    Finding, Report, KERNEL_CRATES,
};
pub use rules::RuleId;
pub use selftest::run_self_test;
