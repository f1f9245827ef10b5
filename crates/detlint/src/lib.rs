//! `pls-detlint` — determinism static analysis for the workspace.
//!
//! Every result in this reproduction rests on all three executives
//! committing byte-identical histories. That property was previously
//! guarded only at runtime (the `detcheck` golden diff), which — like any
//! dynamic checker — can only catch hazards on paths a test happens to
//! execute. This crate rejects nondeterminism *at the source level*,
//! checking only what rustc and clippy cannot (`clippy.toml`, the
//! per-crate clippy pass in `scripts/check.sh` and
//! `#![forbid(unsafe_code)]` check the rest; the mutation table in
//! `docs/LINTS.md` records which checker kills which bug):
//!
//! * a [rule engine](crate::engine) over a hand-rolled [lexer]: the
//!   lexical rule [`RuleId::D003`], inline `// detlint: allow(D0xx,
//!   reason)` waivers and a `--json` machine report;
//! * a recursive-descent [item parser](crate::parser) and an
//!   intra-workspace [call graph](crate::callgraph), under the flow
//!   analysis [`RuleId::D011`], interprocedural nondeterminism-taint
//!   dataflow ([`crate::dataflow`]).
//!
//! Each rule is one row of [`rules::RULES`]. See `docs/LINTS.md` for the
//! rule catalog and waiver syntax.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod dataflow;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod rules;

pub use engine::{
    analyze_sources, analyze_workspace, in_scope, to_json, to_text, FileIssue, Finding, Report,
    KERNEL_CRATES,
};
pub use rules::RuleId;
