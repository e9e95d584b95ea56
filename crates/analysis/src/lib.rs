//! Repo-specific static analysis for the GVFS workspace: a source lint
//! pass keyed to the consistency protocol's concurrency discipline; an
//! explicit-state model checker for the delegation, invalidation,
//! WAN-breaker and recall fan-out machines and for their composed
//! product; and trace-conformance replay of recorded runs. Each
//! protocol rule those checkers share is stated once, in [`spec`]. The
//! `gvfs-analysis` binary (`src/main.rs`) is the CI entry point; this
//! library exists so the checks themselves are testable
//! (`tests/self_check.rs` proves the lint catches seeded violations and
//! pins how much of each machine the checker explores).

pub mod lexer;
pub mod lint;
pub mod model;
pub mod product;
pub mod replay;
pub mod spec;
