//! `tagbreathe-lint` — zero-dependency static analysis for the
//! TagBreathe workspace.
//!
//! The pipeline's maths (phase unwrapping Eq. 3, displacement
//! integration Eq. 4, zero-crossing rates Eq. 5) silently corrupts on
//! float-equality compares, truncating `as` casts and panicking call
//! sites. This crate enforces those correctness conventions statically,
//! with nothing but `std`:
//!
//! * [`lexer`] — a hand-rolled Rust lexer (comments, raw strings, char
//!   vs. lifetime disambiguation) producing a line-annotated token
//!   stream;
//! * [`parser`] — a tolerant Rust-subset parser producing an item model
//!   (fn signatures, impls, use-trees, statement/expression bodies);
//! * [`callgraph`] — a workspace model + heuristic call graph feeding the
//!   semantic rules (panic reachability, unit dataflow, lock discipline,
//!   NaN guarding, atomics discipline);
//! * [`atomics`] — the atomics-discipline pass behind the `atomics`
//!   rule and CLI report: every atomic call site must follow the
//!   ordering protocol declared for it in `[atomics]` in `lint.toml`;
//! * [`rules`] — token-pattern and semantic rules with per-rule severity;
//! * [`sarif`] — a SARIF 2.1.0 emitter for editor/CI integration,
//!   self-validated with the in-tree `tagbreathe_obs::json` checker;
//! * [`baseline`] — the ratchet: existing debt is frozen in
//!   `lint-baseline.txt`, any *new* violation fails the build, and
//!   burn-downs re-freeze at the lower count;
//! * [`config`] — a hand-parsed `lint.toml` (severity overrides, library
//!   crate list, walk exclusions);
//! * [`engine`] — workspace walking and check orchestration.
//!
//! Run it as `cargo run -p tagbreathe-lint -- check` (see `ci.sh`).

#![deny(
    missing_docs,
    unreachable_pub,
    unsafe_code,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod atomics;
pub mod baseline;
pub mod callgraph;
pub mod config;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod source;
pub mod walk;
