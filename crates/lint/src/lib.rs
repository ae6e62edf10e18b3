//! `oasis-lint`: workspace static analysis for the Oasis reproduction.
//!
//! The simulator's headline property is bit-reproducibility: a fixed seed
//! yields a byte-identical event stream. That property is easy to destroy
//! with a single stray `Instant::now()`, an order-dependent `HashMap`
//! iteration in the placement planner, or a foreign RNG. This crate turns
//! those invariants — plus panic-hygiene on the fault/fetch hot path,
//! byte-arithmetic unit safety and library print-hygiene — into
//! CI-enforced rules.
//!
//! The pass depends only on `oasis-sim`'s `WorkerPool`. It lexes every
//! Rust source in the workspace with a comment/string/raw-string-aware
//! tokenizer (rules never fire inside doc comments or string literals),
//! skips `#[cfg(test)]` / `#[test]` regions and test-context directories
//! (`tests/`, `benches/`, `examples/`), and supports per-site suppression
//! pragmas:
//!
//! ```text
//! // oasis-lint: allow(panic-hygiene, "state machine invariant: ...")
//! ```
//!
//! An `allow` pragma suppresses findings of the named rule on its own
//! line or the line directly below, and must carry a non-empty reason.
//! A `boundary(<rule>, "<reason>")` pragma attaches to the function
//! declared directly below it: it suppresses the rule throughout that
//! function *and* stops determinism taint of the matching kind from
//! propagating through it in the workspace call graph (see below). Stale
//! pragmas (matching nothing and blocking nothing), malformed and
//! unknown-rule pragmas are findings themselves, so suppressions stay
//! honest.
//!
//! Beyond the per-site rules, v2 runs a workspace **determinism taint
//! analysis**: a lightweight parser ([`parse`]) recovers every function
//! and call site, [`graph`] links them into a conservative call graph
//! across all crates, and [`taint`] propagates wall-clock / foreign-RNG
//! / hash-iteration / env-read sources along reversed call edges. Any
//! decision-path function that can transitively reach a source without
//! an intervening boundary pragma is a `determinism-taint` finding, with
//! a deterministic witness path in the message.
//!
//! Run with `cargo run -p oasis-lint`; `--format=json` emits the
//! machine-readable report CI uploads. The per-file phase runs on
//! `WorkerPool::from_env()`, so `OASIS_JOBS` sets its worker count.

pub mod engine;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod taint;

/// One rule violation (or pragma-health problem) at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Rule identifier (e.g. `wall-clock`).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl core::fmt::Display for Finding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}
