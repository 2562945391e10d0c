//! Figures harness: regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md §3 for the experiment index).
//!
//! The `figures` binary prints each artifact as text and writes the series
//! to `results/*.json`, stamped `modeled` and/or `counted`. Nothing here
//! reads a clock: wall-clock numbers are `perf/`'s, kept in
//! `BENCH_<n>.json`.

pub mod figures;
