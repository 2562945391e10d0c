//! Tier-1 compiles what the frozen benchmark compiles.
//!
//! `perf/` is a package of its own, so `cargo test -q` at the root never
//! builds it, and a change to an API it pins used to surface only when
//! the benchmark driver ran. `perf/src/layers.rs` is the harness's whole
//! dependence on this repository (the table at its top lists every pinned
//! item) and is self-contained, so including it here makes any such
//! change a compile error of this test binary instead.

#[allow(dead_code)]
#[path = "../perf/src/layers.rs"]
mod layers;

#[test]
fn the_harness_view_of_the_repo_builds_and_reads_a_model() {
    let dims = layers::Model::new(2, 2020).dims();
    assert_eq!(dims.n_cells, 20 * 4usize.pow(2));
    assert!(dims.n_wet_cells > 0 && dims.n_wet_cells < dims.n_cells);
    assert!(dims.n_tracers > 0);
}
