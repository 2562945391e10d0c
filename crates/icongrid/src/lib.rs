//! Icosahedral-triangular C-grid substrate for ICON-ESM-RS.
//!
//! This crate reproduces the grid family used by ICON ([Giorgetta et al.
//! 2018]): a spherical icosahedron refined by one root division (`R2`) and
//! `k` recursive edge bisections (`B`*k*), carrying prognostic variables on a
//! staggered Arakawa C-grid (scalars at triangle circumcenters, normal
//! velocities at edge midpoints, vorticity at vertices of the hexagonal dual
//! mesh).
//!
//! Provided here:
//!
//! * [`geom`] — 3-vector and spherical geometry primitives,
//! * [`icosahedron`] — the base solid,
//! * [`refine`] — recursive bisection preserving a space-filling-curve cell
//!   order (children of a triangle are emitted consecutively),
//! * [`grid`] — the assembled [`Grid`](grid::Grid) with full topology and
//!   C-grid geometry (circumcenters, primal/dual edge lengths, orientation
//!   signs),
//! * [`vertical`] — stretched ocean depth levels,
//! * [`mask`] — deterministic synthetic Earth-like land–sea masks
//!   (substitute for observed topography, see DESIGN.md),
//! * [`field`] — dense column-major field containers,
//! * [`column`] — the one tridiagonal solver and implicit vertical
//!   diffusion operator under atmosphere, land, ocean and HAMOCC,
//! * [`transport`] — the one upwind flux-form tracer transport kernel
//!   under atmosphere, ocean and HAMOCC,
//! * [`ops`] — discrete C-grid operators (divergence, gradient, curl,
//!   kinetic-energy gather, vector reconstruction),
//! * [`decomp`] — space-filling-curve domain decomposition with
//!   vertex-ring halos and precomputed exchange lists,
//! * [`subgrid`] — per-rank local grids with local numbering.

pub mod column;
pub mod decomp;
pub mod exchange;
pub mod field;
pub mod geom;
pub mod grid;
pub mod icosahedron;
pub mod mask;
pub mod ops;
pub mod refine;
pub mod subgrid;
pub mod transport;
pub mod vertical;

pub use decomp::Decomposition;
pub use exchange::{Exchange, NoExchange};
pub use field::{Field2, Field3};
pub use geom::Vec3;
pub use grid::Grid;
pub use mask::LandSeaMask;
pub use subgrid::SubGrid;
pub use vertical::OceanLevels;

/// Mean Earth radius in metres, as used by ICON.
pub const EARTH_RADIUS_M: f64 = 6.371e6;

/// Number of cells of an ICON `R2B(k)` grid: `20 * 2^2 * 4^k`.
///
/// Matches Table 2 of the paper: `R2B8` = 5 242 880 cells (10 km nominal),
/// `R2B11` = 335 544 320 cells (1.25 km nominal).
pub const fn r2b_cell_count(k: u32) -> u64 {
    80 * 4u64.pow(k)
}

/// Nominal resolution (km) of an `R2B(k)` grid: sqrt of the mean cell area.
pub fn r2b_nominal_resolution_km(k: u32) -> f64 {
    let area_m2 = 4.0 * std::f64::consts::PI * EARTH_RADIUS_M * EARTH_RADIUS_M;
    (area_m2 / r2b_cell_count(k) as f64).sqrt() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r2b_cell_counts_match_table2() {
        assert_eq!(r2b_cell_count(8), 5_242_880); // 10 km config: 0.05e8 cells
        assert_eq!(r2b_cell_count(11), 335_544_320); // 1.25 km config: 3.36e8 cells
    }

    #[test]
    fn r2b_nominal_resolutions() {
        // Table 2 calls R2B8 "10 km" and R2B11 "1.25 km"; the sqrt-mean-area
        // definition gives values close to those labels.
        let r8 = r2b_nominal_resolution_km(8);
        let r11 = r2b_nominal_resolution_km(11);
        assert!((r8 - 9.9).abs() < 0.4, "R2B8 => {r8} km");
        assert!((r11 - 1.24).abs() < 0.05, "R2B11 => {r11} km");
        // Each bisection halves the nominal resolution.
        assert!((r8 / r2b_nominal_resolution_km(9) - 2.0).abs() < 1e-12);
    }
}
