//! Bitwise oracles for the tables that hold values fixed for a cell, a
//! level, the grid or the step: every entry must equal, bit for bit, the
//! per-element expression it replaced, over every cell and level.
//!
//! Each oracle below is written out as the loop body computed it before
//! the value was tabled, so a table filled in another order or from other
//! operands fails here even when the model's tests still pass.

use esm_core::solar;
use esm_core::{CoupledEsm, EsmConfig};
use icongrid::geom::Vec3;
use icongrid::ops::{self, CGrid};
use icongrid::{Decomposition, Field2, Field3, Grid, SubGrid};

fn bits3(m: &[[f64; 3]; 3]) -> [[u64; 3]; 3] {
    m.map(|row| row.map(f64::to_bits))
}

/// The reconstruction matrix inverse as `reconstruct_cell_vectors` formed
/// it per cell and call: `sum n n^T + r r^T` accumulated normal by normal
/// then the center, inverted by cofactors.
fn inverse_per_element<G: CGrid>(g: &G, c: usize) -> [[f64; 3]; 3] {
    let outer = |m: &mut [[f64; 3]; 3], v: &Vec3| {
        let a = [v.x, v.y, v.z];
        for i in 0..3 {
            for j in 0..3 {
                m[i][j] += a[i] * a[j];
            }
        }
    };
    let mut m = [[0.0f64; 3]; 3];
    let ns: Vec<Vec3> = g
        .cell_edges(c)
        .iter()
        .map(|&e| g.edge_normal(e as usize))
        .collect();
    for n in &ns {
        outer(&mut m, n);
    }
    outer(&mut m, &g.cell_center(c));
    let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
    let inv_det = 1.0 / det;
    [
        [
            (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_det,
            (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_det,
            (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_det,
        ],
        [
            (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_det,
            (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_det,
            (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_det,
        ],
        [
            (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_det,
            (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_det,
            (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_det,
        ],
    ]
}

fn assert_inverse_table<G: CGrid>(g: &G, label: &str) {
    for c in 0..g.n_cells() {
        assert_eq!(
            bits3(&g.cell_recon_inverse(c)),
            bits3(&inverse_per_element(g, c)),
            "{label}: cell {c}"
        );
    }
}

#[test]
fn reconstruction_inverse_table_matches_the_per_cell_inverse_on_grids() {
    for bisections in 2..=4 {
        let g = Grid::build(bisections, icongrid::EARTH_RADIUS_M);
        assert_inverse_table(&g, &format!("b{bisections} grid"));
    }
}

#[test]
fn reconstruction_inverse_table_matches_the_per_cell_inverse_on_subgrids() {
    let g = Grid::build(3, icongrid::EARTH_RADIUS_M);
    for n_parts in [2, 5] {
        let decomp = Decomposition::new(&g, n_parts);
        for part in 0..n_parts {
            let sg = SubGrid::build(&g, &decomp, part);
            assert_inverse_table(&sg, &format!("part {part} of {n_parts}"));
        }
    }
}

#[test]
fn reconstructed_vectors_match_the_per_cell_reconstruction() {
    let g = Grid::build(3, icongrid::EARTH_RADIUS_M);
    let nlev = 4;
    let vn = Field3::from_fn(g.n_edges, nlev, |e, k| {
        (((e * 2_654_435_761 + k * 97) % 10_007) as f64 - 5_003.0) * 1e-3
    });
    let mut out = [
        Field3::zeros(g.n_cells, nlev),
        Field3::zeros(g.n_cells, nlev),
        Field3::zeros(g.n_cells, nlev),
    ];
    ops::reconstruct_cell_vectors(&g, &vn, &mut out);
    for c in 0..g.n_cells {
        let edges = g.cell_edges[c];
        let minv = inverse_per_element(&g, c);
        for k in 0..nlev {
            let mut rhs = Vec3::ZERO;
            for &e in &edges {
                rhs += g.edge_normal[e as usize].scale(vn.at(e as usize, k));
            }
            let want = [
                minv[0][0] * rhs.x + minv[0][1] * rhs.y + minv[0][2] * rhs.z,
                minv[1][0] * rhs.x + minv[1][1] * rhs.y + minv[1][2] * rhs.z,
                minv[2][0] * rhs.x + minv[2][1] * rhs.y + minv[2][2] * rhs.z,
            ];
            for (d, w) in want.iter().enumerate() {
                assert_eq!(
                    out[d].at(c, k).to_bits(),
                    w.to_bits(),
                    "cell {c} level {k} axis {d}"
                );
            }
        }
    }
}

#[test]
fn insolation_table_matches_sw_down_at_every_cell_and_time() {
    let g = Grid::build(3, icongrid::EARTH_RADIUS_M);
    let mut sun = solar::Insolation::new(&g.cell_center);
    for t in [
        0.0,
        150.0,
        3_600.0,
        21_600.0,
        43_350.0,
        86_400.0,
        1.0e6 + 37.5,
    ] {
        let sw = sun.at(t).to_vec();
        for (c, p) in g.cell_center.iter().enumerate() {
            assert_eq!(
                sw[c].to_bits(),
                solar::sw_down(p, t).to_bits(),
                "cell {c} at t = {t}"
            );
        }
    }
}

/// The coupled model after a few windows, so the tables hold values of
/// a moving state rather than of the initial one.
fn stepped_model() -> CoupledEsm {
    let mut esm = CoupledEsm::new(EsmConfig::tiny());
    esm.run_windows(2, false).unwrap();
    esm
}

#[test]
fn land_q10_tables_match_the_per_pool_powf() {
    let esm = stepped_model();
    let land = &esm.land;
    let p = &land.params;
    let (air, soil) = land.q10_tables();
    assert_eq!(air.len(), land.n_land_cells());
    assert_eq!(soil.len(), land.n_land_cells());
    for i in 0..land.n_land_cells() {
        let t = land.state.t_air[i];
        let want_air = p.q10.powf((t - p.t_resp_ref) / 10.0);
        let t = land.state.t_soil.at(i, 0);
        let want_soil = p.q10.powf((t - p.t_resp_ref) / 10.0);
        assert_eq!(air[i].to_bits(), want_air.to_bits(), "air, land cell {i}");
        assert_eq!(
            soil[i].to_bits(),
            want_soil.to_bits(),
            "soil, land cell {i}"
        );
    }
}

#[test]
fn physics_level_and_surface_tables_match_the_per_column_values() {
    use atmo::physics::PhysicsTables;
    use atmo::AtmParams;
    let esm = stepped_model();
    let p = &esm.atm.params;
    let mut t_surface: Field2 = esm.atm.state.t_surface.clone();
    let mut tables = PhysicsTables::default();
    tables.fill(p, &t_surface);
    // A second fill after some surface temperatures moved must refresh
    // exactly those cells.
    for c in (0..t_surface.len()).step_by(7) {
        t_surface[c] += 0.125 * (c % 5) as f64;
    }
    tables.fill(p, &t_surface);
    let (qsat, o3, qsat_sfc) = tables.tables();
    let nlev = p.nlev;
    for k in 0..nlev {
        let want = AtmParams::q_saturation(p.layer_temp[k]);
        assert_eq!(qsat[k].to_bits(), want.to_bits(), "qsat, level {k}");
        let x = k as f64 / (nlev - 1).max(1) as f64;
        let want = atmo::state::O3_PEAK * (-(x - 0.15) * (x - 0.15) / 0.02).exp();
        assert_eq!(o3[k].to_bits(), want.to_bits(), "o3 target, level {k}");
    }
    for c in 0..t_surface.len() {
        let want = AtmParams::q_saturation(t_surface[c]);
        assert_eq!(
            qsat_sfc[c].to_bits(),
            want.to_bits(),
            "surface qsat, cell {c}"
        );
    }
}

#[test]
fn hamocc_light_table_matches_the_per_level_exp() {
    let esm = stepped_model();
    let bio = &esm.hamocc.bio;
    let (depth_mid, atten) = esm.hamocc.light_levels();
    assert_eq!(depth_mid.len(), esm.ocean.params.nlev);
    assert_eq!(atten.len(), depth_mid.len());
    for (k, (&d, &a)) in depth_mid.iter().zip(atten).enumerate() {
        assert_eq!(a.to_bits(), (-bio.k_light * d).exp().to_bits(), "level {k}");
        // `sw * 0.43 * atten` keeps the association of the inline form.
        let sw = 217.3;
        assert_eq!(
            (sw * 0.43 * a).to_bits(),
            (sw * 0.43 * (-bio.k_light * d).exp()).to_bits(),
            "par, level {k}"
        );
    }
}
