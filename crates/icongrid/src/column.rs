//! Column numerics shared by the component models: the Thomas
//! (tridiagonal) solver and implicit vertical diffusion in mass-weighted
//! (conservative) form.
//!
//! This is the "implicit" half of ICON's explicit–implicit
//! predictor–corrector: vertical diffusion operators are unconditionally
//! stable tridiagonal solves over each column, embarrassingly parallel
//! across columns (rayon).

use crate::field::Field3;
use rayon::prelude::*;

/// Columns handed to the pool as one task; they share one scratch column.
const BLOCK: usize = 64;

/// Solve a tridiagonal system in place: `a` sub-, `b` main, `c`
/// super-diagonal, `d` right-hand side (overwritten with the solution).
/// `a[0]` and `c[n-1]` are ignored.
pub fn thomas_solve(a: &[f64], b: &[f64], c: &[f64], d: &mut [f64], scratch: &mut [f64]) {
    let n = d.len();
    debug_assert!(a.len() == n && b.len() == n && c.len() == n && scratch.len() >= n);
    scratch[0] = c[0] / b[0];
    d[0] /= b[0];
    for i in 1..n {
        let m = 1.0 / (b[i] - a[i] * scratch[i - 1]);
        scratch[i] = c[i] * m;
        d[i] = (d[i] - a[i] * d[i - 1]) * m;
    }
    for i in (0..n - 1).rev() {
        d[i] -= scratch[i] * d[i + 1];
    }
}

/// Layer masses `mass_k` and interface couplings `w_k` of
/// [`implicit_diffusion`].
pub enum Layers<'a> {
    /// Index-space diffusion `(I - dt K d2/dk2) x^{n+1} = x^n`: `mass_k = 1`,
    /// `w_k = K dt`, `kappa` in 1/s.
    Unit,
    /// Fixed layer thicknesses `dz` (m), the same in every column:
    /// `mass_k = dz_k`, `w_k = K dt / dz_{k+1/2}`, i.e.
    ///
    /// `dz_k (x_k^{n+1} - x_k^n)/dt = K [(x_{k+1}-x_k)/dz_{k+1/2} - (x_k-x_{k-1})/dz_{k-1/2}]`
    Thickness(&'a [f64]),
    /// Per-cell layer masses `delta` under a *mixing ratio* field:
    /// `mass_k = delta_k`, `w_k = K dt mean_k(delta)`, i.e.
    ///
    /// `delta_k q_k^{n+1} - dt K (q_{k+1}^{n+1} - 2 q_k^{n+1} + q_{k-1}^{n+1}) = delta_k q_k^n`
    ///
    /// The mean layer mass scales the exchange coefficient so the scheme
    /// stays well conditioned for thin layers.
    Mass(&'a Field3),
}

/// Backward-Euler vertical diffusion of every column of `field` with
/// zero-flux boundaries: solves `(M + L) x^{n+1} = M x^n` with
/// `M = diag(mass_k)` and `L` the graph Laplacian of the interface
/// couplings `w_k` that `layers` selects. The flux form telescopes, so the
/// column inventory `sum_k mass_k x_k` is conserved exactly — required for
/// the water, heat and carbon budgets.
///
/// With `active`, column `i` is solved over its first `active[i]` levels
/// only (sea-floor masking); inactive levels are untouched.
pub fn implicit_diffusion(
    field: &mut Field3,
    layers: Layers<'_>,
    active: Option<&[u16]>,
    kappa: f64,
    dt: f64,
) {
    let nlev = field.nlev();
    if nlev < 2 || kappa == 0.0 {
        return;
    }
    debug_assert!(active.is_none_or(|a| a.len() == field.n()));
    let ones = vec![1.0; nlev];
    let mut w = vec![kappa * dt; nlev - 1];
    match layers {
        Layers::Unit => {}
        Layers::Thickness(dz) => {
            debug_assert_eq!(dz.len(), nlev);
            for k in 0..nlev - 1 {
                w[k] /= 0.5 * (dz[k] + dz[k + 1]);
            }
        }
        Layers::Mass(delta) => debug_assert_eq!((delta.n(), delta.nlev()), (field.n(), nlev)),
    }
    field
        .as_mut_slice()
        .par_chunks_mut(nlev * BLOCK)
        .enumerate()
        .for_each(|(block, cols)| {
            let mut scratch = vec![0.0; nlev];
            for (j, col) in cols.chunks_mut(nlev).enumerate() {
                let i = block * BLOCK + j;
                let n = active.map_or(nlev, |a| a[i] as usize);
                let (mass, scale) = match layers {
                    Layers::Unit => (&ones[..], 1.0),
                    Layers::Thickness(dz) => (dz, 1.0),
                    Layers::Mass(delta) => {
                        let d = delta.col(i);
                        (d, d.iter().sum::<f64>() / nlev as f64)
                    }
                };
                diffuse_column(&mut col[..n], mass, &w, scale, &mut scratch);
            }
        });
}

/// One column of [`implicit_diffusion`], in place over `x.len()` levels
/// with couplings `w_k * scale`: the tridiagonal rows `a = -w_{k-1}`,
/// `b = mass_k + w_{k-1} + w_k`, `c = -w_k`, `rhs = mass_k x_k` are formed
/// on the fly and eliminated in [`thomas_solve`]'s operation order, so the
/// two agree bit for bit.
fn diffuse_column(x: &mut [f64], mass: &[f64], w: &[f64], scale: f64, scratch: &mut [f64]) {
    let n = x.len();
    if n < 2 {
        return;
    }
    let mut lower = 0.0;
    for k in 0..n {
        let upper = if k + 1 < n { w[k] * scale } else { 0.0 };
        let (a, b, c) = (-lower, mass[k] + lower + upper, -upper);
        let rhs = x[k] * mass[k];
        if k == 0 {
            scratch[0] = c / b;
            x[0] = rhs / b;
        } else {
            let m = 1.0 / (b - a * scratch[k - 1]);
            scratch[k] = c * m;
            x[k] = (rhs - a * x[k - 1]) * m;
        }
        lower = upper;
    }
    for k in (0..n - 1).rev() {
        x[k] -= scratch[k] * x[k + 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-column inventory `sum_k mass_k x_k`.
    fn inventory(f: &Field3, mass: impl Fn(usize, usize) -> f64) -> Vec<f64> {
        (0..f.n())
            .map(|i| {
                f.col(i)
                    .iter()
                    .enumerate()
                    .map(|(k, x)| x * mass(i, k))
                    .sum()
            })
            .collect()
    }

    fn assert_close(before: &[f64], after: &[f64]) {
        for (b, a) in before.iter().zip(after) {
            assert!((b - a).abs() < 1e-9 * b.abs().max(1.0), "{b} vs {a}");
        }
    }

    #[test]
    fn thomas_matches_dense_solution() {
        // Two small diagonally dominant systems; verify A x = rhs row by row.
        let systems = [
            (
                [0.0, -1.0, -2.0, -1.0],
                [4.0, 5.0, 6.0, 4.0],
                [-1.0, -2.0, -1.0, 0.0],
                [1.0, -2.0, 3.0, 0.5],
            ),
            (
                [0.0, -1.0, -1.0, -1.0],
                [2.0, 2.5, 2.5, 2.0],
                [-1.0, -1.0, -1.0, 0.0],
                [1.0, 2.0, 3.0, 4.0],
            ),
        ];
        for (a, b, c, rhs) in systems {
            let mut d = rhs;
            let mut s = [0.0; 4];
            thomas_solve(&a, &b, &c, &mut d, &mut s);
            for i in 0..4 {
                let mut acc = b[i] * d[i];
                if i > 0 {
                    acc += a[i] * d[i - 1];
                }
                if i < 3 {
                    acc += c[i] * d[i + 1];
                }
                assert!((acc - rhs[i]).abs() < 1e-12, "row {i}: {acc} vs {}", rhs[i]);
            }
        }
    }

    #[test]
    fn every_layer_shape_conserves_its_inventory() {
        let mut f = Field3::from_fn(5, 8, |i, k| (i * 8 + k) as f64);
        let before = inventory(&f, |_, _| 1.0);
        implicit_diffusion(&mut f, Layers::Unit, None, 0.3, 100.0);
        assert_close(&before, &inventory(&f, |_, _| 1.0));

        let dz = [10.0, 20.0, 40.0, 80.0];
        let mut f = Field3::from_fn(3, 4, |i, k| (i + k * k) as f64);
        let before = inventory(&f, |_, k| dz[k]);
        implicit_diffusion(&mut f, Layers::Thickness(&dz), None, 1e-3, 1e6);
        assert_close(&before, &inventory(&f, |_, k| dz[k]));

        let delta = Field3::from_fn(4, 6, |i, k| 50.0 + (i * 6 + k) as f64 * 10.0);
        let mut q = Field3::from_fn(4, 6, |i, k| ((i + 2 * k) % 5) as f64 * 0.1);
        let before = inventory(&q, |i, k| delta.at(i, k));
        implicit_diffusion(&mut q, Layers::Mass(&delta), None, 0.01, 500.0);
        assert_close(&before, &inventory(&q, |i, k| delta.at(i, k)));
        // And it actually mixed something.
        assert!(q.max() < 0.4 + 1e-12);
    }

    #[test]
    fn uniform_column_is_a_fixed_point_of_every_layer_shape() {
        let dz = [5.0, 15.0, 30.0, 60.0, 90.0];
        let delta = Field3::from_fn(2, 5, |_, k| 100.0 + k as f64);
        let shapes = [
            (Layers::Unit, 1.0, 500.0),
            (Layers::Thickness(&dz), 1.0, 1e5),
            (Layers::Mass(&delta), 1.0, 100.0),
        ];
        for (layers, kappa, dt) in shapes {
            let mut f = Field3::from_fn(2, 5, |_, _| 3.3);
            implicit_diffusion(&mut f, layers, None, kappa, dt);
            for v in f.as_slice() {
                assert!((v - 3.3).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn diffusion_smooths_extremes() {
        let mut f = Field3::zeros(1, 9);
        *f.at_mut(0, 4) = 1.0;
        implicit_diffusion(&mut f, Layers::Unit, None, 0.5, 1.0);
        assert!(f.at(0, 4) < 1.0);
        assert!(f.at(0, 3) > 0.0 && f.at(0, 5) > 0.0);
        // Monotone decay from the peak.
        assert!(f.at(0, 3) > f.at(0, 2));
    }

    #[test]
    fn strong_diffusion_homogenizes() {
        let mut f = Field3::from_fn(1, 4, |_, k| k as f64);
        for _ in 0..200 {
            implicit_diffusion(&mut f, Layers::Unit, None, 10.0, 10.0);
        }
        let mean = 1.5;
        for k in 0..4 {
            assert!(
                (f.at(0, k) - mean).abs() < 1e-3,
                "level {k}: {}",
                f.at(0, k)
            );
        }
    }

    #[test]
    fn masked_diffusion_leaves_inactive_levels_alone() {
        let dz = [10.0, 10.0, 10.0, 10.0];
        let mut f = Field3::from_fn(2, 4, |_, k| k as f64);
        let active = [2u16, 4u16];
        let before = f.clone();
        implicit_diffusion(&mut f, Layers::Thickness(&dz), Some(&active), 1e-2, 1e5);
        // Column 0: levels 2,3 untouched.
        assert_eq!(f.at(0, 2), before.at(0, 2));
        assert_eq!(f.at(0, 3), before.at(0, 3));
        // Column 0 levels 0,1 mixed toward each other.
        assert!(f.at(0, 0) > before.at(0, 0));
        assert!(f.at(0, 1) < before.at(0, 1));
        // Column 1: all levels mixed.
        assert!(f.at(1, 3) < before.at(1, 3));
    }

    #[test]
    fn columns_past_the_first_block_use_their_own_mass_and_prefix() {
        // More columns than one BLOCK, each with its own depth and masses:
        // every column must equal the same column solved on its own.
        let (n, nlev) = (2 * BLOCK + 3, 6);
        let delta = Field3::from_fn(n, nlev, |i, k| 10.0 + ((i * 7 + k * 3) % 11) as f64);
        let active: Vec<u16> = (0..n).map(|i| (i % (nlev + 1)) as u16).collect();
        let init = Field3::from_fn(n, nlev, |i, k| ((i + 1) * (k + 2) % 13) as f64);
        let mut all = init.clone();
        implicit_diffusion(&mut all, Layers::Mass(&delta), Some(&active), 0.02, 300.0);
        for i in 0..n {
            let mut one = Field3::from_fn(1, nlev, |_, k| init.at(i, k));
            let d = Field3::from_fn(1, nlev, |_, k| delta.at(i, k));
            implicit_diffusion(
                &mut one,
                Layers::Mass(&d),
                Some(&active[i..=i]),
                0.02,
                300.0,
            );
            assert_eq!(one.col(0), all.col(i), "column {i}");
        }
    }
}
