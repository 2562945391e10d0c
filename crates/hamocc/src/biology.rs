//! The ecosystem source/sink terms: an extended NPZD model in phosphorus
//! currency, column-local (no halo exchange needed).

use crate::tracers::{Tracer, N_TRACERS, REDFIELD_C, REDFIELD_N, REDFIELD_O2};

const PER_DAY: f64 = 1.0 / 86_400.0;

/// Ecosystem rate constants.
#[derive(Debug, Clone)]
pub struct BioParams {
    /// Maximum phytoplankton growth rate (1/s).
    pub mu_max: f64,
    /// Cyanobacteria growth rate (slower, but nitrogen-independent).
    pub mu_cyano: f64,
    /// Half-saturation constants.
    pub k_po4: f64,
    pub k_no3: f64,
    pub k_fe: f64,
    /// Light attenuation (1/m) of seawater plus self-shading.
    pub k_light: f64,
    /// Half-saturation light level (W/m^2).
    pub k_par: f64,
    /// Maximum grazing rate (1/s) and half saturation (kmol P/m^3).
    pub g_max: f64,
    pub k_graze: f64,
    /// Assimilation efficiency of grazing (rest becomes detritus/DOC).
    pub assim: f64,
    /// Mortality rates (1/s).
    pub mort_phy: f64,
    pub mort_zoo: f64,
    /// Remineralization rates (1/s).
    pub remin_det: f64,
    pub remin_doc: f64,
    /// Fraction of primary production forming CaCO3 shells.
    pub calc_fraction: f64,
    /// Fraction forming opal shells (diatoms), consuming silicate.
    pub opal_fraction: f64,
    /// CaCO3 / opal dissolution rates (1/s).
    pub diss_calc: f64,
    pub diss_opal: f64,
    /// DMS yield per primary production and decay rate.
    pub dms_yield: f64,
    pub dms_decay: f64,
}

impl Default for BioParams {
    fn default() -> Self {
        BioParams {
            mu_max: 1.0 * PER_DAY,
            mu_cyano: 0.2 * PER_DAY,
            k_po4: 1.0e-7,
            k_no3: 1.6e-6,
            k_fe: 1.0e-10,
            k_light: 0.06,
            k_par: 30.0,
            g_max: 0.8 * PER_DAY,
            k_graze: 2.0e-8,
            assim: 0.6,
            mort_phy: 0.05 * PER_DAY,
            mort_zoo: 0.06 * PER_DAY,
            remin_det: 0.03 * PER_DAY,
            remin_doc: 0.008 * PER_DAY,
            calc_fraction: 0.06,
            opal_fraction: 0.2,
            diss_calc: 0.002 * PER_DAY,
            diss_opal: 0.005 * PER_DAY,
            dms_yield: 1.0e-3,
            dms_decay: 0.1 * PER_DAY,
        }
    }
}

impl BioParams {
    /// Fraction of the surface light reaching each mid-layer depth:
    /// `exp(-k_light * depth_mid[k])`, a per-level table.
    pub fn light_attenuation(&self, depth_mid: &[f64]) -> Vec<f64> {
        depth_mid.iter().map(|&d| (-self.k_light * d).exp()).collect()
    }
}

/// Apply one step of ecosystem dynamics to a single column.
///
/// `tr` holds the 19 tracer columns (`tr[tracer][level]` layout as
/// mutable slices), `sw_surface` the surface shortwave (W/m^2),
/// `depth_mid[k]` the mid-layer depths, `light_atten` their
/// [`BioParams::light_attenuation`], `n_active` the wet levels.
/// Returns the column's net primary production (kmol P/m^2/s-equivalent
/// summed over levels * dz implied by caller) for diagnostics.
#[allow(clippy::too_many_arguments)]
pub fn ecosystem_column(
    p: &BioParams,
    tr: &mut [&mut [f64]; N_TRACERS],
    dz: &[f64],
    depth_mid: &[f64],
    light_atten: &[f64],
    n_active: usize,
    sw_surface: f64,
    dt: f64,
) -> f64 {
    use Tracer::*;
    let mut npp_total = 0.0;
    for k in 0..n_active {
        let par = sw_surface * 0.43 * light_atten[k];
        let light_lim = par / (par + p.k_par);

        let phy = tr[Phytoplankton.idx()][k];
        let cya = tr[Cyanobacteria.idx()][k];
        let zoo = tr[Zooplankton.idx()][k];
        let po4 = tr[Phosphate.idx()][k];
        let no3 = tr[Nitrate.idx()][k];
        let fe = tr[Iron.idx()][k];
        let si = tr[Silicate.idx()][k];

        // --- primary production (limited by the scarcest resource).
        let lim_p = po4 / (po4 + p.k_po4);
        let lim_n = no3 / (no3 + p.k_no3);
        let lim_fe = fe / (fe + p.k_fe);
        let growth = p.mu_max * light_lim * lim_p.min(lim_n).min(lim_fe) * phy * dt;
        let growth = growth.min(0.5 * po4).min(0.5 * no3 / REDFIELD_N);
        // Cyanobacteria fix N2: no nitrate limitation.
        let growth_cya = (p.mu_cyano * light_lim * lim_p.min(lim_fe) * cya * dt).min(0.2 * po4);

        tr[Phytoplankton.idx()][k] += growth;
        tr[Cyanobacteria.idx()][k] += growth_cya;
        tr[Phosphate.idx()][k] -= growth + growth_cya;
        tr[Nitrate.idx()][k] -= growth * REDFIELD_N; // cyano fix their N
        tr[N2.idx()][k] -= (growth_cya * REDFIELD_N).min(tr[N2.idx()][k]);
        tr[Iron.idx()][k] -= (growth + growth_cya) * 1e-4;
        tr[Dic.idx()][k] -= (growth + growth_cya) * REDFIELD_C;
        tr[Oxygen.idx()][k] += (growth + growth_cya) * REDFIELD_O2;
        npp_total += (growth + growth_cya) * dz[k] / dt;

        // Shell formation riding on growth.
        let calc_made = p.calc_fraction * growth * REDFIELD_C;
        tr[Calcite.idx()][k] += calc_made;
        tr[Dic.idx()][k] -= calc_made;
        tr[Alkalinity.idx()][k] -= 2.0 * calc_made;
        let opal_made = (p.opal_fraction * growth * 15.0).min(0.3 * si);
        tr[Opal.idx()][k] += opal_made;
        tr[Silicate.idx()][k] -= opal_made;

        // DMS from production.
        tr[Dms.idx()][k] += p.dms_yield * growth;
        tr[Dms.idx()][k] -= tr[Dms.idx()][k] * (p.dms_decay * dt).min(1.0);

        // --- grazing (Holling III).
        let phy2 = tr[Phytoplankton.idx()][k];
        let graze = (p.g_max * phy2 * phy2 / (phy2 * phy2 + p.k_graze * p.k_graze)
            * zoo
            * dt)
            .min(0.5 * phy2);
        tr[Phytoplankton.idx()][k] -= graze;
        tr[Zooplankton.idx()][k] += p.assim * graze;
        tr[Detritus.idx()][k] += 0.7 * (1.0 - p.assim) * graze;
        tr[Doc.idx()][k] += 0.3 * (1.0 - p.assim) * graze;

        // --- mortality.
        let mphy = tr[Phytoplankton.idx()][k] * (p.mort_phy * dt).min(1.0);
        tr[Phytoplankton.idx()][k] -= mphy;
        tr[Detritus.idx()][k] += 0.5 * mphy;
        tr[Doc.idx()][k] += 0.5 * mphy;
        let mcya = tr[Cyanobacteria.idx()][k] * (p.mort_phy * dt).min(1.0);
        tr[Cyanobacteria.idx()][k] -= mcya;
        tr[Detritus.idx()][k] += mcya;
        let mzoo = tr[Zooplankton.idx()][k] * (p.mort_zoo * dt).min(1.0);
        tr[Zooplankton.idx()][k] -= mzoo;
        tr[Detritus.idx()][k] += mzoo;

        // --- remineralization (oxygen permitting; else denitrify).
        let o2 = tr[Oxygen.idx()][k];
        let o2_lim = o2 / (o2 + 5.0e-6);
        for (pool, rate) in [(Detritus, p.remin_det), (Doc, p.remin_doc), (Terrigenous, p.remin_doc)] {
            let r = tr[pool.idx()][k] * (rate * dt).min(1.0) * o2_lim.max(0.2);
            tr[pool.idx()][k] -= r;
            tr[Phosphate.idx()][k] += r;
            tr[Dic.idx()][k] += r * REDFIELD_C;
            if o2_lim > 0.3 {
                tr[Oxygen.idx()][k] -= r * REDFIELD_O2;
                tr[Nitrate.idx()][k] += r * REDFIELD_N;
            } else {
                // Denitrification: nitrate respired to N2 (+ trace N2O).
                let n = r * REDFIELD_N;
                tr[Nitrate.idx()][k] -= n.min(tr[Nitrate.idx()][k]);
                tr[N2.idx()][k] += 0.99 * n;
                tr[N2o.idx()][k] += 0.01 * n;
            }
        }

        // --- shell dissolution (deep water is undersaturated).
        let depth_factor = (depth_mid[k] / 2000.0).min(2.0);
        let dcalc = tr[Calcite.idx()][k] * (p.diss_calc * dt * (0.2 + depth_factor)).min(1.0);
        tr[Calcite.idx()][k] -= dcalc;
        tr[Dic.idx()][k] += dcalc;
        tr[Alkalinity.idx()][k] += 2.0 * dcalc;
        let dopal = tr[Opal.idx()][k] * (p.diss_opal * dt).min(1.0);
        tr[Opal.idx()][k] -= dopal;
        tr[Silicate.idx()][k] += dopal;

        // Dust dissolves iron slowly.
        let dfe = tr[Dust.idx()][k] * (0.001 * PER_DAY * dt).min(1.0);
        tr[Dust.idx()][k] -= dfe;
        tr[Iron.idx()][k] += dfe * 1e-5;

        // Floor everything at zero (clipped mass is negligible; the
        // budget test tolerance covers it).
        for tv in tr.iter_mut().take(N_TRACERS) {
            if tv[k] < 0.0 {
                tv[k] = 0.0;
            }
        }
    }
    npp_total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column() -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
        let nlev = 6;
        let dz = vec![12.0, 20.0, 40.0, 100.0, 400.0, 1000.0];
        let mut depth_mid = Vec::new();
        let mut acc = 0.0;
        for d in &dz {
            depth_mid.push(acc + d / 2.0);
            acc += d;
        }
        let mut tr = Vec::new();
        for t in Tracer::ALL {
            let col: Vec<f64> = (0..nlev)
                .map(|k| {
                    let f = 1.0 + (t.deep_enrichment() - 1.0) * (k as f64 / (nlev - 1) as f64);
                    t.surface_init() * f
                })
                .collect();
            tr.push(col);
        }
        (tr, dz, depth_mid)
    }

    fn run_column(
        tr: &mut [Vec<f64>],
        dz: &[f64],
        depth: &[f64],
        sw: f64,
        steps: usize,
    ) -> f64 {
        let mut npp = 0.0;
        let p = BioParams::default();
        let atten = p.light_attenuation(depth);
        for _ in 0..steps {
            let mut refs: Vec<&mut [f64]> = tr.iter_mut().map(|v| v.as_mut_slice()).collect();
            let arr: &mut [&mut [f64]; N_TRACERS] =
                refs.as_mut_slice().try_into().expect("19 tracers");
            npp += ecosystem_column(&p, arr, dz, depth, &atten, dz.len(), sw, 600.0);
        }
        npp
    }

    #[test]
    fn light_drives_growth() {
        let (mut lit, dz, depth) = column();
        let (mut dark, ..) = column();
        let npp_lit = run_column(&mut lit, &dz, &depth, 250.0, 200);
        let npp_dark = run_column(&mut dark, &dz, &depth, 0.0, 200);
        assert!(npp_lit > 10.0 * npp_dark.max(1e-30), "{npp_lit} vs {npp_dark}");
        // Phytoplankton grew in the light near the surface.
        assert!(lit[Tracer::Phytoplankton.idx()][0] > dark[Tracer::Phytoplankton.idx()][0]);
    }

    #[test]
    fn growth_consumes_nutrients_and_dic() {
        let (mut tr, dz, depth) = column();
        let po4_0 = tr[Tracer::Phosphate.idx()][0];
        let dic_0 = tr[Tracer::Dic.idx()][0];
        run_column(&mut tr, &dz, &depth, 300.0, 100);
        assert!(tr[Tracer::Phosphate.idx()][0] < po4_0);
        assert!(tr[Tracer::Dic.idx()][0] < dic_0);
        assert!(tr[Tracer::Oxygen.idx()][0] > Tracer::Oxygen.surface_init());
    }

    #[test]
    fn phosphorus_is_nearly_conserved() {
        // P moves among PO4, phy, cya, zoo, DOC, detritus, terrigenous;
        // only clipping can lose it.
        let (mut tr, dz, depth) = column();
        let p_pools = [
            Tracer::Phosphate,
            Tracer::Phytoplankton,
            Tracer::Cyanobacteria,
            Tracer::Zooplankton,
            Tracer::Doc,
            Tracer::Detritus,
            Tracer::Terrigenous,
        ];
        let inv = |tr: &[Vec<f64>]| -> f64 {
            p_pools
                .iter()
                .map(|t| {
                    tr[t.idx()]
                        .iter()
                        .zip(&dz)
                        .map(|(x, d)| x * d)
                        .sum::<f64>()
                })
                .sum()
        };
        let before = inv(&tr);
        run_column(&mut tr, &dz, &depth, 250.0, 500);
        let after = inv(&tr);
        assert!(
            ((after - before) / before).abs() < 1e-6,
            "P {before:e} -> {after:e}"
        );
    }

    #[test]
    fn grazing_builds_zooplankton() {
        let (mut tr, dz, depth) = column();
        // Bloom conditions.
        tr[Tracer::Phytoplankton.idx()][0] = 5.0e-7;
        let zoo0 = tr[Tracer::Zooplankton.idx()][0];
        run_column(&mut tr, &dz, &depth, 300.0, 300);
        assert!(tr[Tracer::Zooplankton.idx()][0] > zoo0, "zooplankton must feast");
    }

    #[test]
    fn all_tracers_stay_non_negative() {
        let (mut tr, dz, depth) = column();
        run_column(&mut tr, &dz, &depth, 300.0, 1000);
        for (i, col) in tr.iter().enumerate() {
            for (k, &v) in col.iter().enumerate() {
                assert!(v >= 0.0, "tracer {i} level {k}: {v}");
                assert!(v.is_finite());
            }
        }
    }
}
