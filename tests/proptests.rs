//! Property-based tests over the core invariants (DESIGN.md §5) and the
//! storage fault model (DESIGN.md §11).

use dace_mini::{analysis, exec, parser, sdfg::Sdfg, suite, transforms, ExecGraph, GraphInvalid};
use icongrid::column::{implicit_diffusion, thomas_solve, Layers};
use icongrid::geom::Vec3;
use icongrid::transport::{upwind, EdgeFlux};
use icongrid::{Decomposition, Field3, Grid};
use proptest::prelude::*;

fn small_grid() -> Grid {
    Grid::build(2, icongrid::EARTH_RADIUS_M)
}

const RAND_NLEV: usize = 4;

/// Declarations for the random-kernel generator below: the
/// `fixtures::base_ctx` field set at the test nlev.
fn rand_kernel_ctx() -> analysis::AnalysisContext {
    use analysis::FieldIo;
    analysis::AnalysisContext::new()
        .domain("cells")
        .domain("edges")
        .relation("edge", "cells", "edges", 3)
        .relation("neighbor", "cells", "cells", 3)
        .field("inp", "cells", true, FieldIo::Input)
        .field("x", "cells", true, FieldIo::Input)
        .field("th", "cells", true, FieldIo::Input)
        .field("vn_e", "edges", true, FieldIo::Input)
        .field("out", "cells", true, FieldIo::Output)
        .field("out2", "cells", true, FieldIo::Output)
        .with_halo(1)
        .with_nlev(RAND_NLEV)
}

/// A random *certifiable* kernel: 1-2 statements writing `out`/`out2`
/// at the own point from gathers and own reads of input fields only —
/// no self-reads, no scatters — so the verifier must certify every
/// state (`ParallelSafe`, never `Sequential`).
fn rand_kernel_src(seed: u64, n_stmts: usize) -> String {
    fn rnd(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }
    fn term(buf: &mut String, state: &mut u64) {
        match rnd(state) % 8 {
            0 => buf.push_str("inp(p,k)"),
            1 => buf.push_str("x(p,k)"),
            2 => buf.push_str("th(p,k)"),
            3 => buf.push_str("inp(p,0)"),
            4 | 5 => {
                let s = rnd(state) % 3;
                buf.push_str(&format!("vn_e(edge(p,{s}),k)"));
            }
            6 => {
                let s = rnd(state) % 3;
                buf.push_str(&format!("inp(neighbor(p,{s}),k)"));
            }
            _ => {
                let c = (rnd(state) % 19) as f64 / 4.0 + 0.25;
                buf.push_str(&format!("{c:.2}"));
            }
        }
    }
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut src = String::from("kernel randk over cells\n");
    for i in 0..n_stmts {
        let target = if i == 0 { "out" } else { "out2" };
        src.push_str(&format!("  {target}(p,k) = "));
        let n_terms = 2 + (rnd(&mut state) % 3) as usize;
        for t in 0..n_terms {
            if t > 0 {
                src.push_str(match rnd(&mut state) % 3 {
                    0 => " + ",
                    1 => " * ",
                    _ => " - ",
                });
            }
            term(&mut src, &mut state);
        }
        src.push_str(";\n");
    }
    src.push_str("end");
    src
}

/// Random data for the random kernels (synthetic_data fills the dycore
/// suite's fields, not these).
fn rand_kernel_data(topo: &dace_mini::TopologyContext, seed: u64) -> dace_mini::DataContext {
    use dace_mini::exec::FieldBuf;
    let mut d = dace_mini::DataContext::new(RAND_NLEV);
    let mut state = seed.wrapping_mul(0xD1B54A32D192ED03) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    for (name, domain) in [("inp", "cells"), ("x", "cells"), ("th", "cells"), ("vn_e", "edges")] {
        let mut f = FieldBuf::zeros(topo.domain_size(domain), RAND_NLEV);
        for v in f.data.iter_mut() {
            *v = rnd() * 2.0 + 1.0;
        }
        d.add(name, f);
    }
    d.add("out", FieldBuf::zeros(topo.domain_size("cells"), RAND_NLEV));
    d.add("out2", FieldBuf::zeros(topo.domain_size("cells"), RAND_NLEV));
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The DaCe-mini backends agree bitwise for any input data seed.
    #[test]
    fn dace_backends_equivalent_on_random_data(seed in 0u64..1_000_000) {
        let prog = suite::dycore_program();
        let topo = suite::synthetic_topology(40);
        let mut d1 = suite::synthetic_data(&topo, 4, seed);
        let mut d2 = d1.clone();
        exec::run_naive(&prog, &topo, &mut d1);
        let (opt, _) = transforms::gh200_pipeline(&Sdfg::from_program("t", &prog));
        exec::compile(&opt).run(&topo, &mut d2);
        prop_assert_eq!(d1, d2);
    }

    /// Upwind transport conserves tracer mass for arbitrary smooth
    /// velocity fields and tracer distributions.
    #[test]
    fn upwind_advection_conserves_for_random_flows(
        ax in -1.0f64..1.0, ay in -1.0f64..1.0, az in -1.0f64..1.0,
        amp in 0.1f64..30.0, phase in 0.0f64..std::f64::consts::TAU,
    ) {
        prop_assume!(ax * ax + ay * ay + az * az > 1e-4);
        let g = small_grid();
        let axis = Vec3::new(ax, ay, az).normalized();
        let vn = Field3::from_fn(g.n_edges, 1, |e, _| {
            axis.cross(&g.edge_midpoint[e]).scale(amp).dot(&g.edge_normal[e])
        });
        let mut q = Field3::from_fn(g.n_cells, 1, |c, _| {
            1.0 + (3.0 * g.cell_center[c].x + phase).sin()
        });
        // A step that moves a few percent of each cell at any amplitude.
        let dt = 1e4 / amp;
        let before = q.weighted_sum(&g.cell_area);
        let mut scratch = Field3::zeros(g.n_cells, 1);
        upwind(&g, EdgeFlux::PerLength(&vn), None, None, None, dt, &mut [&mut q], &mut scratch);
        let after = q.weighted_sum(&g.cell_area);
        prop_assert!(((after - before) / before).abs() < 1e-12, "{} -> {}", before, after);
    }

    /// The Thomas solver solves every diagonally dominant system.
    #[test]
    fn thomas_solves_diagonally_dominant_systems(
        n in 2usize..40,
        seed in 0u64..10_000,
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let a: Vec<f64> = (0..n).map(|i| if i == 0 { 0.0 } else { -rnd() }).collect();
        let c: Vec<f64> = (0..n).map(|i| if i == n - 1 { 0.0 } else { -rnd() }).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| a[i].abs() + c[i].abs() + 0.5 + rnd())
            .collect();
        let rhs: Vec<f64> = (0..n).map(|_| rnd() * 4.0 - 2.0).collect();
        let mut x = rhs.clone();
        let mut scratch = vec![0.0; n];
        thomas_solve(&a, &b, &c, &mut x, &mut scratch);
        for i in 0..n {
            let mut acc = b[i] * x[i];
            if i > 0 { acc += a[i] * x[i - 1]; }
            if i + 1 < n { acc += c[i] * x[i + 1]; }
            prop_assert!((acc - rhs[i]).abs() < 1e-9, "row {} residual {}", i, acc - rhs[i]);
        }
    }

    /// The one column-diffusion kernel equals, bit for bit, the four
    /// bodies it replaced — explicit `a/b/c` rows handed to `thomas_solve`
    /// — in each argument shape, conserves `sum_k mass_k x_k`, and leaves
    /// levels at and below `active` alone.
    #[test]
    fn column_diffusion_matches_the_explicit_tridiagonal_bitwise(
        nlev in 2usize..41,
        ncol in 1usize..150,
        seed in 0u64..10_000,
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let (kappa, dt) = (1e-4 + rnd() * 1e-2, 100.0 + rnd() * 1e4);
        let mut init = Field3::zeros(ncol, nlev);
        init.as_mut_slice().iter_mut().for_each(|x| *x = rnd() * 40.0 - 20.0);
        let mut delta = Field3::zeros(ncol, nlev);
        delta.as_mut_slice().iter_mut().for_each(|d| *d = 0.5 + rnd() * 200.0);
        let dz: Vec<f64> = (0..nlev).map(|_| 1.0 + rnd() * 300.0).collect();
        let ones = vec![1.0; nlev];
        let active: Vec<u16> = (0..ncol).map(|_| (rnd() * (nlev + 1) as f64) as u16).collect();

        for shape in 0..4 {
            let (layers, prefix) = match shape {
                0 => (Layers::Unit, None),
                1 => (Layers::Mass(&delta), None),
                2 => (Layers::Thickness(&dz), None),
                _ => (Layers::Thickness(&dz), Some(&active[..])),
            };
            let mut got = init.clone();
            implicit_diffusion(&mut got, layers, prefix, kappa, dt);
            for i in 0..ncol {
                let n = prefix.map_or(nlev, |a| a[i] as usize);
                // Masses and interface couplings spelled as the old bodies did.
                let k_ex = kappa * dt * (delta.col(i).iter().sum::<f64>() / nlev as f64);
                let (mass, coupling): (&[f64], &dyn Fn(usize) -> f64) = match shape {
                    0 => (&ones, &|_| kappa * dt),
                    1 => (delta.col(i), &|_| k_ex),
                    _ => (&dz, &|k| kappa * dt / (0.5 * (dz[k] + dz[k + 1]))),
                };
                // Levels from `n` down keep their initial value in `want`.
                let mut want = init.col(i).to_vec();
                if n >= 2 {
                    let (mut a, mut b, mut c) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                    for k in 0..n {
                        let lower = if k > 0 { coupling(k - 1) } else { 0.0 };
                        let upper = if k + 1 < n { coupling(k) } else { 0.0 };
                        a[k] = -lower;
                        c[k] = -upper;
                        b[k] = mass[k] + lower + upper;
                        want[k] *= mass[k];
                    }
                    thomas_solve(&a, &b, &c, &mut want[..n], &mut vec![0.0; n]);
                }
                for (k, (g, w)) in got.col(i).iter().zip(&want).enumerate() {
                    prop_assert_eq!(
                        g.to_bits(), w.to_bits(),
                        "shape {} column {} level {}: {} vs {}", shape, i, k, g, w
                    );
                }
                let inventory = |f: &Field3| -> f64 {
                    f.col(i)[..n].iter().zip(mass).map(|(x, m)| x * m).sum()
                };
                let (before, after) = (inventory(&init), inventory(&got));
                let scale: f64 = init.col(i)[..n].iter().zip(mass).map(|(x, m)| (x * m).abs()).sum();
                prop_assert!(
                    (before - after).abs() <= 1e-11 * scale.max(1.0),
                    "shape {} column {}: inventory {} -> {}", shape, i, before, after
                );
            }
        }
    }

    /// Every decomposition is a disjoint cover with symmetric exchanges.
    #[test]
    fn decompositions_are_always_consistent(np in 1usize..24) {
        let g = small_grid();
        let d = Decomposition::new(&g, np);
        let mut owned = vec![false; g.n_cells];
        for pl in &d.parts {
            for &c in &pl.owned_cells {
                prop_assert!(!owned[c as usize]);
                owned[c as usize] = true;
            }
            prop_assert_eq!(pl.cell_exchange.recv_count(), pl.halo_cells.len());
        }
        prop_assert!(owned.iter().all(|&o| o));
        let total_sent: usize = d.parts.iter().map(|p| p.cell_exchange.send_count()).sum();
        let total_recv: usize = d.parts.iter().map(|p| p.cell_exchange.recv_count()).sum();
        prop_assert_eq!(total_sent, total_recv);
    }

    /// Arbitrary damage to a `.rec` diagnostic stream — truncation at any
    /// byte, or a single flipped bit — never panics recovery and never
    /// yields a torn record: `recover_records` returns a bitwise prefix
    /// of the original stream, and after its repair a strict
    /// `read_records` agrees with it exactly.
    #[test]
    fn damaged_rec_streams_recover_to_a_bitwise_prefix(
        n_records in 1usize..5,
        max_len in 1usize..10,
        seed in 0u64..1_000_000,
        damage in 0usize..4096,
        flip in 0u8..2,
    ) {
        use iosys::output::{encode_record, read_records, recover_records};

        // Deterministic record stream from the seed.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut originals: Vec<(f64, Vec<f64>)> = Vec::new();
        let mut bytes = Vec::new();
        for i in 0..n_records {
            let len = rnd() as usize % max_len;
            let data: Vec<f64> = (0..len)
                .map(|_| (rnd() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
                .collect();
            let t = i as f64 + 1.0;
            bytes.extend_from_slice(&encode_record(t, &data));
            originals.push((t, data));
        }

        // Damage it: truncate at an arbitrary byte, or flip one bit.
        let mut damaged = bytes.clone();
        if flip == 0 {
            damaged.truncate(damage % (bytes.len() + 1));
        } else {
            let at = damage % bytes.len();
            damaged[at] ^= 1 << (seed % 8);
        }
        let intact = damaged == bytes;

        let dir = iosys::restart::scratch_dir(&format!("rec_prop_{seed}_{damage}_{flip}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("var.rec"), &damaged).unwrap();

        let rec = recover_records(&dir, "var").expect("recovery never fails on damage");
        prop_assert!(rec.records.len() <= originals.len());
        if intact {
            prop_assert_eq!(&rec.records, &originals, "undamaged stream must survive whole");
        }
        for (i, (got, want)) in rec.records.iter().zip(&originals).enumerate() {
            prop_assert_eq!(got.0.to_bits(), want.0.to_bits(), "record {} time", i);
            prop_assert_eq!(got.1.len(), want.1.len(), "record {} length", i);
            for (a, b) in got.1.iter().zip(&want.1) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "record {} payload", i);
            }
        }
        // The repair left a clean stream: the strict reader agrees.
        let strict = read_records(&dir, "var").expect("post-repair stream is clean");
        prop_assert_eq!(&strict, &rec.records);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Any random certified kernel agrees bitwise across all three
    /// execution backends: naive interpretation, certified-parallel
    /// compilation, and recorded-graph replay (ISSUE 7).
    #[test]
    fn random_certified_kernels_agree_across_naive_parallel_and_replay(
        seed in 0u64..1_000_000,
        half_cells in 8usize..32,
        extra_stmt in 0u8..2,
    ) {
        let src = rand_kernel_src(seed, 1 + extra_stmt as usize);
        let prog = parser::parse(&src).expect("generated kernels are grammatical");
        let sdfg = Sdfg::from_program("randk", &prog);
        let report = analysis::verify_sdfg(&sdfg, &rand_kernel_ctx());
        prop_assert!(report.is_clean(), "{}:\n{:?}", src, report.errors().collect::<Vec<_>>());
        for i in 0..sdfg.states.len() {
            // Gather-only kernels must certify (never `Sequential`).
            prop_assert_ne!(report.cert(i), dace_mini::Certification::Sequential);
        }

        let topo = suite::synthetic_topology(2 * half_cells);
        let d0 = rand_kernel_data(&topo, seed);
        let mut d_naive = d0.clone();
        let mut d_cert = d0.clone();
        let mut d_replay = d0;
        // Window 0 (recording IS an eager window), then a replayed window.
        exec::run_naive(&prog, &topo, &mut d_naive);
        exec::compile_certified(&sdfg, &report).run(&topo, &mut d_cert);
        let (mut graph, _) = ExecGraph::record("randk", &sdfg, &report, &topo, &mut d_replay);
        prop_assert_eq!(&d_naive, &d_cert, "naive vs certified-parallel");
        prop_assert_eq!(&d_naive, &d_replay, "naive vs recording pass");
        exec::run_naive(&prog, &topo, &mut d_naive);
        exec::compile_certified(&sdfg, &report).run(&topo, &mut d_cert);
        graph.replay(&topo, &mut d_replay).expect("shapes unchanged");
        prop_assert_eq!(&d_naive, &d_cert, "window 2: naive vs certified-parallel");
        prop_assert_eq!(&d_naive, &d_replay, "window 2: naive vs replay");
    }

    /// Mutating any buffer's entity extent after recording must surface
    /// the typed invalidation event — never a stale replay, never a
    /// crash — and a re-record over the new shape must succeed.
    #[test]
    fn shape_mutation_after_record_forces_rerecord_not_stale_replay(
        seed in 0u64..1_000_000,
        which in 0usize..4,
        grow in 1usize..4,
    ) {
        let src = rand_kernel_src(seed, 2);
        let prog = parser::parse(&src).expect("generated kernels are grammatical");
        let sdfg = Sdfg::from_program("randk", &prog);
        let report = analysis::verify_sdfg(&sdfg, &rand_kernel_ctx());
        prop_assert!(report.is_clean());

        let topo = suite::synthetic_topology(24);
        let mut data = rand_kernel_data(&topo, seed);
        let (mut graph, _) = ExecGraph::record("randk", &sdfg, &report, &topo, &mut data);
        graph.replay(&topo, &mut data).expect("valid while shapes hold");

        // Grow one input buffer's entity extent.
        let field = ["inp", "x", "th", "vn_e"][which];
        let before = data.clone();
        {
            let f = data.fields.get_mut(field).unwrap();
            f.n += grow;
            f.data.resize(f.n * f.nlev, 1.0);
        }
        match graph.replay(&topo, &mut data) {
            Err(GraphInvalid::ShapeChanged { what, .. }) => {
                prop_assert!(what.contains(field), "diff names '{}': {}", field, what);
            }
            Ok(_) => prop_assert!(false, "stale replay executed after shape change"),
            Err(other) => prop_assert!(false, "wrong invalidation: {:?}", other),
        }
        // The refused replay executed nothing.
        {
            let f = data.fields.get_mut(field).unwrap();
            f.n -= grow;
            f.data.truncate(f.n * f.nlev);
        }
        prop_assert_eq!(&data, &before, "refused replay must not execute");

        // Re-record over the mutated shape: the invalidation's answer.
        {
            let f = data.fields.get_mut(field).unwrap();
            f.n += grow;
            f.data.resize(f.n * f.nlev, 1.0);
        }
        let (mut g2, _) = ExecGraph::record("randk", &sdfg, &report, &topo, &mut data);
        g2.replay(&topo, &mut data).expect("re-recorded graph replays");
        prop_assert!(g2.signature() != graph.signature(), "new shape, new signature");
    }

    /// Ocean sea-ice thermodynamics conserve energy for any surface state.
    #[test]
    fn seaice_updates_conserve_energy(
        t0 in -6.0f64..8.0,
        s0 in 30.0f64..37.0,
        ice in 0.0f64..1.5,
    ) {
        use ocean::params::{OceanParams, CP_OCEAN, L_FUSION, RHO0, RHO_ICE};
        use ocean::seaice::update_ice;
        let p = OceanParams::new(6, 600.0);
        let dz0 = p.dz[0];
        let u = update_ice(&p, t0, s0, ice, dz0);
        // Enthalpy closure: sensible heat gained by the water equals the
        // latent heat released by freezing (ice carries negative latent
        // enthalpy), so heat_change - L*rho_i*d(ice) = 0.
        let heat_change = RHO0 * CP_OCEAN * dz0 * (u.t_surface - t0);
        let ice_change = (u.ice_thickness - ice) * RHO_ICE * L_FUSION;
        prop_assert!(
            (heat_change - ice_change).abs() < 1e-6 * (heat_change.abs() + ice_change.abs()).max(1.0),
            "heat {} vs ice {}", heat_change, ice_change
        );
        prop_assert!(u.ice_thickness >= 0.0);
    }
}
