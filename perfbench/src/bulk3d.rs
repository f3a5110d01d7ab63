//! `bulk3d`: a single-domain periodic thermal plasma driven by
//! `Simulation::step` — the kernel layer's workload.
//!
//! One repetition loads the seeded plasma (set-up) and steps it
//! `steps` times (wall). The end state of every repetition is checked
//! against the AoS-scalar oracle run of the same seed and step count.

use std::path::Path;
use std::time::Instant;

use vpic::core::checkpoint;
use vpic::core::crc32::fingerprint32;
use vpic::core::{
    load_uniform, Grid, Layout, Momentum, PushKernel, Rng, Simulation, SortPolicy, Species,
    StepTimings,
};
use vpic::roadrunner::flops;

use crate::checks;
use crate::inputs::{self, Bulk3d};
use crate::report::{json_list, Outcome};
use crate::stats::{median, tail};
use crate::trace::{SpanId, Tracer};
use crate::{Pass, MIN_REPS};

/// Load the seeded plasma in `layout`, pushed by `kernel`.
fn build(input: &Bulk3d, layout: Layout, kernel: PushKernel) -> Simulation {
    let dx = 0.25f32;
    let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.9);
    let grid = Grid::periodic(input.cells, (dx, dx, dx), dt);
    let mut sim = Simulation::new(grid, input.pipelines);
    let mut electrons = Species::new("electron", -1.0, 1.0).with_sort_policy(SortPolicy::Auto);
    let mut rng = Rng::seeded(input.loader_seed);
    load_uniform(
        &mut electrons,
        &sim.grid,
        &mut rng,
        1.0,
        input.ppc,
        Momentum::thermal(0.05),
    );
    sim.set_layout(layout);
    sim.set_kernel(kernel);
    sim.add_species(electrons);
    sim
}

/// `fingerprint32` of the end state's `checkpoint::save` bytes, and
/// whether every particle and field value is finite.
fn end_state(sim: &Simulation) -> Result<(u32, bool), String> {
    let mut bytes = Vec::new();
    checkpoint::save(sim, &mut bytes).map_err(|e| format!("checkpoint::save: {e}"))?;
    let f = &sim.fields;
    let fields_finite = [
        &f.ex, &f.ey, &f.ez, &f.cbx, &f.cby, &f.cbz, &f.jx, &f.jy, &f.jz,
    ]
    .iter()
    .all(|v| v.iter().all(|x| x.is_finite()));
    let particles_finite = sim.species.iter().all(|sp| {
        sp.iter().all(|p| {
            [p.dx, p.dy, p.dz, p.ux, p.uy, p.uz, p.w]
                .iter()
                .all(|x| x.is_finite())
        })
    });
    Ok((fingerprint32(&bytes), fields_finite && particles_finite))
}

fn oracle(input: &Bulk3d) -> Result<u32, String> {
    let mut sim = build(input, Layout::Aos, PushKernel::Scalar);
    for _ in 0..input.steps {
        sim.step();
    }
    Ok(end_state(&sim)?.0)
}

pub fn run(
    seed: u64,
    budget: f64,
    tracer: &Tracer,
    scratch: &Path,
    oracle_fp: &mut Option<u32>,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let input = inputs::bulk3d(seed);
    let (mut setups, mut walls, mut rates, mut ops) = (vec![], vec![], vec![], vec![]);
    let mut runs: Vec<(u32, (usize, usize), bool)> = Vec::new();
    let mut phases = StepTimings::default();
    let mut last: Option<Simulation> = None;
    let mut rep = 0u32;
    // The budget counts timed work only; the checks run outside it.
    while (rep as usize) < MIN_REPS || setups.iter().chain(&walls).sum::<f64>() < budget {
        drop(last.take()); // free the previous state before loading the next
        let t0 = Instant::now();
        let root = tracer.begin("bulk3d.run", SpanId::NONE, rep, 0);
        let mut sim = tracer.span("core.load", root, rep, 0, |_| {
            build(&input, Layout::Aosoa, PushKernel::Lane)
        });
        let n0 = sim.n_particles();
        let t1 = Instant::now();
        for _ in 0..input.steps {
            tracer.span("core.step", root, rep, 0, |_| sim.step());
        }
        let t2 = Instant::now();
        tracer.end(root);
        if rep == 0 {
            // One workload run's footprint, before the checks allocate.
            out.set_once("peak_rss_mb", crate::procfs::peak_rss_mb());
        }

        let (setup, wall) = ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64());
        setups.push(setup);
        walls.push(wall);
        rates.push(n0 as f64 * input.steps as f64 / wall);
        ops.push(3600.0 / (setup + wall));
        let (fp, finite) = end_state(&sim)?;
        runs.push((fp, (n0, sim.n_particles()), finite));
        let t = &sim.timings;
        phases.push += t.push;
        phases.interpolate += t.interpolate;
        phases.current += t.current;
        phases.field += t.field;
        phases.sort += t.sort;
        phases.other += t.other;
        phases.diag += t.diag;
        phases.particle_steps += t.particle_steps;
        phases.voxel_steps += t.voxel_steps;
        phases.steps += t.steps;
        last = Some(sim);
        rep += 1;
    }
    let last = last.expect("at least one repetition ran");

    let oracle_fp = match *oracle_fp {
        Some(fp) => fp,
        None => *oracle_fp.insert(oracle(&input)?),
    };
    for (fp, particles, finite) in &runs {
        out.check(
            "bulk3d run",
            checks::bulk3d(*fp, oracle_fp, *particles, *finite),
        );
    }

    out.set("setup_s", median(&setups));
    out.set("wall_s", median(&walls));
    out.set("particle_advances_per_s", median(&rates));
    out.set("ops_per_hour", median(&ops));
    out.note("bulk3d_fingerprint", format!("\"{:08x}\"", runs[0].0));
    out.note("bulk3d_oracle_fingerprint", format!("\"{oracle_fp:08x}\""));
    out.note("rep_setup_s", json_list(&setups));
    out.note("rep_wall_s", json_list(&walls));

    if tracer.enabled() {
        layer_metrics(tracer, &phases, &last, scratch, out)?;
        out.set("setup.load_s", median(&tracer.durations("core.load")));
    }
    Ok(Pass {
        wall_s: median(&walls),
    })
}

/// Per-layer `core.*` metrics from the traced repetitions.
fn layer_metrics(
    tracer: &Tracer,
    t: &StepTimings,
    last: &Simulation,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    set_step_metrics("core.step_ms", &tracer.durations("core.step"), out);
    out.set(
        "core.step_ms.samples",
        tracer.durations("core.step").len() as f64,
    );
    set_phase_metrics(t, out);
    let coh = last.species[0].coherence();
    out.set("core.sort.sorts", coh.sorts as f64);
    out.set("core.sort.skipped", coh.skipped_sorts as f64);
    out.set("core.cadence.crosser_rate", coh.crosser_rate());
    out.set("core.cadence.spill_rate", coh.spill_rate());
    out.set(
        "core.cadence.mixed_block_fraction",
        coh.mixed_block_fraction(),
    );

    // Checkpoint write and read-back of the final state.
    let path = scratch.join("bulk3d_final.vpic");
    let t0 = Instant::now();
    tracer
        .span("core.checkpoint.save", SpanId::NONE, 0, 0, |_| {
            checkpoint::save_to_path(last, &path)
        })
        .map_err(|e| format!("checkpoint::save_to_path: {e}"))?;
    let save_s = t0.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
    let t0 = Instant::now();
    let loaded = tracer
        .span("core.checkpoint.load", SpanId::NONE, 0, 0, |_| {
            checkpoint::load_from_path(&path, last.accumulators.n_pipelines())
        })
        .map_err(|e| format!("checkpoint::load_from_path: {e}"))?;
    let load_s = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    out.check(
        "bulk3d checkpoint round trip",
        (end_state(&loaded)?.0 == end_state(last)?.0)
            .then_some(())
            .ok_or_else(|| "restored state differs from the saved one".to_string()),
    );
    out.set("core.checkpoint.bytes", bytes);
    out.set("core.checkpoint.save_MBps", bytes / save_s / 1e6);
    out.set("core.checkpoint.load_MBps", bytes / load_s / 1e6);
    Ok(())
}

/// `<prefix>.p50`, `.tail` and `.tail_pct` of step durations, in ms.
pub fn set_step_metrics(prefix: &str, secs: &[f64], out: &mut Outcome) {
    let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    out.set(&format!("{prefix}.p50"), median(&ms));
    if let Some((pct, v)) = tail(&ms) {
        out.set(&format!("{prefix}.tail"), v);
        out.set(&format!("{prefix}.tail_pct"), pct);
    }
}

/// Phase times per step, per-particle and per-voxel costs and the
/// computed flop rates (from `roadrunner_model::flops`) of a
/// `Simulation`'s accumulated `StepTimings`.
pub fn set_phase_metrics(t: &StepTimings, out: &mut Outcome) {
    let steps = t.steps.max(1) as f64;
    out.set(
        "core.push.ns_per_particle",
        t.push / t.particle_steps.max(1) as f64 * 1e9,
    );
    out.set("core.push.inner_loop_fraction", t.inner_loop_fraction());
    let particle_flops = t.particle_steps as f64 * flops::particle::TOTAL as f64;
    let voxel_flops = t.voxel_steps as f64 * flops::voxel::TOTAL as f64;
    out.set("core.push.gflops", particle_flops / t.push / 1e9);
    out.set(
        "core.step.gflops",
        (particle_flops + voxel_flops) / t.total() / 1e9,
    );
    out.set("core.sort.s_per_step", t.sort / steps);
    out.set("core.interpolate.s_per_step", t.interpolate / steps);
    out.set("core.current.s_per_step", t.current / steps);
    out.set("core.field.s_per_step", t.field / steps);
    out.set("core.other.s_per_step", t.other / steps);
    let voxels = t.voxel_steps.max(1) as f64;
    out.set("core.field.ns_per_voxel", t.field / voxels * 1e9);
    out.set("core.current.ns_per_voxel", t.current / voxels * 1e9);
}
