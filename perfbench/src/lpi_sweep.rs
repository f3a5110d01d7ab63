//! `lpi_sweep`: the reflectivity sweep as the service runs it — a
//! WAL-backed four-point a0 scan with async diagnostics, one seeded NaN
//! upset healed by rollback, and one seeded orchestrator kill followed by
//! an in-process resume from the write-ahead log.
//!
//! One repetition generates the deck, builds it through the deck parser
//! and drives both orchestrator incarnations in a fresh directory.
//! Set-up runs from the start of input generation to the first job's
//! `Started` event (deck build, WAL open, replay and reconciliation);
//! wall time from there until the second incarnation has written the
//! curve. Particle loading happens per job inside the campaign, so it
//! counts as wall time, as it does for every point the service runs.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use vpic::deck::{build, BuiltRun, Deck, SweepSetup};
use vpic::diag::{DiagConfig, DiagMode};
use vpic::lpi::sweep::{
    SweepEnd, SweepKillPlan, SweepOutcome, SweepProgress, SweepRunner, CURVE_NAME, WAL_NAME,
};
use vpic::lpi::{run_lpi_campaign, LpiCampaignConfig, LpiCampaignEnd, LpiParams, LpiRun};

use crate::bulk3d::{set_phase_metrics, set_step_metrics};
use crate::checks::{self, SweepExpect};
use crate::inputs::{self, Sweep};
use crate::report::{json_list, Outcome};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{Pass, MIN_REPS};

/// What the sweep needs once per benchmark run, outside the timed
/// window: the fault-free oracle of the upset point and the particle
/// count of every point (for the planned-push tally).
pub struct Oracle {
    upset_fingerprint: u32,
    particles: Vec<u64>,
}

pub fn setup_of(deck_text: &str) -> Result<SweepSetup, String> {
    let deck = Deck::parse(deck_text).map_err(|e| format!("sweep deck: {}", e.0))?;
    match build(&deck).map_err(|e| format!("sweep deck: {}", e.0))? {
        BuiltRun::Sweep(setup) => Ok(*setup),
        _ => Err("sweep deck did not build a sweep".into()),
    }
}

fn point_params(setup: &SweepSetup, job: u64) -> Result<LpiParams, String> {
    Ok(setup
        .grid
        .point(job)
        .ok_or_else(|| format!("job {job} outside the sweep grid"))?
        .params(&setup.params))
}

fn oracle(input: &Sweep, setup: &SweepSetup, dir: &Path) -> Result<Oracle, String> {
    let cfg = setup.config(dir);
    let mut ccfg = LpiCampaignConfig::new(cfg.steps, cfg.checkpoint_interval, dir.join("oracle"));
    ccfg.max_recoveries = cfg.campaign_max_recoveries;
    ccfg.sentinel = cfg.sentinel;
    let out = run_lpi_campaign(point_params(setup, input.upset_job)?, &ccfg)
        .map_err(|e| format!("fault-free oracle campaign: {e}"))?;
    if !matches!(out.end, LpiCampaignEnd::Completed) {
        return Err(format!("fault-free oracle campaign ended {:?}", out.end));
    }
    let _ = std::fs::remove_dir_all(dir.join("oracle"));
    let particles = (0..input.points)
        .map(|job| {
            let mut p = point_params(setup, job)?;
            p.diag = DiagConfig::default();
            Ok(LpiRun::new(p).sim.n_particles() as u64)
        })
        .collect::<Result<_, String>>()?;
    Ok(Oracle {
        upset_fingerprint: out.state_fingerprint,
        particles,
    })
}

/// One repetition's measurements and outcomes.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    /// `None` when the service died before it could be resumed.
    resume_s: Option<f64>,
    job_s: Vec<f64>,
    /// Both incarnations' outcomes, or why the service died.
    outcomes: Result<(SweepOutcome, SweepOutcome), String>,
    curve: Vec<u8>,
    wal_bytes: u64,
}

type Events = Mutex<Vec<(Instant, SweepProgress)>>;

fn incarnation(
    setup: &SweepSetup,
    dir: &Path,
    kill: SweepKillPlan,
    events: &Events,
) -> Result<SweepOutcome, String> {
    let mut cfg = setup.config(dir);
    cfg.kill = kill;
    SweepRunner::new(setup.grid.clone(), cfg)
        .run_with_progress(&|p| {
            events
                .lock()
                .expect("event log poisoned")
                .push((Instant::now(), p.clone()))
        })
        .map_err(|e| format!("sweep incarnation: {e}"))
}

/// Complete `Started → Done` intervals of one incarnation, per job.
fn job_spans(events: &[(Instant, SweepProgress)]) -> Vec<(u64, Instant, Instant)> {
    let mut open: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut spans = Vec::new();
    for (t, ev) in events {
        match ev {
            SweepProgress::Started { job, .. } => {
                open.insert(*job, *t);
            }
            SweepProgress::Done { job, .. } => {
                if let Some(t0) = open.remove(job) {
                    spans.push((*job, t0, *t));
                }
            }
            _ => {}
        }
    }
    spans
}

fn rep(input: &Sweep, dir: &Path, tracer: &Tracer, run: u32) -> Result<Rep, String> {
    let t0 = Instant::now();
    let root = tracer.begin("lpi_sweep.run", SpanId::NONE, run, 0);
    let setup = setup_of(&input.deck)?;
    let kill = SweepKillPlan {
        after_certifications: Some(input.kill_after_certifications()),
        before_job: None,
    };
    let (ev1, ev2) = (Events::default(), Events::default());
    let inc1 = tracer.begin("lpi.sweep.incarnation", root, run, 0);
    let first = incarnation(&setup, dir, kill, &ev1);
    tracer.end(inc1);
    let reopen = Instant::now();
    // A service that died of an error (rather than the seeded kill) is
    // not resumed: its points count as failed operations.
    let inc2 = tracer.begin("lpi.sweep.incarnation", root, run, 0);
    let outcomes = first.and_then(|first| {
        let second = incarnation(&setup, dir, SweepKillPlan::default(), &ev2)?;
        Ok((first, second))
    });
    tracer.end(inc2);
    let end = Instant::now();
    tracer.end(root);

    let (ev1, ev2) = (
        ev1.into_inner().expect("events"),
        ev2.into_inner().expect("events"),
    );
    let started = ev1
        .first()
        .ok_or("first incarnation reported no progress")?
        .0;
    let resume_s = ev2.first().map(|(t, _)| (*t - reopen).as_secs_f64());
    let mut job_s = Vec::new();
    for (inc, events) in [(inc1, &ev1), (inc2, &ev2)] {
        for (job, a, b) in job_spans(events) {
            tracer.record("lpi.sweep.job", inc, run, 1 + job as u32, a, b);
            // The resumed job's interval covers only its remainder.
            if job != input.kill_job {
                job_s.push((b - a).as_secs_f64());
            }
        }
    }
    let sweep_dir = setup.config(dir).sweep_dir;
    let curve = std::fs::read(sweep_dir.join(CURVE_NAME)).unwrap_or_default();
    let wal_bytes = std::fs::metadata(sweep_dir.join(WAL_NAME)).map_or(0, |m| m.len());
    Ok(Rep {
        setup_s: (started - t0).as_secs_f64(),
        wall_s: (end - started).as_secs_f64(),
        resume_s,
        job_s,
        outcomes,
        curve,
        wal_bytes,
    })
}

/// Check one repetition, one operation per grid point.
fn check(input: &Sweep, r: &Rep, oracle: &Oracle, reference_curve: &[u8], out: &mut Outcome) {
    let (first, second) = match &r.outcomes {
        Ok((first, second)) => (first, second),
        Err(e) => {
            for job in 0..input.points {
                out.check(
                    &format!("lpi_sweep point {job}"),
                    Err(format!("sweep died: {e}")),
                );
            }
            return;
        }
    };
    let whole: Result<(), String> = (|| {
        if first.end != SweepEnd::Killed {
            return Err("the seeded orchestrator kill did not fire".into());
        }
        if second.end != SweepEnd::Completed {
            return Err("the resumed sweep did not settle".into());
        }
        if second.orphans_released != [input.kill_job] {
            return Err(format!(
                "resume released {:?}, expected the killed job {}",
                second.orphans_released, input.kill_job
            ));
        }
        let certified = first.steps_by_job.get(&input.kill_job).copied();
        if certified != Some(input.kill_certified_step()) {
            return Err(format!(
                "killed job ran {certified:?} steps before the kill, expected {}",
                input.kill_certified_step()
            ));
        }
        if r.curve.is_empty() {
            return Err(format!("{CURVE_NAME} was not written"));
        }
        if r.curve != reference_curve {
            return Err("curve differs from the first repetition's".into());
        }
        Ok(())
    })();
    let ledger = checks::total_steps([&first.steps_by_job, &second.steps_by_job]);
    let expect = SweepExpect {
        steps: input.steps,
        upset_job: input.upset_job,
        upset_replay: input.upset_replay_steps(),
        upset_oracle_fingerprint: oracle.upset_fingerprint,
    };
    let points = second
        .curve
        .as_ref()
        .map(|c| c.points.as_slice())
        .unwrap_or(&[]);
    for job in 0..input.points {
        let what = format!("lpi_sweep point {job}");
        let result = whole.clone().and_then(|()| {
            let p = points
                .iter()
                .find(|p| p.point.job_id == job)
                .ok_or("point missing from the curve")?;
            checks::sweep_point(
                &checks::SweepPoint {
                    job,
                    state_fingerprint: p.result.as_ref().map(|r| r.state_fingerprint),
                    quarantined: p.quarantined.is_some(),
                },
                &ledger,
                &expect,
            )
        });
        out.check(&what, result);
    }
}

pub fn run(
    seed: u64,
    budget: f64,
    tracer: &Tracer,
    scratch: &Path,
    oracle_cache: &mut Option<Oracle>,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let input = inputs::lpi_sweep(seed);
    let mut reps: Vec<Rep> = Vec::new();
    // The budget counts timed work only; the checks run outside it.
    while reps.len() < MIN_REPS || reps.iter().map(|r| r.setup_s + r.wall_s).sum::<f64>() < budget {
        let dir = scratch.join(format!("sweep{}", reps.len()));
        let r = rep(&input, &dir, tracer, reps.len() as u32)?;
        let _ = std::fs::remove_dir_all(&dir);
        reps.push(r);
        out.set_once("peak_rss_mb", crate::procfs::peak_rss_mb());
    }

    let oracle = match oracle_cache {
        Some(o) => o,
        None => oracle_cache.insert(oracle(
            &input,
            &setup_of(&input.deck)?,
            &scratch.join("oracle"),
        )?),
    };
    for r in &reps {
        check(&input, r, oracle, &reps[0].curve, out);
    }

    let planned: f64 = oracle
        .particles
        .iter()
        .map(|&n| (n * input.steps) as f64)
        .sum();
    let col = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    out.set("setup_s", median(&col(&|r| r.setup_s)));
    out.set("wall_s", median(&col(&|r| r.wall_s)));
    out.set(
        "particle_advances_per_s",
        median(&col(&|r| planned / r.wall_s)),
    );
    out.set(
        "ops_per_hour",
        median(&col(&|r| {
            let done = r
                .outcomes
                .as_ref()
                .map_or(0, |(_, s)| s.curve.as_ref().map_or(0, |c| c.done()));
            done as f64 * 3600.0 / (r.setup_s + r.wall_s)
        })),
    );
    out.note("rep_setup_s", json_list(&col(&|r| r.setup_s)));
    out.note("rep_wall_s", json_list(&col(&|r| r.wall_s)));
    out.note(
        "upset",
        format!(
            "{{\"job\": {}, \"step\": {}}}",
            input.upset_job, input.upset_step
        ),
    );
    out.note(
        "kill",
        format!(
            "{{\"job\": {}, \"certification\": {}}}",
            input.kill_job, input.kill_cert
        ),
    );
    out.note(
        "upset_oracle_fingerprint",
        format!("\"{:08x}\"", oracle.upset_fingerprint),
    );

    if tracer.enabled() {
        let last = reps
            .iter()
            .rev()
            .find_map(|r| r.outcomes.as_ref().ok().map(|o| (r, o)));
        if let Some((last, (first, second))) = last {
            sweep_counts(&input, last, first, second, out);
        }
        let resume: Vec<f64> = reps.iter().filter_map(|r| r.resume_s).collect();
        out.set("lpi.sweep.resume_s", median(&resume));
        out.set(
            "lpi.sweep.job_s.p50",
            median(
                &reps
                    .iter()
                    .flat_map(|r| r.job_s.iter().copied())
                    .collect::<Vec<_>>(),
            ),
        );
        drive_point(&input, tracer, scratch, out)?;
    }
    Ok(Pass {
        wall_s: median(&col(&|r| r.wall_s)),
    })
}

/// Exact sweep counts of one completed repetition: steps replayed past
/// the plan, attempts launched, charged retries and journal size.
fn sweep_counts(
    input: &Sweep,
    r: &Rep,
    first: &SweepOutcome,
    second: &SweepOutcome,
    out: &mut Outcome,
) {
    let ledger = checks::total_steps([&first.steps_by_job, &second.steps_by_job]);
    let planned = input.steps * input.points;
    out.set(
        "lpi.sweep.steps_replayed",
        ledger.values().sum::<u64>().saturating_sub(planned) as f64,
    );
    out.set(
        "lpi.sweep.attempts",
        (first.attempts_launched + second.attempts_launched) as f64,
    );
    out.set("lpi.sweep.retries", second.stats.total_failures as f64);
    out.set("lpi.sweep.wal_bytes", r.wal_bytes as f64);
}

/// Drive the upset job's grid point directly through `LpiRun::new` and
/// `LpiRun::step` (fault-free, async diagnostics), so its step phases and
/// diagnostics-pipeline counters can be read.
fn drive_point(
    input: &Sweep,
    tracer: &Tracer,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let setup = setup_of(&input.deck)?;
    let params = point_params(&setup, input.upset_job)?;
    if params.diag.mode != DiagMode::Async {
        return Err("sweep deck must run the async diagnostics pipeline".into());
    }
    let root = tracer.begin("lpi.point", SpanId::NONE, 0, 0);
    let t0 = Instant::now();
    let mut run = tracer.span("lpi.point.load", root, 0, 0, |_| LpiRun::new(params));
    out.set("setup.load_s", t0.elapsed().as_secs_f64());
    run.diag_set_out_dir(scratch.join("point"));
    for _ in 0..input.steps {
        tracer.span("lpi.point.step", root, 0, 0, |_| run.step());
    }
    let (_engine, stats) = tracer.span("diag.finish", root, 0, 0, |_| run.diag_finish());
    tracer.end(root);
    let _ = std::fs::remove_dir_all(scratch.join("point"));

    set_step_metrics(
        "lpi.point.step_ms",
        &tracer.durations("lpi.point.step"),
        out,
    );
    let t = &run.sim.timings;
    set_phase_metrics(t, out);
    let coh = run.electron_species().coherence();
    out.set("core.sort.sorts", coh.sorts as f64);
    out.set("core.sort.skipped", coh.skipped_sorts as f64);
    out.set("core.cadence.crosser_rate", coh.crosser_rate());
    out.set("core.cadence.spill_rate", coh.spill_rate());
    out.set(
        "core.cadence.mixed_block_fraction",
        coh.mixed_block_fraction(),
    );
    out.set("diag.s_per_step", t.diag / t.steps.max(1) as f64);
    out.set("diag.published", stats.published as f64);
    out.set("diag.consumed", stats.consumed as f64);
    out.set("diag.dropped", stats.dropped as f64);
    out.set("diag.max_depth", stats.max_depth as f64);
    out.set("diag.stall_s", stats.stall_seconds);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dead_service_fails_every_point() {
        let input = inputs::lpi_sweep(2);
        let dead = Rep {
            setup_s: 0.0,
            wall_s: 1.0,
            resume_s: None,
            job_s: Vec::new(),
            outcomes: Err("campaign thread panicked".into()),
            curve: Vec::new(),
            wal_bytes: 0,
        };
        let oracle = Oracle {
            upset_fingerprint: 0,
            particles: vec![1; input.points as usize],
        };
        let mut out = Outcome::default();
        check(&input, &dead, &oracle, &[], &mut out);
        assert_eq!((out.attempted, out.failed), (input.points, input.points));
        assert!(out.failures[0].contains("campaign thread panicked"));
    }

    #[test]
    fn generated_deck_builds_the_seeded_sweep() {
        let input = inputs::lpi_sweep(5);
        let setup = setup_of(&input.deck).expect("generated deck builds");
        assert_eq!(setup.grid.len() as u64, input.points);
        assert_eq!(setup.steps, input.steps);
        assert_eq!(setup.checkpoint_interval, input.checkpoint_interval);
        assert_eq!(setup.corrupt_job, input.upset_job);
        assert_eq!(setup.corrupt_attempt, Some(1));
        assert_eq!(setup.params.diag.mode, DiagMode::Async);
        let cfg = setup.config(Path::new("unused"));
        assert_eq!(cfg.sentinel.health_interval, input.health_interval);
    }
}
