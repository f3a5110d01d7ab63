//! `ranks2_socket`: a 2-rank laser-driven plasma `[campaign]` over
//! Unix-domain sockets — the only workload where ghost exchange,
//! particle migration, the wire/socket path and rank checkpoints do real
//! work.
//!
//! One repetition generates the deck, builds it through the deck parser
//! and runs the socket world in a fresh directory. Set-up runs from the
//! start of input generation until both ranks have bootstrapped their
//! sockets and loaded their particles; wall time from there until the
//! campaign's checkpoints and the combined state fingerprint are on
//! disk. Every repetition's end state must equal that of the same deck
//! run over `transport = local` (the twin, run once, untimed).

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use vpic::core::crc32::fingerprint32;
use vpic::core::{FieldArray, Grid};
use vpic::deck::{build, BuiltRun, CampaignSetup, Deck};
use vpic::nanompi::{self, Comm, SocketAddrSpec, TrafficReport, TransportKind};
use vpic::parallel::campaign::{run_campaign_with, CampaignEnd, CampaignOutcome};
use vpic::parallel::dcheckpoint::{dump_rank_bytes, load_rank_from_path, write_bytes_atomic};
use vpic::parallel::DistTimings;

use crate::bulk3d::set_step_metrics;
use crate::checks;
use crate::inputs;
use crate::report::{json_list, Outcome};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{Pass, MIN_REPS};

/// Longest Unix-domain socket path the kernel accepts: `sun_path` holds
/// 108 bytes including the terminating NUL.
pub const SUN_PATH_MAX: usize = 107;

/// Fail fast, with the path in the message, when the socket files under
/// `dir` would not fit in `sun_path` — instead of letting the bootstrap
/// time out on a bind error.
pub fn check_socket_dir(dir: &Path, ranks: usize) -> Result<(), String> {
    let longest = dir.join(format!("rank{}.sock", ranks.saturating_sub(1)));
    let len = longest.as_os_str().len();
    if len > SUN_PATH_MAX {
        return Err(format!(
            "socket path {} is {len} bytes, over the {SUN_PATH_MAX}-byte sun_path limit; \
             run the benchmark from a shallower directory",
            longest.display()
        ));
    }
    Ok(())
}

pub fn setup_of(deck_text: &str) -> Result<CampaignSetup, String> {
    let deck = Deck::parse(deck_text).map_err(|e| format!("campaign deck: {}", e.0))?;
    match build(&deck).map_err(|e| format!("campaign deck: {}", e.0))? {
        BuiltRun::Campaign(setup) => Ok(*setup),
        _ => Err("campaign deck did not build a campaign".into()),
    }
}

/// Fold the allgathered per-rank dump fingerprints (rank order) into one
/// world fingerprint, as `vpic-run` writes it to `state_fingerprint.txt`.
pub fn world_fingerprint(fps: &[u32]) -> u32 {
    let bytes: Vec<u8> = fps.iter().flat_map(|fp| fp.to_le_bytes()).collect();
    fingerprint32(&bytes)
}

/// What one rank brings back from a world.
pub struct RankRun {
    pub rank: usize,
    pub outcome: CampaignOutcome,
    /// Combined world fingerprint, `None` if the campaign degraded.
    pub world_fingerprint: Option<u32>,
    pub entered: Instant,
    pub loaded: Instant,
    pub timings: DistTimings,
    pub migrated: u64,
    /// Traced runs: per-step intervals (s) and the rank-checkpoint
    /// `(bytes, write s, restore s, round trip exact)`.
    pub step_s: Vec<f64>,
    pub checkpoint: Option<(u64, f64, f64, bool)>,
}

/// Launch the deck's world over its transport and run the campaign on
/// every rank. `dir` holds checkpoints, sockets and the fingerprint file.
pub fn run_world(
    setup: &CampaignSetup,
    dir: &Path,
    tracer: &Tracer,
    run: u32,
    parent: SpanId,
) -> Result<(Vec<RankRun>, TrafficReport, Instant), String> {
    let cfg = setup.config(dir);
    std::fs::create_dir_all(&cfg.checkpoint_dir).map_err(|e| e.to_string())?;
    let fingerprint_path = dir.join("state_fingerprint.txt");
    let traced = tracer.enabled();
    let worker = |comm: &mut Comm| -> Result<RankRun, String> {
        let entered = Instant::now();
        let rank = comm.rank();
        let track = 1 + rank as u32;
        let sim = tracer.span("parallel.load", parent, run, track, |_| {
            setup.build_rank(rank)
        });
        let loaded = Instant::now();
        let inner = setup.drive_for(rank);
        // Traced runs time each step from the campaign's per-step drive
        // call (the laser antenna hook), the only per-step seam visible
        // from outside the campaign loop.
        let marks: Mutex<Vec<Instant>> = Mutex::new(Vec::new());
        let drive = |f: &mut FieldArray, g: &Grid, step: u64| {
            if traced {
                marks
                    .lock()
                    .expect("step marks poisoned")
                    .push(Instant::now());
            }
            inner(f, g, step)
        };
        let span = tracer.begin("parallel.campaign", parent, run, track);
        let (sim, outcome) =
            run_campaign_with(comm, sim, &cfg, drive).map_err(|e| e.to_string())?;
        let world_fingerprint = match outcome.end {
            CampaignEnd::Completed => {
                let dump = dump_rank_bytes(&sim, false).map_err(|e| e.to_string())?;
                let fps = comm
                    .allgather(fingerprint32(&dump))
                    .map_err(|e| e.to_string())?;
                let world = world_fingerprint(&fps);
                if rank == 0 {
                    std::fs::write(&fingerprint_path, format!("{world:08x}\n"))
                        .map_err(|e| e.to_string())?;
                }
                Some(world)
            }
            CampaignEnd::Degraded { .. } => None,
        };
        tracer.end(span);
        let marks = marks.into_inner().expect("step marks poisoned");
        for w in marks.windows(2) {
            tracer.record("parallel.step", span, run, track, w[0], w[1]);
        }
        let step_s = marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let checkpoint = if traced {
            Some(time_rank_checkpoint(
                setup,
                &sim,
                rank,
                &cfg.checkpoint_dir,
                tracer,
                run,
            )?)
        } else {
            None
        };
        Ok(RankRun {
            rank,
            world_fingerprint,
            entered,
            loaded,
            timings: sim.timings,
            migrated: sim.migrated,
            step_s,
            checkpoint,
            outcome,
        })
    };
    let launched = Instant::now();
    let (results, traffic) = match setup.transport {
        TransportKind::Local => nanompi::run_with_faults(setup.ranks, None, worker),
        TransportKind::Socket => {
            let sock = dir.join("sock");
            check_socket_dir(&sock, setup.ranks)?;
            std::fs::create_dir_all(&sock).map_err(|e| e.to_string())?;
            nanompi::run_socket_world(setup.ranks, SocketAddrSpec::unix(&sock), None, worker)
        }
    };
    let ranks = results
        .into_iter()
        .map(|r| match r {
            Ok(Ok(rank)) => Ok(rank),
            Ok(Err(e)) => Err(format!("rank failed: {e}")),
            Err(p) => Err(format!("rank {} panicked: {}", p.rank, p.message)),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((ranks, traffic, launched))
}

/// Time `dump_rank_bytes` + `write_bytes_atomic` and
/// `load_rank_from_path` on a rank's final state, and check the restored
/// rank dumps to the same bytes.
fn time_rank_checkpoint(
    setup: &CampaignSetup,
    sim: &vpic::parallel::DistributedSim,
    rank: usize,
    dir: &Path,
    tracer: &Tracer,
    run: u32,
) -> Result<(u64, f64, f64, bool), String> {
    let track = 1 + rank as u32;
    let path: PathBuf = dir.join(format!("final_r{rank}.vpic"));
    let t0 = Instant::now();
    let bytes = tracer.span(
        "parallel.checkpoint.write",
        SpanId::NONE,
        run,
        track,
        |_| {
            let bytes = dump_rank_bytes(sim, setup.compress)?;
            write_bytes_atomic(&path, &bytes, None)?;
            Ok::<_, vpic::core::CheckpointError>(bytes)
        },
    );
    let bytes = bytes.map_err(|e| e.to_string())?;
    let write_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let restored = tracer
        .span(
            "parallel.checkpoint.restore",
            SpanId::NONE,
            run,
            track,
            |_| load_rank_from_path(setup.spec.clone(), rank, setup.pipelines, &path),
        )
        .map_err(|e| e.to_string())?;
    let restore_s = t0.elapsed().as_secs_f64();
    let exact = dump_rank_bytes(&restored, false).map_err(|e| e.to_string())?
        == dump_rank_bytes(sim, false).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&path);
    Ok((bytes.len() as u64, write_s, restore_s, exact))
}

/// One repetition's measurements.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    bootstrap_s: f64,
    load_s: f64,
    ranks: Vec<RankRun>,
    traffic: TrafficReport,
}

fn rep(seed: u64, dir: &Path, tracer: &Tracer, run: u32) -> Result<Rep, String> {
    let t0 = Instant::now();
    let root = tracer.begin("ranks2.run", SpanId::NONE, run, 0);
    let setup = setup_of(&inputs::ranks2_deck(seed, "socket"))?;
    let (ranks, traffic, launched) = run_world(&setup, dir, tracer, run, root)?;
    let end = Instant::now();
    tracer.end(root);
    let first_step = ranks.iter().map(|r| r.loaded).max().ok_or("empty world")?;
    let bootstrap = ranks.iter().map(|r| r.entered).max().ok_or("empty world")?;
    let load_s = ranks
        .iter()
        .map(|r| (r.loaded - r.entered).as_secs_f64())
        .fold(0.0, f64::max);
    Ok(Rep {
        setup_s: (first_step - t0).as_secs_f64(),
        wall_s: (end - first_step).as_secs_f64(),
        bootstrap_s: (bootstrap.max(launched) - launched).as_secs_f64(),
        load_s,
        ranks,
        traffic,
    })
}

/// The local-transport twin's world fingerprint (untimed).
pub fn twin(seed: u64, dir: &Path) -> Result<u32, String> {
    let setup = setup_of(&inputs::ranks2_deck(seed, "local"))?;
    let (ranks, _, _) = run_world(&setup, dir, &Tracer::new(false), 0, SpanId::NONE)?;
    let _ = std::fs::remove_dir_all(dir);
    ranks
        .first()
        .and_then(|r| r.world_fingerprint)
        .ok_or_else(|| "local twin did not complete".to_string())
}

pub fn run(
    seed: u64,
    budget: f64,
    tracer: &Tracer,
    scratch: &Path,
    twin_cache: &mut Option<u32>,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let mut reps: Vec<Rep> = Vec::new();
    // The budget counts timed work only; the checks run outside it.
    while reps.len() < MIN_REPS || reps.iter().map(|r| r.setup_s + r.wall_s).sum::<f64>() < budget {
        let dir = scratch.join(format!("w{}", reps.len()));
        let r = rep(seed, &dir, tracer, reps.len() as u32)?;
        let _ = std::fs::remove_dir_all(&dir);
        reps.push(r);
        out.set_once("peak_rss_mb", crate::procfs::peak_rss_mb());
    }
    let twin_fp = match *twin_cache {
        Some(fp) => fp,
        None => *twin_cache.insert(twin(seed, &scratch.join("twin"))?),
    };
    for r in &reps {
        for rank in &r.ranks {
            out.check(
                &format!("ranks2_socket rank {}", rank.rank),
                checks::ranks2_rank(
                    rank.world_fingerprint,
                    twin_fp,
                    rank.outcome.recoveries.len(),
                ),
            );
        }
    }

    let col = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let pushes = |r: &Rep| {
        r.ranks
            .iter()
            .map(|k| k.timings.particle_steps)
            .sum::<u64>() as f64
    };
    out.set("setup_s", median(&col(&|r| r.setup_s)));
    out.set("wall_s", median(&col(&|r| r.wall_s)));
    out.set(
        "particle_advances_per_s",
        median(&col(&|r| pushes(r) / r.wall_s)),
    );
    out.set(
        "ops_per_hour",
        median(&col(&|r| {
            r.ranks.len() as f64 * 3600.0 / (r.setup_s + r.wall_s)
        })),
    );
    out.note("rep_setup_s", json_list(&col(&|r| r.setup_s)));
    out.note("rep_wall_s", json_list(&col(&|r| r.wall_s)));
    out.note("twin_fingerprint", format!("\"{twin_fp:08x}\""));

    if tracer.enabled() {
        let steps = inputs::RANKS2_STEPS as f64;
        let last = reps.last().expect("at least one repetition");
        out.set(
            "nanompi.messages_per_step",
            last.traffic.total_messages as f64 / steps,
        );
        out.set(
            "nanompi.bytes_per_step",
            last.traffic.total_bytes as f64 / steps,
        );
        out.set(
            "parallel.migrants_per_step",
            last.ranks.iter().map(|k| k.migrated).sum::<u64>() as f64 / steps,
        );
        let per_rank_step = |f: &dyn Fn(&DistTimings) -> f64| {
            median(&col(&|r| {
                r.ranks.iter().map(|k| f(&k.timings)).sum::<f64>() / (r.ranks.len() as f64 * steps)
            }))
        };
        out.set(
            "parallel.exchange.s_per_step",
            per_rank_step(&|t| t.exchange),
        );
        out.set("parallel.migrate.s_per_step", per_rank_step(&|t| t.migrate));
        out.set(
            "parallel.push.ns_per_particle",
            median(&col(&|r| {
                r.ranks.iter().map(|k| k.timings.push).sum::<f64>() / pushes(r) * 1e9
            })),
        );
        out.set(
            "parallel.comm_fraction",
            median(&col(&|r| {
                r.ranks
                    .iter()
                    .map(|k| k.timings.comm_fraction())
                    .sum::<f64>()
                    / r.ranks.len() as f64
            })),
        );
        out.set(
            "parallel.push_imbalance",
            median(&col(&|r| {
                let push: Vec<f64> = r.ranks.iter().map(|k| k.timings.push).collect();
                let mean = push.iter().sum::<f64>() / push.len() as f64;
                push.iter().copied().fold(0.0, f64::max) / mean
            })),
        );
        let step_s: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.ranks.iter().flat_map(|k| k.step_s.iter().copied()))
            .collect();
        set_step_metrics("parallel.step_ms", &step_s, out);
        let ckpts: Vec<(u64, f64, f64, bool)> = reps
            .iter()
            .flat_map(|r| r.ranks.iter().filter_map(|k| k.checkpoint))
            .collect();
        if ckpts.iter().any(|c| !c.3) {
            out.check(
                "ranks2_socket rank checkpoint round trip",
                Err("a restored rank dumps different bytes".into()),
            );
        }
        out.set(
            "parallel.checkpoint.bytes_per_rank",
            median(&ckpts.iter().map(|c| c.0 as f64).collect::<Vec<_>>()),
        );
        out.set(
            "parallel.checkpoint.write_MBps",
            median(
                &ckpts
                    .iter()
                    .map(|c| c.0 as f64 / c.1 / 1e6)
                    .collect::<Vec<_>>(),
            ),
        );
        out.set(
            "parallel.checkpoint.restore_MBps",
            median(
                &ckpts
                    .iter()
                    .map(|c| c.0 as f64 / c.2 / 1e6)
                    .collect::<Vec<_>>(),
            ),
        );
        out.set("setup.bootstrap_s", median(&col(&|r| r.bootstrap_s)));
        out.set("setup.load_s", median(&col(&|r| r.load_s)));
    }
    Ok(Pass {
        wall_s: median(&col(&|r| r.wall_s)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_socket_dirs_fail_fast() {
        assert!(check_socket_dir(Path::new(".bench_out/tmp/r1/w0/sock"), 2).is_ok());
        let deep = "d/".repeat(60);
        let err = check_socket_dir(Path::new(&deep), 2).unwrap_err();
        assert!(err.contains("sun_path"), "{err}");
    }

    #[test]
    fn generated_deck_builds_the_two_rank_campaign() {
        let setup = setup_of(&inputs::ranks2_deck(4, "socket")).expect("generated deck builds");
        assert_eq!(setup.ranks, 2);
        assert_eq!(setup.transport, TransportKind::Socket);
        assert_eq!(setup.steps, inputs::RANKS2_STEPS);
        assert!(setup.laser.is_some() && setup.sponge.is_some() && setup.compress);
        let twin = setup_of(&inputs::ranks2_deck(4, "local")).expect("twin deck builds");
        assert_eq!(twin.transport, TransportKind::Local);
        assert_eq!(twin.seed, setup.seed);
    }

    #[test]
    fn world_fingerprint_folds_in_rank_order() {
        assert_ne!(world_fingerprint(&[1, 2]), world_fingerprint(&[2, 1]));
        assert_eq!(world_fingerprint(&[1, 2]), world_fingerprint(&[1, 2]));
    }
}
