//! Output checks against the repository's own oracles. Each returns
//! `Err(reason)` for one failed operation; the workloads count them into
//! `failed_fraction`.

use std::collections::BTreeMap;

/// `bulk3d`: the end state must match the AoS-scalar oracle's bit for
/// bit (`fingerprint32` of the `checkpoint::save` bytes), conserve the
/// particle count and hold only finite values.
pub fn bulk3d(
    fingerprint: u32,
    oracle_fingerprint: u32,
    particles: (usize, usize),
    all_finite: bool,
) -> Result<(), String> {
    if fingerprint != oracle_fingerprint {
        return Err(format!(
            "end-state fingerprint {fingerprint:08x} != AoS-scalar oracle {oracle_fingerprint:08x}"
        ));
    }
    if particles.0 != particles.1 {
        return Err(format!(
            "particle count not conserved: {} -> {}",
            particles.0, particles.1
        ));
    }
    if !all_finite {
        return Err("non-finite value in the end state".into());
    }
    Ok(())
}

/// One settled sweep point as the curve reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    pub job: u64,
    /// `Some(state_fingerprint)` when the point is done.
    pub state_fingerprint: Option<u32>,
    pub quarantined: bool,
}

/// What the sweep's accounting must show, per job.
pub struct SweepExpect {
    pub steps: u64,
    /// The job that took the NaN upset, the steps its rollback replays
    /// and the state fingerprint of a fault-free run of that point.
    pub upset_job: u64,
    pub upset_replay: u64,
    pub upset_oracle_fingerprint: u32,
}

/// `lpi_sweep`, one grid point: done and not quarantined; its steps,
/// summed over both orchestrator incarnations, are exactly the planned
/// steps (no step past a certified checkpoint re-run), except that the
/// upset job also replays exactly the steps its rollback restored — and
/// then ends bit-identical with a fault-free run.
pub fn sweep_point(
    p: &SweepPoint,
    steps_by_job: &BTreeMap<u64, u64>,
    expect: &SweepExpect,
) -> Result<(), String> {
    if p.quarantined {
        return Err("point was quarantined".into());
    }
    let Some(fp) = p.state_fingerprint else {
        return Err("point did not reach Done".into());
    };
    let ran = steps_by_job.get(&p.job).copied().unwrap_or(0);
    let replay = if p.job == expect.upset_job {
        expect.upset_replay
    } else {
        0
    };
    if ran != expect.steps + replay {
        return Err(format!(
            "ran {ran} steps over both incarnations, expected {} + {replay} replayed",
            expect.steps
        ));
    }
    if p.job == expect.upset_job && fp != expect.upset_oracle_fingerprint {
        return Err(format!(
            "upset point state {fp:08x} != fault-free run {:08x}",
            expect.upset_oracle_fingerprint
        ));
    }
    Ok(())
}

/// `ranks2_socket`, one rank: the socket world's combined end-state
/// fingerprint equals the local-transport twin's, and the campaign ran
/// without recoveries.
pub fn ranks2_rank(
    world_fingerprint: Option<u32>,
    twin_fingerprint: u32,
    recoveries: usize,
) -> Result<(), String> {
    let Some(fp) = world_fingerprint else {
        return Err("rank did not complete".into());
    };
    if fp != twin_fingerprint {
        return Err(format!(
            "socket world state {fp:08x} != local twin {twin_fingerprint:08x}"
        ));
    }
    if recoveries > 0 {
        return Err(format!(
            "{recoveries} recovery(ies) in a fault-free campaign"
        ));
    }
    Ok(())
}

/// Fold per-incarnation step ledgers into one per-job total.
pub fn total_steps<'a>(
    ledgers: impl IntoIterator<Item = &'a BTreeMap<u64, u64>>,
) -> BTreeMap<u64, u64> {
    let mut total = BTreeMap::new();
    for ledger in ledgers {
        for (&job, &steps) in ledger {
            *total.entry(job).or_insert(0) += steps;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Outcome;

    #[test]
    fn forged_fingerprint_fails_bulk3d() {
        let mut o = Outcome::default();
        o.check("run", bulk3d(0xdead_beef, 0xdead_beef, (8, 8), true));
        o.check("run", bulk3d(0xdead_beef ^ 1, 0xdead_beef, (8, 8), true));
        o.check("run", bulk3d(1, 1, (8, 7), true));
        o.check("run", bulk3d(1, 1, (8, 8), false));
        assert_eq!((o.attempted, o.failed), (4, 3));
        assert!(o.failures[0].contains("oracle"));
    }

    fn expect() -> SweepExpect {
        SweepExpect {
            steps: 100,
            upset_job: 1,
            upset_replay: 30,
            upset_oracle_fingerprint: 0xabc,
        }
    }

    #[test]
    fn quarantined_point_fails_the_sweep_check() {
        let ledger = BTreeMap::from([(0, 100), (1, 130)]);
        let mut o = Outcome::default();
        let ok = SweepPoint {
            job: 0,
            state_fingerprint: Some(7),
            quarantined: false,
        };
        o.check("point 0", sweep_point(&ok, &ledger, &expect()));
        assert_eq!(o.failed_fraction(), 0.0);
        let quarantined = SweepPoint {
            job: 0,
            state_fingerprint: None,
            quarantined: true,
        };
        o.check("point 0", sweep_point(&quarantined, &ledger, &expect()));
        assert_eq!(o.failed_fraction(), 0.5);
    }

    #[test]
    fn sweep_check_audits_replays_and_the_upset_twin() {
        let e = expect();
        let upset = SweepPoint {
            job: 1,
            state_fingerprint: Some(0xabc),
            quarantined: false,
        };
        assert!(sweep_point(&upset, &BTreeMap::from([(1, 130)]), &e).is_ok());
        // A re-run past a certified checkpoint shows up as extra steps.
        assert!(sweep_point(&upset, &BTreeMap::from([(1, 140)]), &e).is_err());
        // No rollback at all is just as wrong.
        assert!(sweep_point(&upset, &BTreeMap::from([(1, 100)]), &e).is_err());
        let drifted = SweepPoint {
            state_fingerprint: Some(0xabd),
            ..upset
        };
        assert!(sweep_point(&drifted, &BTreeMap::from([(1, 130)]), &e).is_err());
    }

    #[test]
    fn twin_mismatch_fails_every_rank() {
        let mut o = Outcome::default();
        for _ in 0..2 {
            o.check("rank", ranks2_rank(Some(5), 5, 0));
        }
        for _ in 0..2 {
            o.check("rank", ranks2_rank(Some(5), 6, 0));
        }
        o.check("rank", ranks2_rank(Some(5), 5, 1));
        o.check("rank", ranks2_rank(None, 5, 0));
        assert_eq!((o.attempted, o.failed), (6, 4));
    }

    #[test]
    fn ledgers_fold_across_incarnations() {
        let a = BTreeMap::from([(0, 100), (1, 40)]);
        let b = BTreeMap::from([(1, 60)]);
        assert_eq!(total_steps([&a, &b]), BTreeMap::from([(0, 100), (1, 100)]));
    }
}
