//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can report is named here once, with its
//! unit. An untraced run prints every end-to-end metric; a traced run
//! prints every per-layer metric, with `0` for a layer the workload does
//! not drive (the per-layer predictions table in `perfbench/README.md`
//! says which layers each workload exercises).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Never zero on any workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("particle_advances_per_s", "1/s"),
    ("ops_per_hour", "1/h"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core (vpic-core)
    ("core.step_ms.p50", "ms"),
    ("core.step_ms.tail", "ms"),
    ("core.step_ms.tail_pct", "%"),
    ("core.step_ms.samples", "count"),
    ("core.push.ns_per_particle", "ns"),
    ("core.push.inner_loop_fraction", "ratio"),
    ("core.push.gflops", "Gflop/s"),
    ("core.step.gflops", "Gflop/s"),
    ("core.sort.s_per_step", "s"),
    ("core.sort.sorts", "count"),
    ("core.sort.skipped", "count"),
    ("core.cadence.crosser_rate", "ratio"),
    ("core.cadence.spill_rate", "ratio"),
    ("core.cadence.mixed_block_fraction", "ratio"),
    ("core.interpolate.s_per_step", "s"),
    ("core.current.s_per_step", "s"),
    ("core.field.s_per_step", "s"),
    ("core.other.s_per_step", "s"),
    ("core.field.ns_per_voxel", "ns"),
    ("core.current.ns_per_voxel", "ns"),
    ("core.checkpoint.bytes", "B"),
    ("core.checkpoint.save_MBps", "MB/s"),
    ("core.checkpoint.load_MBps", "MB/s"),
    // lpi (vpic-lpi) and diag (vpic-diag)
    ("lpi.point.step_ms.p50", "ms"),
    ("lpi.point.step_ms.tail", "ms"),
    ("lpi.point.step_ms.tail_pct", "%"),
    ("diag.s_per_step", "s"),
    ("diag.published", "count"),
    ("diag.consumed", "count"),
    ("diag.dropped", "count"),
    ("diag.max_depth", "count"),
    ("diag.stall_s", "s"),
    ("lpi.sweep.job_s.p50", "s"),
    ("lpi.sweep.resume_s", "s"),
    ("lpi.sweep.steps_replayed", "count"),
    ("lpi.sweep.attempts", "count"),
    ("lpi.sweep.retries", "count"),
    ("lpi.sweep.wal_bytes", "B"),
    // parallel (vpic-parallel)
    ("parallel.step_ms.p50", "ms"),
    ("parallel.step_ms.tail", "ms"),
    ("parallel.step_ms.tail_pct", "%"),
    ("parallel.push.ns_per_particle", "ns"),
    ("parallel.exchange.s_per_step", "s"),
    ("parallel.migrate.s_per_step", "s"),
    ("parallel.comm_fraction", "ratio"),
    ("parallel.push_imbalance", "ratio"),
    ("parallel.migrants_per_step", "count"),
    ("parallel.checkpoint.bytes_per_rank", "B"),
    ("parallel.checkpoint.write_MBps", "MB/s"),
    ("parallel.checkpoint.restore_MBps", "MB/s"),
    // nanompi
    ("nanompi.messages_per_step", "count"),
    ("nanompi.bytes_per_step", "B"),
    ("nanompi.pingpong_us.local.64B", "us"),
    ("nanompi.pingpong_us.local.64KiB", "us"),
    ("nanompi.pingpong_us.local.1MiB", "us"),
    ("nanompi.pingpong_us.socket.64B", "us"),
    ("nanompi.pingpong_us.socket.64KiB", "us"),
    ("nanompi.pingpong_us.socket.1MiB", "us"),
    ("nanompi.bandwidth_MBps.local", "MB/s"),
    ("nanompi.bandwidth_MBps.socket", "MB/s"),
    ("nanompi.allreduce_us.local", "us"),
    ("nanompi.allreduce_us.socket", "us"),
    // set-up, threads, tracing
    ("setup.load_s", "s"),
    ("setup.bootstrap_s", "s"),
    ("threads.os_peak", "count"),
    ("threads.claimed", "count"),
    ("trace.overhead", "ratio"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (runs, sweep points or ranks).
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Extra record fields: key → JSON value text.
    pub record: BTreeMap<String, String>,
}

impl Outcome {
    /// Set a catalogued metric. Panics on a name outside the catalogue:
    /// that is a bug in this benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(n, _)| *n)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.metrics.insert(key, value);
    }

    /// Set a metric unless an earlier pass already measured it.
    pub fn set_once(&mut self, name: &str, value: f64) {
        if self.get(name).is_none() {
            self.set(name, value);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Count one operation, failed when `check` is an error.
    pub fn check(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            self.failures.push(format!("{what}: {why}"));
        }
    }

    pub fn note(&mut self, key: &str, json_value: String) {
        self.record.insert(key.to_string(), json_value);
    }

    pub fn failed_fraction(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: every end-to-end metric (untraced) or every
    /// per-layer metric (traced). A missing or non-finite end-to-end
    /// value is an error; a per-layer metric the workload does not
    /// measure reads 0.
    pub fn result_json(&self, traced: bool) -> Result<String, String> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut m = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = match (self.metrics.get(name), traced) {
                (Some(v), _) if v.is_finite() => *v,
                (Some(v), _) => return Err(format!("metric {name} is not finite: {v}")),
                (None, true) => 0.0,
                (None, false) => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        ))
    }

    /// Human-readable metric lines, `name = value unit`.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|(n, v)| format!("{n} = {v} {}", unit_of(n).unwrap_or("")))
            .collect()
    }
}

/// A JSON array of numbers.
pub fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_raises_failed_fraction() {
        let mut o = Outcome::default();
        o.check("a", Ok(()));
        assert_eq!(o.failed_fraction(), 0.0);
        o.check("b", Err("forged".into()));
        assert_eq!(o.failed_fraction(), 0.5);
        assert_eq!(o.failures, vec!["b: forged".to_string()]);
    }

    #[test]
    fn result_line_lists_every_catalogued_metric() {
        let mut o = Outcome::default();
        o.check("run", Ok(()));
        assert!(o.result_json(false).is_err(), "end-to-end metrics missing");
        for (n, _) in END_TO_END {
            o.set(n, 1.5);
        }
        let line = o.result_json(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        let traced = o.result_json(true).unwrap();
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        o.set("wall_s", f64::NAN);
        assert!(o.result_json(false).is_err());
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*n), "duplicate metric {n}");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(u.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
