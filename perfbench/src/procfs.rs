//! What the kernel says about this process and host: peak resident set,
//! live OS threads, CPU model and last-level cache.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Value of a `Key:   123 kB`-style line of `/proc/self/status`.
fn status_field(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

fn live_threads() -> Option<u64> {
    status_field("Threads")
}

/// Polls `Threads` in `/proc/self/status` on its own thread and keeps the
/// peak, so the record can state how many OS threads a workload really
/// ran. The sampler itself is excluded from the peak it reports.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl ThreadSampler {
    pub fn start(period: Duration) -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let (s, p) = (stop.clone(), peak.clone());
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                if let Some(n) = live_threads() {
                    p.fetch_max(n, Ordering::Relaxed);
                }
                std::thread::sleep(period);
            }
        });
        ThreadSampler {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    /// Stop sampling and return the peak count of the *other* threads.
    pub fn finish(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().expect("thread sampler panicked");
        }
        self.peak.load(Ordering::Relaxed).saturating_sub(1)
    }
}

/// Host fingerprint fields the process can read for itself.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub l3: String,
}

pub fn host() -> Host {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let l3 = (0..8)
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            (level.trim() == "3")
                .then(|| std::fs::read_to_string(format!("{dir}/size")).ok())
                .flatten()
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
        l3,
    }
}
