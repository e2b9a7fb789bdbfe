//! Host and build stamp, and process memory.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::report::json_str;

/// `nproc`, CPU model, build profile and source revision, as one JSON
/// object. The revision comes from `PERFBENCH_REV` (set by `run.py`: the
/// git commit, or `unknown` outside a git checkout).
pub fn stamp() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rev = std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"profile\": {}, \"rev\": {}}}",
        json_str(&cpu),
        json_str(profile),
        json_str(&rev)
    )
}

/// (steal, total) CPU ticks of the whole machine from `/proc/stat`:
/// steal is time the hypervisor gave this machine's CPUs to someone
/// else, which slows every figure on a shared host.
pub fn cpu_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let fields: Vec<u64> = s
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect();
            Some((fields.get(7).copied().unwrap_or(0), fields.iter().sum()))
        })
        .unwrap_or((0, 0))
}

/// Share of CPU time stolen by the hypervisor between two `cpu_ticks`.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
/// Worker processes of the isolated designs are not included.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process, in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Statements counted since [`arm_peak`], the count at which to read the
/// peak (0: not armed), and the peak read then, in KiB (0: not yet).
static COUNTED: AtomicU64 = AtomicU64::new(0);
static PEAK_AT: AtomicU64 = AtomicU64::new(0);
static PEAK_KB: AtomicU64 = AtomicU64::new(0);

/// Read `VmHWM` once `after` more statements have been counted.
pub fn arm_peak(after: u64) {
    PEAK_KB.store(0, Ordering::SeqCst);
    COUNTED.store(0, Ordering::SeqCst);
    PEAK_AT.store(after, Ordering::SeqCst);
}

/// One statement ended; reads the peak if it was the armed one.
pub fn statement_counted() {
    let at = PEAK_AT.load(Ordering::Relaxed);
    if at != 0 && COUNTED.fetch_add(1, Ordering::Relaxed) + 1 == at {
        PEAK_KB.store((peak_rss_mb() * 1024.0) as u64, Ordering::SeqCst);
    }
}

/// The peak read by [`statement_counted`], in MiB, if the armed count
/// was reached; disarms.
pub fn take_peak() -> Option<f64> {
    PEAK_AT.store(0, Ordering::SeqCst);
    match PEAK_KB.swap(0, Ordering::SeqCst) {
        0 => None,
        kb => Some(kb as f64 / 1024.0),
    }
}
