//! Pieces every workload shares: options, the set-up repetition, and the
//! end-to-end and per-class figures.

use std::time::{Duration, Instant};

use crate::report::Report;
use crate::stats::{self, Class};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for on-disk databases (inside the checkout).
    pub workdir: std::path::PathBuf,
}

impl Opts {
    /// Time the untraced statement loop runs for. A traced run spends
    /// half of its time untraced (the baseline of the tracing overhead)
    /// and half traced.
    pub fn untraced(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }

    /// Time each of the two traced sub-phases runs for: statements with
    /// counter reads, then statements with plan and profile probes.
    pub fn traced_part(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 4.0)
    }
}

/// The untraced loop runs in this many segments, each on a fresh set-up.
/// Where the operating system places a run's threads and worker
/// processes decides much of its speed on a small shared host; fresh
/// fixtures within one run average that luck instead of letting one
/// placement decide the whole run. `setup_s` is the median of the
/// segments' set-up times.
///
/// Every time is taken net of the CPU time the hypervisor stole (see
/// [`unstolen`]), and the figures use the quiet segments (see
/// [`quiet_segments`]). On the shared host the benchmark was sized on,
/// steal came in bursts of up to 45% of CPU time, sometimes covering
/// whole runs, and halved every raw figure while it lasted.
pub const SEGMENTS: usize = 20;

/// Run `f` and return its result with the share of the machine's CPU
/// time the hypervisor did not steal meanwhile (1.0 on a quiet host).
/// A time multiplied by that share is the time the machine actually ran:
/// the benchmark keeps both of the host's CPUs busy, so under steal `s`
/// its work stretches by about `1 / (1 - s)`.
pub fn unstolen<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = crate::host::cpu_ticks();
    let out = f();
    (
        out,
        1.0 - crate::host::steal_share(before, crate::host::cpu_ticks()),
    )
}

/// What the untraced segments measured.
pub struct Segments<T> {
    /// The last segment's fixture, still set up, for the traced phases.
    pub fixture: T,
    /// Which segments the figures use, by segment number less one.
    pub keep: Vec<bool>,
    /// Share of CPU time not stolen during each segment.
    pub active: Vec<f64>,
    /// Median over the kept segments of the statements that succeeded
    /// per second.
    pub stmts_per_s: f64,
    /// Statements that succeeded in all segments.
    pub statements: usize,
    /// Resident set right after the first set-up, and at the end.
    pub rss_ready_mb: f64,
    pub rss_end_mb: f64,
}

/// Set up and measure [`SEGMENTS`] times, for `opts.untraced()` in
/// total. Each set-up is timed into `setup_s`, net of the steal over all
/// set-ups; `measure` runs the closed loop on the fixture until the given
/// instant, starting a new segment in its classes, and returns how many
/// statements succeeded.
///
/// `peak_rss_mb` is the process's peak resident set once `peak_after`
/// statements of the first segment have ended: it covers load and
/// execution memory, and a fixed statement count keeps a leak from tying
/// it to throughput.
pub fn segments<T>(
    r: &mut Report,
    opts: &Opts,
    peak_after: u64,
    mut setup: impl FnMut(usize) -> jaguar_core::Result<T>,
    mut measure: impl FnMut(&mut T, Instant, &mut Report) -> usize,
) -> jaguar_core::Result<Segments<T>> {
    let per = opts.untraced() / SEGMENTS as u32;
    let mut times = Vec::new();
    let mut rates = Vec::new();
    let mut statements = 0;
    let mut rss_ready_mb = 0.0;
    let mut active = Vec::new();
    // (steal, total) ticks over all set-ups: one set-up is too short for
    // the 10 ms tick counters to give its own steal share.
    let mut setup_ticks = (0, 0);
    let mut last = None;
    for i in 0..SEGMENTS {
        // Drop the previous fixture first so segments do not overlap.
        drop(last.take());
        let t = Instant::now();
        let before = crate::host::cpu_ticks();
        let mut f = setup(i)?;
        times.push(t.elapsed().as_secs_f64());
        let after = crate::host::cpu_ticks();
        setup_ticks.0 += after.0.saturating_sub(before.0);
        setup_ticks.1 += after.1.saturating_sub(before.1);
        if i == 0 {
            rss_ready_mb = crate::host::rss_mb();
            crate::host::arm_peak(peak_after);
        }
        let start = Instant::now();
        let (ok, share) = unstolen(|| measure(&mut f, start + per, r));
        if i == 0 {
            // A traced run's segments are half as long and it does not
            // report `peak_rss_mb`.
            let peak = crate::host::take_peak().unwrap_or_else(|| {
                if !opts.trace {
                    r.note(format!(
                        "peak_rss_mb read when the first segment ended, before \
                         {peak_after} statements"
                    ));
                }
                crate::host::peak_rss_mb()
            });
            r.set("peak_rss_mb", peak);
        }
        statements += ok;
        rates.push(ok as f64 / (start.elapsed().as_secs_f64() * share));
        active.push(share);
        last = Some(f);
    }
    let steal: Vec<f64> = active.iter().map(|a| 1.0 - a).collect();
    let keep = quiet_segments(&steal);
    let setup_share = 1.0 - crate::host::steal_share((0, 0), setup_ticks);
    r.note(format!(
        "setup_s samples: {times:?}, times {setup_share:.4} not stolen"
    ));
    r.note(format!("stmts_per_s by segment (net of steal): {rates:?}"));
    r.note(format!("hypervisor steal by segment: {steal:.3?}"));
    r.note(format!("segments used (quiet): {keep:?}"));
    r.set("setup_s", stats::median(&times) * setup_share);
    let kept_rates: Vec<f64> = rates
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(&rate, _)| rate)
        .collect();
    Ok(Segments {
        fixture: last.expect("at least one segment"),
        keep,
        active,
        stmts_per_s: stats::median(&kept_rates),
        statements,
        rss_ready_mb,
        rss_end_mb: crate::host::rss_mb(),
    })
}

/// Steal within this share of CPU time of the quietest segment counts as
/// quiet: the figures are already net of steal, and a segment is only
/// dropped when a burst may have distorted it beyond that correction.
pub const QUIET_MARGIN: f64 = 0.05;

/// The segments the figures use: every segment whose steal is within
/// [`QUIET_MARGIN`] of the least, and at least the least-stolen half
/// (ties kept), so a burst over fewer than half of them moves no figure.
pub fn quiet_segments(steal: &[f64]) -> Vec<bool> {
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let half = sorted[(sorted.len().max(1) - 1) / 2];
    let cut = half.max(sorted[0] + QUIET_MARGIN);
    steal.iter().map(|&s| s <= cut).collect()
}

/// Resident-set growth over the untraced loop, per statement that
/// succeeded: a leak shows here instead of tying `peak_rss_mb` to
/// throughput.
pub fn rss_growth<T>(r: &mut Report, seg: &Segments<T>) {
    r.set(
        "mem.rss_growth_kb_per_stmt",
        (seg.rss_end_mb - seg.rss_ready_mb).max(0.0) * 1024.0 / seg.statements.max(1) as f64,
    );
}

/// The end-to-end metrics from the untraced segments. Takes every
/// latency net of its segment's steal and drops the samples of the
/// segments `seg.keep` leaves out, so every later figure taken from
/// `classes` uses the same segments.
pub fn end_to_end<T>(r: &mut Report, classes: &mut [Class], seg: &Segments<T>) {
    for c in classes.iter_mut() {
        c.scale(|s| seg.active.get(s.wrapping_sub(1)).copied().unwrap_or(1.0));
        c.keep_segments(&seg.keep);
    }
    let all = stats::all_samples(classes);
    r.set("stmts_per_s", seg.stmts_per_s);
    r.set("rows_per_s", stats::rows_per_s(classes));
    r.set("stmt_p50_ms", stats::mix_p50(classes));
    let tail = stats::tail(&all);
    r.set("stmt_tail_ms", tail.map_or(f64::NAN, |t| t.value));
    if let Some(t) = tail {
        r.note(format!(
            "stmt_tail_ms is p{:.3} over {} statements",
            t.percentile, t.samples
        ));
    }
    for c in classes {
        let tail = stats::tail(&c.ms);
        r.note(format!(
            "class {}: n={} p50_ms={:.4} tail_ms={} rows={}",
            c.name,
            c.ms.len(),
            c.median(),
            tail.map_or("n/a".to_string(), |t| format!(
                "{:.4} (p{:.2})",
                t.value, t.percentile
            )),
            c.rows()
        ));
    }
}

/// Statement-class figures reported with the per-layer metrics: the
/// failure share of the statements counted so far, and read and write
/// latency split by class name.
pub fn class_metrics(r: &mut Report, classes: &[Class], reads: &[&str], writes: &[&str]) {
    r.set("failed_frac", r.failed as f64 / r.attempted.max(1) as f64);
    for (names, p50, tail) in [
        (reads, "read_p50_ms", "read_tail_ms"),
        (writes, "write_p50_ms", "write_tail_ms"),
    ] {
        let v: Vec<f64> = classes
            .iter()
            .filter(|c| names.contains(&c.name.as_str()))
            .flat_map(|c| c.ms.iter().copied())
            .collect();
        if v.is_empty() {
            r.absent(p50, "the workload has no statements of this kind");
            r.absent(tail, "the workload has no statements of this kind");
        } else {
            r.set(p50, stats::median(&v));
            r.set(tail, stats::tail(&v).map_or(f64::NAN, |t| t.value));
        }
    }
}

/// Traced-over-untraced statement time, less one: each class is weighted
/// by its untraced statement count. Both sides are net of steal: the
/// caller scales the traced classes by [`unstolen`]'s share for the
/// traced phase.
pub fn tracing_overhead(untraced: &[Class], traced: &[Class]) -> f64 {
    let (mut base, mut with) = (0.0, 0.0);
    for (u, t) in untraced.iter().zip(traced) {
        if u.ms.is_empty() || t.ms.is_empty() {
            continue;
        }
        base += u.ms.len() as f64 * u.median();
        with += u.ms.len() as f64 * t.median();
    }
    if base > 0.0 && base.is_finite() && with.is_finite() {
        with / base - 1.0
    } else {
        0.0
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_quiet_segments_and_at_least_half() {
        // A burst over a minority of the segments is dropped.
        assert_eq!(
            quiet_segments(&[0.3, 0.0, 0.1, 0.4]),
            vec![false, true, true, false]
        );
        // Steal within the margin of the quietest keeps every segment.
        assert!(quiet_segments(&[0.0, 0.03, 0.01, 0.05]).iter().all(|&k| k));
        assert!(quiet_segments(&[0.0; 10]).iter().all(|&k| k));
        assert_eq!(quiet_segments(&[0.2; 3]), vec![true; 3]);
        // A burst over most of the run still leaves the least-stolen half.
        assert_eq!(
            quiet_segments(&[0.0, 0.3, 0.35, 0.4]),
            vec![true, true, false, false]
        );
    }
}
