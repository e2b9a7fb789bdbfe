//! Metric names, the error log, and the one-line JSON result.

use std::collections::BTreeMap;

/// A metric the benchmark reports, with its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Reported by every workload with tracing off (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("stmts_per_s", "1/s"),
    m("rows_per_s", "1/s"),
    m("stmt_p50_ms", "ms"),
    m("stmt_tail_ms", "ms"),
];

/// Reported by every workload with tracing on (`--trace 1`). A layer a
/// workload does not exercise reports 0 and says why on stdout.
pub const PER_LAYER: &[MetricDef] = &[
    // Statement classes (from the untraced half of the traced run).
    m("failed_frac", "ratio"),
    m("read_p50_ms", "ms"),
    m("read_tail_ms", "ms"),
    m("write_p50_ms", "ms"),
    m("write_tail_ms", "ms"),
    m("log_bytes_per_write", "B"),
    m("trace.overhead_frac", "ratio"),
    m("mem.rss_growth_kb_per_stmt", "KB"),
    // sql
    m("sql.plan_us", "us"),
    m("sql.rows_examined_per_row", "rows/row"),
    m("sql.op_self_us.SeqScan", "us/stmt"),
    m("sql.op_self_us.IndexScan", "us/stmt"),
    m("sql.op_self_us.Filter", "us/stmt"),
    m("sql.op_self_us.Project", "us/stmt"),
    m("sql.op_self_us.Aggregate", "us/stmt"),
    m("sql.op_self_us.Gather", "us/stmt"),
    // storage
    m("storage.scan_ns_per_row", "ns"),
    m("storage.fetches_per_row", "fetch/row"),
    m("storage.hit_ratio", "ratio"),
    m("storage.evictions_per_stmt", "count/stmt"),
    m("storage.writebacks_per_stmt", "count/stmt"),
    m("storage.latch_waits_per_stmt", "count/stmt"),
    // sec
    m("sec.decrypt_us_per_page", "us"),
    m("sec.pages_decrypted_per_stmt", "count/stmt"),
    m("sec.label_rewrites", "count/stmt"),
    // wal
    m("wal.bytes_per_commit", "B"),
    m("wal.fsyncs_per_commit", "count"),
    m("wal.commit_mean_us", "us"),
    // net and retry
    m("net.ping_rtt_us", "us"),
    m("net.wire_overhead_us", "us"),
    m("net.admission_wait_us", "us"),
    m("retry.attempts", "count"),
    // udf, vec, ipc, pool
    m("udf.invoke_ns", "ns"),
    m("udf.batch_ns_per_row", "ns"),
    m("udf.instantiate_us", "us"),
    m("vec.rows_per_crossing", "rows"),
    m("ipc.callback_rtt_us", "us"),
    m("ipc.bytes_per_row", "B"),
    m("ipc.crossings_per_row", "count/row"),
    m("pool.checkout_us", "us"),
    m("pool.reuse_ratio", "ratio"),
    m("pool.queue_waits", "count"),
    // vm and lang
    m("vm.instructions_per_row", "count/row"),
    m("vm.compiled_hit_ratio", "ratio"),
    m("vm.fallbacks", "count"),
    m("lang.compile_us", "us"),
    m("vm.verify_us", "us"),
    // opt and par
    m("opt.inlined", "count/stmt"),
    m("opt.backend_instances", "count/stmt"),
    m("par.busy_frac", "ratio"),
    m("par.morsels_per_stmt", "count/stmt"),
];

/// Statement errors grouped by kind (the message with digit runs
/// replaced by `N`), keeping the first full text of each kind.
#[derive(Debug, Default)]
pub struct ErrorLog {
    kinds: BTreeMap<String, (u64, String)>,
}

impl ErrorLog {
    pub fn record(&mut self, text: &str) {
        let e = self
            .kinds
            .entry(error_kind(text))
            .or_insert_with(|| (0, text.to_string()));
        e.0 += 1;
    }

    pub fn merge(&mut self, other: ErrorLog) {
        for (kind, (n, first)) in other.kinds {
            self.kinds.entry(kind).or_insert((0, first)).0 += n;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    pub fn lines(&self) -> Vec<String> {
        self.kinds
            .values()
            .map(|(n, first)| format!("{n} x {first}"))
            .collect()
    }
}

pub fn error_kind(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_digits = false;
    for ch in text.chars() {
        if ch.is_ascii_digit() {
            if !in_digits {
                out.push('N');
            }
            in_digits = true;
        } else {
            out.push(ch);
            in_digits = false;
        }
    }
    out
}

/// How one statement ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Ok,
    /// The engine answered, but not what the reference says.
    Wrong(String),
    /// The engine returned an error.
    Error(String),
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// Statements that returned an error or a wrong answer.
    pub failed: u64,
    /// Statements (or end-of-run checks) whose answer was wrong.
    pub wrong: u64,
    pub errors: ErrorLog,
    values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Count one statement; `label` names its class in the error log.
    pub fn count(&mut self, label: &str, outcome: &Outcome) {
        crate::host::statement_counted();
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Wrong(e) => {
                self.failed += 1;
                self.wrong += 1;
                self.errors.record(&format!("wrong answer ({label}): {e}"));
            }
            Outcome::Error(e) => {
                self.failed += 1;
                self.errors.record(e);
            }
        }
    }

    /// Add another report's statement counts and errors (one client
    /// thread's share of a phase).
    pub fn merge_counts(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.errors.merge(other.errors);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A metric the workload does not exercise at all (no statement of
    /// the kind, no worker pool): reported as 0, with the reason on
    /// stdout. For a probe that ran and failed use [`Report::probe_failed`].
    pub fn absent(&mut self, name: &'static str, why: &str) {
        self.values.insert(name, 0.0);
        self.notes.push(format!("absent {name}: {why}"));
    }

    /// A layer probe that should have measured `names` failed. The
    /// metrics read `null`, not a 0 that compares as the best value, and
    /// the probe counts as a failed operation with its error text.
    pub fn probe_failed(&mut self, names: &[&'static str], probe: &str, error: &str) {
        for &name in names {
            self.values.insert(name, f64::NAN);
            self.notes.push(format!("null {name}: the {probe} failed"));
        }
        self.count(probe, &Outcome::Error(format!("{probe}: {error}")));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The final stdout line. Panics if a declared metric was never set,
    /// which is a bug in the workload.
    pub fn result_line(&self, trace: bool) -> String {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(d.name),
                    json_num(v),
                    json_str(d.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives. `+∞` (every sample failed) and NaN (a failed probe) have no
/// JSON spelling and become `null`; the stdout notes say why.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let mut r = Report::default();
            for d in defs {
                r.set(d.name, 1.5);
            }
            r.attempted = 3;
            let line = r.result_line(trace);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
            for d in defs {
                let want = format!(
                    "{}: {{\"value\": 1.5, \"unit\": {}}}",
                    json_str(d.name),
                    json_str(d.unit)
                );
                assert!(line.contains(&want), "{} missing from {line}", d.name);
            }
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        Report::default().result_line(false);
    }

    #[test]
    fn wrong_answers_make_the_run_incorrect_and_errors_only_failed() {
        let mut r = Report::default();
        for d in END_TO_END {
            r.set(d.name, 1.0);
        }
        r.count("q", &Outcome::Ok);
        r.count("q", &Outcome::Error("slot 3 is deleted".into()));
        assert!(r
            .result_line(false)
            .starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 1"));
        let mut other = Report::default();
        other.count("q", &Outcome::Wrong("row 17".into()));
        r.merge_counts(other);
        assert!(r
            .result_line(false)
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 2"));
        assert_eq!(
            r.errors.lines(),
            vec!["1 x slot 3 is deleted", "1 x wrong answer (q): row 17"]
        );
    }

    #[test]
    fn error_kinds_fold_numbers() {
        let mut log = ErrorLog::default();
        log.record("storage error: slot 17 is deleted");
        log.record("storage error: slot 4 is deleted");
        log.record("buffer pool exhausted");
        assert_eq!(
            log.lines(),
            vec![
                "1 x buffer pool exhausted".to_string(),
                "2 x storage error: slot 17 is deleted".to_string()
            ]
        );
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_num(1.2034567891234), "1.2034567891234");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn a_failed_probe_reads_null_and_counts_as_failed() {
        let mut r = Report::default();
        for d in PER_LAYER {
            r.set(d.name, 1.0);
        }
        r.probe_failed(&["net.ping_rtt_us"], "net probe", "connection refused");
        let line = r.result_line(true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 1"));
        assert!(line.contains("\"net.ping_rtt_us\": {\"value\": null, \"unit\": \"us\"}"));
        assert_eq!(r.errors.lines(), vec!["1 x net probe: connection refused"]);
    }
}
