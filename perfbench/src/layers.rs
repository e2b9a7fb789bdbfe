//! Counter reads and direct probes of single layers, shared by the
//! workloads' traced runs.

use std::time::Instant;

use jaguar_core::obs::HistogramSnapshot;
use jaguar_core::{
    Client, Database, MetricsSnapshot, PoolStatsSnapshot, UdfDef, Value, ValueBatch,
};
use jaguar_udf::generic::IdentityCallbacks;

use crate::report::Report;

/// Median wall time in nanoseconds of `reps` calls of `f`.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let ns: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&ns)
}

/// Counters read at one layer boundary.
pub struct Counters {
    pub metrics: MetricsSnapshot,
    pub table: jaguar_storage::buffer::PoolStats,
    pub workers: Option<PoolStatsSnapshot>,
}

impl Counters {
    pub fn read(db: &Database, table: &str) -> Counters {
        Counters {
            metrics: db.metrics(),
            table: db
                .catalog()
                .table(table)
                .map(|t| t.pool_stats())
                .unwrap_or_default(),
            workers: db.pool_stats(),
        }
    }
}

/// Difference of two counter reads.
pub struct Delta<'a> {
    pub before: &'a Counters,
    pub after: &'a Counters,
}

impl Delta<'_> {
    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .metrics
            .counter(name)
            .saturating_sub(self.before.metrics.counter(name))
    }

    pub fn counters_with_prefix(&self, prefix: &str) -> u64 {
        self.after
            .metrics
            .sum_counters(prefix)
            .saturating_sub(self.before.metrics.sum_counters(prefix))
    }

    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        let empty = HistogramSnapshot::default();
        let a = self.after.metrics.histogram(name).unwrap_or(&empty);
        let b = self.before.metrics.histogram(name).unwrap_or(&empty);
        HistogramSnapshot {
            count: a.count.saturating_sub(b.count),
            sum_us: a.sum_us.saturating_sub(b.sum_us),
            max_us: a.max_us,
            buckets: a
                .buckets
                .iter()
                .enumerate()
                .map(|(i, n)| n.saturating_sub(b.buckets.get(i).copied().unwrap_or(0)))
                .collect(),
        }
    }

    pub fn table(&self) -> (u64, u64, u64, u64) {
        let (a, b) = (self.after.table, self.before.table);
        (
            a.hits - b.hits,
            a.misses - b.misses,
            a.evictions - b.evictions,
            a.writebacks - b.writebacks,
        )
    }

    pub fn workers(&self) -> Option<PoolStatsSnapshot> {
        let (a, b) = (self.after.workers?, self.before.workers?);
        Some(PoolStatsSnapshot {
            spawns: a.spawns - b.spawns,
            reuses: a.reuses - b.reuses,
            crashes: a.crashes - b.crashes,
            timeouts: a.timeouts - b.timeouts,
            queue_waits: a.queue_waits - b.queue_waits,
        })
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-statement and per-row figures from counter deltas taken around
/// the traced statements. `stmts` statements ran, examining
/// `rows_examined` rows and producing `rows_out` rows; `udf_rows` rows
/// went through a UDF; `stmt_ms` is their summed wall time.
#[derive(Debug, Default)]
pub struct Work {
    pub stmts: u64,
    pub rows_examined: u64,
    pub rows_out: u64,
    pub udf_rows: u64,
    pub vm_instructions: u64,
    pub stmt_ms: f64,
}

impl Work {
    /// Add one successful statement.
    pub fn statement(
        &mut self,
        ms: f64,
        rows_examined: u64,
        rows_out: u64,
        udf_rows: u64,
        vm: u64,
    ) {
        self.add(&Work {
            stmts: 1,
            rows_examined,
            rows_out,
            udf_rows,
            vm_instructions: vm,
            stmt_ms: ms,
        });
    }

    pub fn add(&mut self, o: &Work) {
        self.stmts += o.stmts;
        self.rows_examined += o.rows_examined;
        self.rows_out += o.rows_out;
        self.udf_rows += o.udf_rows;
        self.vm_instructions += o.vm_instructions;
        self.stmt_ms += o.stmt_ms;
    }
}

pub fn counter_metrics(r: &mut Report, d: &Delta<'_>, w: &Work, dop: usize) {
    let stmts = w.stmts as f64;
    r.set(
        "sql.rows_examined_per_row",
        ratio(w.rows_examined as f64, w.rows_out as f64),
    );

    let (hits, misses, evictions, writebacks) = d.table();
    r.set(
        "storage.fetches_per_row",
        ratio((hits + misses) as f64, w.rows_examined as f64),
    );
    r.set(
        "storage.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    r.set("storage.evictions_per_stmt", ratio(evictions as f64, stmts));
    r.set(
        "storage.writebacks_per_stmt",
        ratio(writebacks as f64, stmts),
    );
    r.set(
        "storage.latch_waits_per_stmt",
        ratio(d.counter("storage.bufferpool.latch_waits") as f64, stmts),
    );

    r.set(
        "sec.pages_decrypted_per_stmt",
        ratio(
            d.counter(jaguar_sec::metrics::PAGES_DECRYPTED) as f64,
            stmts,
        ),
    );
    r.set(
        "sec.label_rewrites",
        ratio(d.counter(jaguar_sec::metrics::LABEL_REWRITES) as f64, stmts),
    );

    let commits = d.counter("wal.commits") as f64;
    r.set(
        "wal.bytes_per_commit",
        ratio(d.counter("wal.bytes") as f64, commits),
    );
    r.set(
        "wal.fsyncs_per_commit",
        ratio(d.counter("wal.fsyncs") as f64, commits),
    );
    // The registry's histograms give quantiles only as bucket bounds, so
    // their exact sums and counts give the means.
    let mean_us = |name: &str| {
        let h = d.histogram(name);
        ratio(h.sum_us as f64, h.count as f64)
    };
    r.set("wal.commit_mean_us", mean_us("wal.commit_latency_us"));
    r.set("net.admission_wait_us", mean_us("net.admission.wait_us"));
    r.set("retry.attempts", d.counter("retry.attempts") as f64);

    let udf_rows = w.udf_rows as f64;
    let batch_rows = d.histogram_sum_with_prefix("udf.batch.rows.");
    let crossings = d.counters_with_prefix("udf.batch.crossings.") as f64;
    r.set("vec.rows_per_crossing", ratio(batch_rows, crossings));
    r.set(
        "ipc.bytes_per_row",
        ratio(
            (d.counter("ipc.bytes_in") + d.counter("ipc.bytes_out")) as f64,
            udf_rows,
        ),
    );
    r.set(
        "ipc.crossings_per_row",
        ratio(d.counter("ipc.crossings") as f64, udf_rows),
    );

    match d.workers() {
        Some(p) => {
            r.set(
                "pool.reuse_ratio",
                ratio(p.reuses as f64, (p.reuses + p.spawns) as f64),
            );
            r.set("pool.queue_waits", p.queue_waits as f64);
        }
        None => {
            r.absent("pool.reuse_ratio", "no worker pool attached");
            r.absent("pool.queue_waits", "no worker pool attached");
        }
    }

    r.set(
        "vm.instructions_per_row",
        ratio(w.vm_instructions as f64, udf_rows),
    );
    let hits = d.counter("vm.tier.compiled_hits") as f64;
    r.set(
        "vm.compiled_hit_ratio",
        ratio(hits, d.counters_with_prefix("udf.invocations.jsm") as f64),
    );
    r.set("vm.fallbacks", d.counter("vm.tier.fallbacks") as f64);

    r.set(
        "par.busy_frac",
        ratio(
            d.histogram("par.worker_busy_us").sum_us as f64 / 1e3,
            dop as f64 * w.stmt_ms,
        ),
    );
    r.set(
        "par.morsels_per_stmt",
        ratio(d.counter("par.morsels") as f64, stmts),
    );
}

impl Delta<'_> {
    fn histogram_sum_with_prefix(&self, prefix: &str) -> f64 {
        let names: Vec<&String> = self
            .after
            .metrics
            .histograms
            .iter()
            .map(|(n, _)| n)
            .filter(|n| n.starts_with(prefix))
            .collect();
        names
            .into_iter()
            .map(|n| self.histogram(n).sum_us as f64)
            .sum()
    }
}

/// Self time per operator (µs) from one `EXPLAIN ANALYZE` rendering. The
/// parallel path profiles no operators below its `Gather`; its total
/// time is charged to `Gather`.
pub fn op_self_us(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut gather = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with("Gather (dop=") && line.contains("morsels=") {
            gather = true;
        } else if let Some(total) = line.strip_prefix("Total: ") {
            if gather {
                if let Some(t) = total.split(" in ").nth(1) {
                    let t = t.split_whitespace().next().unwrap_or("");
                    out.push(("Gather".to_string(), parse_us(t)));
                }
            }
        } else if let Some(i) = line.find(" self=") {
            let op = line.split_whitespace().next().unwrap_or("").to_string();
            let v = line[i + 6..].split_whitespace().next().unwrap_or("");
            out.push((op, parse_us(v)));
        }
    }
    out
}

fn parse_us(s: &str) -> f64 {
    let num = |t: &str| t.parse::<f64>().unwrap_or(0.0);
    if let Some(v) = s.strip_suffix("us") {
        num(v)
    } else if let Some(v) = s.strip_suffix("ms") {
        num(v) * 1e3
    } else if let Some(v) = s.strip_suffix('s') {
        num(v) * 1e6
    } else {
        0.0
    }
}

pub const OPS: [(&str, &str); 6] = [
    ("SeqScan", "sql.op_self_us.SeqScan"),
    ("IndexScan", "sql.op_self_us.IndexScan"),
    ("Filter", "sql.op_self_us.Filter"),
    ("Project", "sql.op_self_us.Project"),
    ("Aggregate", "sql.op_self_us.Aggregate"),
    ("Gather", "sql.op_self_us.Gather"),
];

/// Accumulated `EXPLAIN ANALYZE` operator self times.
#[derive(Default)]
pub struct OpTimes {
    analyzed: u64,
    total_us: [f64; 6],
}

impl OpTimes {
    pub fn add(&mut self, text: &str) {
        self.analyzed += 1;
        for (op, us) in op_self_us(text) {
            if let Some(i) = OPS.iter().position(|(o, _)| *o == op) {
                self.total_us[i] += us;
            }
        }
    }

    pub fn merge(&mut self, other: OpTimes) {
        self.analyzed += other.analyzed;
        for (a, b) in self.total_us.iter_mut().zip(other.total_us) {
            *a += b;
        }
    }

    pub fn report(&self, r: &mut Report) {
        for (i, (_, metric)) in OPS.iter().enumerate() {
            r.set(metric, self.total_us[i] / self.analyzed.max(1) as f64);
        }
    }
}

/// Direct probes of the UDF layer on the workload's own definition and
/// arguments: one `invoke`, one row of a 256-row `invoke_batch`, and one
/// `instantiate_with(pool)` + `finish`.
pub fn udf_probes(r: &mut Report, db: &Database, def: &UdfDef, args: &[Value]) {
    let pool = db.worker_pool();
    let reps = 200;
    let mut udf = def
        .instantiate_with(pool.as_ref())
        .expect("instantiate the workload's UDF");
    let mut cb = IdentityCallbacks;
    for _ in 0..16 {
        udf.invoke(args, &mut cb).expect("warm-up invoke");
    }
    r.set(
        "udf.invoke_ns",
        median_ns(reps, || {
            std::hint::black_box(udf.invoke(args, &mut cb).expect("invoke"));
        }),
    );
    let rows: Vec<Vec<Value>> = (0..256).map(|_| args.to_vec()).collect();
    let batch = ValueBatch::from_rows(&rows).expect("uniform batch");
    r.set(
        "udf.batch_ns_per_row",
        median_ns(25, || {
            std::hint::black_box(udf.invoke_batch(&batch, &mut cb).expect("batch"));
        }) / 256.0,
    );
    udf.finish().expect("finish probe instance");
    r.set(
        "udf.instantiate_us",
        median_ns(50, || {
            let u = def.instantiate_with(pool.as_ref()).expect("instantiate");
            u.finish().expect("finish");
        }) / 1e3,
    );
    match &pool {
        Some(p) => r.set(
            "pool.checkout_us",
            median_ns(50, || drop(p.checkout().expect("checkout"))) / 1e3,
        ),
        None => r.absent("pool.checkout_us", "no worker pool attached"),
    }
}

/// The network layer on the workload's own database: `Client::ping`
/// round trips, and a point read over the wire minus the same read
/// embedded. A read the engine cannot answer fails the probe.
pub fn net_probes(r: &mut Report, db: &Database, read_sql: &str) {
    let reps = 200;
    let probe = || -> jaguar_core::Result<(f64, f64, f64)> {
        let mut server = db.serve("127.0.0.1:0")?;
        let mut client = Client::connect(server.addr())?;
        db.execute(read_sql)?;
        client.execute(read_sql)?;
        let mut failed = None;
        let mut note = |e: jaguar_core::JaguarError| failed = Some(e);
        let ping = median_ns(reps, || client.ping().unwrap_or_else(&mut note));
        let wire = median_ns(reps, || {
            client.execute(read_sql).map(drop).unwrap_or_else(&mut note)
        });
        let embedded = median_ns(reps, || {
            db.execute(read_sql).map(drop).unwrap_or_else(&mut note)
        });
        client.quit()?;
        server.stop();
        match failed {
            Some(e) => Err(e),
            None => Ok((ping, wire, embedded)),
        }
    };
    match probe() {
        Ok((ping, wire, embedded)) => {
            r.set("net.ping_rtt_us", ping / 1e3);
            r.set("net.wire_overhead_us", (wire - embedded) / 1e3);
        }
        Err(e) => r.probe_failed(
            &["net.ping_rtt_us", "net.wire_overhead_us"],
            "net probe",
            &e.to_string(),
        ),
    }
}

/// JagScript front end and verifier on the workload's UDF source.
pub fn compile_probes(r: &mut Report, name: &str, source: &str) {
    r.set(
        "lang.compile_us",
        median_ns(50, || {
            std::hint::black_box(jaguar_lang::compile(name, source).expect("compile"));
        }) / 1e3,
    );
    let module = jaguar_lang::compile(name, source).expect("compile");
    r.set(
        "vm.verify_us",
        median_ns(50, || {
            std::hint::black_box(
                jaguar_udf::def::vm_spec(
                    module.clone(),
                    "main",
                    jaguar_core::ResourceLimits::unlimited(),
                    true,
                    None,
                )
                .expect("verify"),
            );
        }) / 1e3,
    );
}

/// `PageCipher::open` on page-size buffers, independent of any table.
pub fn decrypt_probe(r: &mut Report, page_size: usize) {
    use jaguar_sec::crypto::{JaguarAead, KEY_LEN};
    use jaguar_sec::PageCipher;
    let cipher = JaguarAead::new([7u8; KEY_LEN]);
    let mut page = vec![0x5au8; page_size];
    let nonce = cipher.next_nonce();
    let tag = cipher.seal(1, nonce, &mut page);
    let sealed = page.clone();
    r.set(
        "sec.decrypt_us_per_page",
        median_ns(200, || {
            page.copy_from_slice(&sealed);
            cipher
                .open(1, nonce, tag, &mut page)
                .expect("authentic page");
        }) / 1e3,
    );
}

/// Raw heap iteration over a table, no SQL: nanoseconds per row. A scan
/// the storage layer cannot finish fails the probe.
pub fn scan_probe(r: &mut Report, db: &Database, table: &str) {
    let t = db.catalog().table(table).expect("workload table exists");
    let mut rows = 0u64;
    let mut failed = None;
    let ns = median_ns(5, || {
        rows = 0;
        for item in t.scan() {
            match item {
                Ok(row) => {
                    std::hint::black_box(row);
                    rows += 1;
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
    });
    match failed {
        None => r.set("storage.scan_ns_per_row", ns / rows.max(1) as f64),
        Some(e) => r.probe_failed(
            &["storage.scan_ns_per_row"],
            "raw scan probe",
            &e.to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_profile_parses_self_times() {
        let text = "Project 1 column(s)\n  SeqScan t (10 rows)\n\n\
                    Project (1 column(s))  rows=10 time=1.50ms self=250us\n  \
                    Filter (1 predicate(s))  rows=10 time=1.25ms self=1.00ms\n    \
                    SeqScan t  rows=10 time=250us self=250us\n\
                    Total: 10 row(s) in 1.52ms (10 scanned, 0 UDF call(s), 0 callback(s))\n";
        assert_eq!(
            op_self_us(text),
            vec![
                ("Project".to_string(), 250.0),
                ("Filter".to_string(), 1000.0),
                ("SeqScan".to_string(), 250.0)
            ]
        );
    }

    #[test]
    fn gather_profile_charges_the_total_to_gather() {
        let text = "Gather (dop=2)\n  SeqScan t\n\nGather (dop=2)  morsels=8\n  \
                    worker 0: rows=5 morsels=4 busy=300us\n\
                    Total: 10 row(s) in 2.00s (10 scanned, 10 UDF call(s), 0 callback(s))\n";
        assert_eq!(op_self_us(text), vec![("Gather".to_string(), 2e6)]);
    }
}
