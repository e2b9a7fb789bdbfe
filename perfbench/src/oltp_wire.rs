//! `oltp_wire`: short reads and durable writes over TCP.
//!
//! An on-disk database (sync mode `Full`) serves a 5,000-row table with
//! an index on `id` (it fits the buffer pool) to two connections in a
//! closed loop. Mix: point read by `id` 40%, point read through an
//! `Immutable` straight-line JagScript UDF 10% (the inliner's case),
//! `UPDATE … WHERE id = k` 20%, `INSERT` 20%, indexed range count 10%.
//! Keys are drawn uniformly over the loaded table by both connections,
//! so concurrent writes to one key can and do happen. Every reply is
//! checked; after each segment the row count must equal loaded rows plus
//! acknowledged INSERTs, and `SUM(bal)` the loaded total plus
//! acknowledged UPDATEs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use jaguar_common::rng::SplitMix64;
use jaguar_core::{
    Client, Config, DataType, Database, Result, Server, UdfDesign, UdfSignature, Value, Volatility,
};

use crate::common::{self, ms_since, Opts};
use crate::layers::{self, Counters, Delta, OpTimes, Work};
use crate::report::{Outcome, Report};
use crate::stats::Class;
use crate::trace::Tracer;

pub const ROWS: i64 = 5_000;
pub const CLIENTS: usize = 2;
const TABLE: &str = "accounts";
const LOAD_BATCH: i64 = 250;
const RANGE: i64 = 50;
/// `peak_rss_mb` is read once this many statements of the first segment
/// have ended (both connections together).
const PEAK_AFTER: u64 = 200;
const UDF_SRC: &str = "fn main(b: i64) -> i64 { return b * 3 + 7; }";

/// Statement kinds, with their share of the mix in percent.
pub const KINDS: [(&str, u64); 5] = [
    ("point", 40),
    ("udf_point", 10),
    ("update", 20),
    ("insert", 20),
    ("range", 10),
];
const READS: [&str; 3] = ["point", "udf_point", "range"];
const WRITES: [&str; 2] = ["update", "insert"];

/// The loaded table, from the seed alone.
pub struct Data {
    pub bal: Vec<i64>,
    pub notes: Vec<String>,
}

pub fn generate(seed: u64) -> Data {
    let mut rng = SplitMix64::new(seed ^ 0x6f6c_7470);
    let bal = (0..ROWS).map(|_| rng.next_below(1000) as i64).collect();
    let notes = (0..ROWS)
        .map(|_| {
            (0..16)
                .map(|_| (b'a' + rng.next_below(26) as u8) as char)
                .collect()
        })
        .collect();
    Data { bal, notes }
}

/// What every connection knows about acknowledged work, for the checks.
pub struct Shared {
    initial: Vec<i64>,
    /// UPDATEs sent per key (counted before sending, so a read can never
    /// see more increments than were issued).
    issued: Vec<AtomicU64>,
    acked_updates: AtomicU64,
    acked_inserts: AtomicU64,
    next_id: AtomicI64,
}

impl Shared {
    pub fn new(initial: Vec<i64>) -> Shared {
        Shared {
            issued: (0..initial.len()).map(|_| AtomicU64::new(0)).collect(),
            initial,
            acked_updates: AtomicU64::new(0),
            acked_inserts: AtomicU64::new(0),
            next_id: AtomicI64::new(ROWS),
        }
    }

    /// A read of `bal` for key `k` is right if it lies between the loaded
    /// value and the loaded value plus every UPDATE issued so far.
    pub fn bal_ok(&self, k: i64, bal: i64) -> bool {
        let lo = self.initial[k as usize];
        let hi = lo + self.issued[k as usize].load(Ordering::SeqCst) as i64;
        (lo..=hi).contains(&bal)
    }
}

/// One statement of the mix.
pub struct Stmt {
    pub kind: usize,
    pub sql: String,
    key: i64,
}

pub fn next_stmt(rng: &mut SplitMix64, shared: &Shared) -> Stmt {
    let roll = rng.next_below(100);
    let mut acc = 0;
    let kind = KINDS
        .iter()
        .position(|&(_, pct)| {
            acc += pct;
            roll < acc
        })
        .expect("shares sum to 100");
    let key = rng.next_below(ROWS as u64) as i64;
    let sql = match KINDS[kind].0 {
        "point" => format!("SELECT bal FROM {TABLE} WHERE id = {key}"),
        "udf_point" => format!("SELECT score(bal) FROM {TABLE} WHERE id = {key}"),
        "update" => {
            shared.issued[key as usize].fetch_add(1, Ordering::SeqCst);
            format!("UPDATE {TABLE} SET bal = bal + 1 WHERE id = {key}")
        }
        "insert" => {
            let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
            format!("INSERT INTO {TABLE} VALUES ({id}, 0, 'inserted')")
        }
        _ => {
            let lo = rng.next_below((ROWS - RANGE + 1) as u64) as i64;
            format!(
                "SELECT COUNT(*) FROM {TABLE} WHERE id >= {lo} AND id < {}",
                lo + RANGE
            )
        }
    };
    Stmt { kind, sql, key }
}

/// Rows a statement is defined over: the row it reads or writes, or the
/// rows a range count aggregates. Independent of the plan, so a plan that
/// examines fewer rows never looks like less work.
pub fn logical_rows(kind: usize) -> u64 {
    if KINDS[kind].0 == "range" {
        RANGE as u64
    } else {
        1
    }
}

/// Check one reply; on success also record the acknowledged write.
pub fn check(
    s: &Stmt,
    rows: &[jaguar_core::Tuple],
    affected: u64,
    shared: &Shared,
) -> std::result::Result<(), String> {
    let one_int = || -> std::result::Result<i64, String> {
        match rows {
            [row] => match row.get(0) {
                Ok(Value::Int(v)) => Ok(*v),
                other => Err(format!("expected one INT, got {other:?}")),
            },
            _ => Err(format!("expected 1 row, got {}", rows.len())),
        }
    };
    match KINDS[s.kind].0 {
        "point" => {
            let bal = one_int()?;
            if !shared.bal_ok(s.key, bal) {
                return Err(format!("id {}: bal {bal} was never written", s.key));
            }
        }
        "udf_point" => {
            let score = one_int()?;
            let bal = (score - 7) / 3;
            if bal * 3 + 7 != score || !shared.bal_ok(s.key, bal) {
                return Err(format!(
                    "id {}: score {score} matches no written bal",
                    s.key
                ));
            }
        }
        "range" => {
            let n = one_int()?;
            if n != RANGE {
                return Err(format!("range count {n}, expected {RANGE}"));
            }
        }
        kind => {
            if affected != 1 {
                return Err(format!("{kind} affected {affected} rows, expected 1"));
            }
            let acked = if kind == "update" {
                &shared.acked_updates
            } else {
                &shared.acked_inserts
            };
            acked.fetch_add(1, Ordering::SeqCst);
        }
    }
    Ok(())
}

struct Fixture {
    dir: PathBuf,
    db: Option<Database>,
    server: Option<Server>,
    clients: Vec<Client>,
    shared: Shared,
}

impl Fixture {
    fn db(&self) -> &Database {
        self.db.as_ref().expect("database open until drop")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        for c in self.clients.drain(..) {
            let _ = c.quit();
        }
        if let Some(mut s) = self.server.take() {
            s.stop();
        }
        drop(self.db.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup(dir: &Path, data: &Data) -> Result<Fixture> {
    let _ = std::fs::remove_dir_all(dir);
    let mut f = Fixture {
        dir: dir.to_path_buf(),
        db: Some(Database::open(dir, Config::default())?),
        server: None,
        clients: Vec::new(),
        shared: Shared::new(data.bal.clone()),
    };
    let db = f.db();
    db.execute(&format!(
        "CREATE TABLE {TABLE} (id INT, bal INT, note TEXT)"
    ))?;
    db.execute(&format!("CREATE INDEX {TABLE}_id ON {TABLE} (id)"))?;
    for start in (0..ROWS).step_by(LOAD_BATCH as usize) {
        let values: Vec<String> = (start..(start + LOAD_BATCH).min(ROWS))
            .map(|id| {
                format!(
                    "({id}, {}, '{}')",
                    data.bal[id as usize], data.notes[id as usize]
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO {TABLE} VALUES {}", values.join(", ")))?;
    }
    db.register_jagscript_udf_with_volatility(
        "score",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        UDF_SRC,
        UdfDesign::Sandboxed,
        Volatility::Immutable,
    )?;
    let server = db.serve("127.0.0.1:0")?;
    let addr = server.addr();
    f.server = Some(server);
    for _ in 0..CLIENTS {
        let mut c = Client::connect(addr)?;
        c.ping()?;
        f.clients.push(c);
    }
    Ok(f)
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Untraced,
    Counters,
    Probes,
}

/// What one phase (or the sum of several) measured.
struct Measured {
    classes: Vec<Class>,
    work: Work,
    ops: OpTimes,
    tracer: Tracer,
    /// Statement counts and errors only; metrics go to the run's report.
    counts: Report,
}

impl Measured {
    fn new(traced: bool, origin: Instant) -> Measured {
        Measured {
            classes: KINDS.iter().map(|k| Class::new(k.0)).collect(),
            work: Work::default(),
            ops: OpTimes::default(),
            tracer: Tracer::new(traced, origin),
            counts: Report::default(),
        }
    }

    fn merge(&mut self, o: Measured) {
        for (c, oc) in self.classes.iter_mut().zip(o.classes) {
            c.extend(oc);
        }
        self.work.add(&o.work);
        self.ops.merge(o.ops);
        self.tracer.absorb(o.tracer);
        self.counts.merge_counts(o.counts);
    }
}

/// One connection's closed loop until `until`.
#[allow(clippy::too_many_arguments)]
fn lane(
    client: &mut Client,
    db: &Database,
    shared: &Shared,
    rng: &mut SplitMix64,
    until: Instant,
    phase: Phase,
    m: &mut Measured,
    mut request: u64,
) {
    while Instant::now() < until {
        let s = next_stmt(rng, shared);
        request += 1;
        let t = Instant::now();
        let out = m.tracer.request(request, "stmt", |tr| {
            let out = tr.span("wire.execute", |_| client.execute(&s.sql));
            if phase == Phase::Probes && READS.contains(&KINDS[s.kind].0) {
                tr.span("sql.explain", |_| db.explain_as(&s.sql, None).map(drop))
                    .expect("explain a read");
                let text = tr
                    .span("sql.explain_analyze", |_| db.explain_analyze(&s.sql))
                    .expect("profile a read");
                m.ops.add(&text);
            }
            out
        });
        let ms = ms_since(t);
        let outcome = match &out {
            Ok(res) => check(&s, &res.rows, res.affected, shared)
                .map_or_else(Outcome::Wrong, |()| Outcome::Ok),
            Err(e) => Outcome::Error(e.to_string()),
        };
        m.counts.count(KINDS[s.kind].0, &outcome);
        let class = &mut m.classes[s.kind];
        match (out, outcome) {
            (Ok(res), Outcome::Ok) => {
                class.ok(ms, logical_rows(s.kind));
                let (st, out_rows) = (&res.stats, res.rows.len() as u64 + res.affected);
                m.work.statement(
                    ms,
                    st.rows_scanned,
                    out_rows,
                    st.udf_invocations,
                    st.vm_instructions,
                );
            }
            _ => class.failed(),
        }
    }
}

/// Run every connection until `until` and merge what they saw.
fn phase(
    f: &mut Fixture,
    rngs: &mut [SplitMix64],
    until: Instant,
    phase: Phase,
    origin: Instant,
) -> Measured {
    let db = f.db.as_ref().expect("database open");
    let shared = &f.shared;
    let lanes: Vec<Measured> = std::thread::scope(|scope| {
        let handles: Vec<_> = f
            .clients
            .iter_mut()
            .zip(rngs.iter_mut())
            .enumerate()
            .map(|(i, (client, rng))| {
                scope.spawn(move || {
                    let mut m = Measured::new(phase != Phase::Untraced, origin);
                    let request = (i as u64) << 48 | (phase as u64) << 40;
                    lane(client, db, shared, rng, until, phase, &mut m, request);
                    m
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Measured::new(phase != Phase::Untraced, origin);
    for l in lanes {
        all.merge(l);
    }
    all
}

/// Invariants over everything acknowledged so far on this fixture.
fn final_checks(f: &Fixture, r: &mut Report) {
    let shared = &f.shared;
    let loaded_total: i64 = shared.initial.iter().sum();
    let want_rows = ROWS + shared.acked_inserts.load(Ordering::SeqCst) as i64;
    let want_sum = loaded_total + shared.acked_updates.load(Ordering::SeqCst) as i64;
    for (sql, want) in [
        (format!("SELECT COUNT(*) FROM {TABLE}"), want_rows),
        (format!("SELECT SUM(bal) FROM {TABLE}"), want_sum),
    ] {
        let outcome = match f.db().execute(&sql) {
            Ok(res) => match res.rows.first().map(|t| t.get(0)) {
                Some(Ok(Value::Int(v))) if *v == want => Outcome::Ok,
                got => Outcome::Wrong(format!("`{sql}` gave {got:?}, expected {want}")),
            },
            Err(e) => Outcome::Error(e.to_string()),
        };
        r.count("final check", &outcome);
    }
}

pub fn run(opts: &Opts) -> Result<Report> {
    let mut r = Report::default();
    let data = generate(opts.seed);
    let pid = std::process::id();
    let mut rngs: Vec<SplitMix64> = (0..CLIENTS as u64)
        .map(|i| SplitMix64::new(opts.seed.wrapping_mul(0x9E37_79B9).wrapping_add(i)))
        .collect();
    let origin = Instant::now();
    let mut classes: Vec<Class> = KINDS.iter().map(|k| Class::new(k.0)).collect();
    // WAL bytes and acknowledged writes over every segment, so the ratio
    // does not depend on which segments the figures keep.
    let mut wal_bytes = 0;
    let mut acked_writes = 0u64;
    let seg = common::segments(
        &mut r,
        opts,
        PEAK_AFTER,
        |i| setup(&opts.workdir.join(format!("oltp-{pid}-{i}")), &data),
        |f, until, r| {
            let before = Counters::read(f.db(), TABLE);
            let mut m = phase(f, &mut rngs, until, Phase::Untraced, origin);
            let after = Counters::read(f.db(), TABLE);
            wal_bytes += Delta {
                before: &before,
                after: &after,
            }
            .counter("wal.bytes");
            r.merge_counts(std::mem::take(&mut m.counts));
            let ok = m.work.stmts as usize;
            acked_writes += m
                .classes
                .iter()
                .filter(|c| WRITES.contains(&c.name.as_str()))
                .map(|c| c.ms.iter().filter(|v| v.is_finite()).count() as u64)
                .sum::<u64>();
            for (c, mc) in classes.iter_mut().zip(m.classes) {
                c.absorb_segment(mc);
            }
            final_checks(f, r);
            ok
        },
    )?;
    common::end_to_end(&mut r, &mut classes, &seg);
    if !opts.trace {
        return Ok(r);
    }
    common::rss_growth(&mut r, &seg);
    let mut f = seg.fixture;
    common::class_metrics(&mut r, &classes, &READS, &WRITES);
    r.set(
        "log_bytes_per_write",
        wal_bytes as f64 / acked_writes.max(1) as f64,
    );

    // Traced, part 1: spans around statements, counters around the phase.
    let before = Counters::read(f.db(), TABLE);
    let (mut traced, active) = common::unstolen(|| {
        phase(
            &mut f,
            &mut rngs,
            Instant::now() + opts.traced_part(),
            Phase::Counters,
            origin,
        )
    });
    traced.classes.iter_mut().for_each(|c| c.scale(|_| active));
    let after = Counters::read(f.db(), TABLE);
    r.merge_counts(std::mem::take(&mut traced.counts));
    let d = Delta {
        before: &before,
        after: &after,
    };
    layers::counter_metrics(&mut r, &d, &traced.work, f.db().catalog().config().dop);
    r.set(
        "trace.overhead_frac",
        common::tracing_overhead(&classes, &traced.classes),
    );
    let udf_reads = traced.classes[1].ms.len().max(1) as f64;
    r.set("opt.inlined", d.counter("opt.inlined") as f64 / udf_reads);
    r.set(
        "opt.backend_instances",
        d.counters_with_prefix("udf.invocations.") as f64 / udf_reads,
    );

    // Part 2: plan and profile probes of the reads as child spans.
    let mut probes = phase(
        &mut f,
        &mut rngs,
        Instant::now() + opts.traced_part(),
        Phase::Probes,
        origin,
    );
    r.merge_counts(std::mem::take(&mut probes.counts));
    probes.ops.report(&mut r);
    let mut tracer = traced.tracer;
    tracer.absorb(probes.tracer);
    r.set(
        "sql.plan_us",
        crate::stats::median(&crate::trace::durations_ms(tracer.spans(), "sql.explain")) * 1e3,
    );

    // Direct layer probes, outside any statement.
    let db = f.db();
    tracer.request(1, "probe.net", |_| {
        layers::net_probes(&mut r, db, &format!("SELECT bal FROM {TABLE} WHERE id = 7"))
    });
    let def = db.catalog().udfs().get("score")?;
    tracer.request(2, "probe.udf", |_| {
        layers::udf_probes(&mut r, db, &def, &[Value::Int(41)])
    });
    tracer.request(3, "probe.storage", |_| {
        layers::scan_probe(&mut r, db, TABLE)
    });
    tracer.request(4, "probe.sec", |_| {
        layers::decrypt_probe(&mut r, db.catalog().config().page_size)
    });
    tracer.request(5, "probe.lang", |_| {
        layers::compile_probes(&mut r, "score", UDF_SRC)
    });
    r.absent(
        "ipc.callback_rtt_us",
        "the workload's UDF issues no callbacks",
    );
    crate::summarize_spans(&mut r, &tracer, opts);
    final_checks(&f, &mut r);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_follows_the_shares() {
        let shared = Shared::new(generate(1).bal);
        let mut rng = SplitMix64::new(9);
        let mut n = [0u32; 5];
        for _ in 0..10_000 {
            n[next_stmt(&mut rng, &shared).kind] += 1;
        }
        for (i, &(_, pct)) in KINDS.iter().enumerate() {
            let share = n[i] as f64 / 100.0;
            assert!(
                (share - pct as f64).abs() < 2.0,
                "{} at {share}%",
                KINDS[i].0
            );
        }
    }

    #[test]
    fn checker_catches_a_deliberately_wrong_row() {
        let data = generate(2);
        let shared = Shared::new(data.bal.clone());
        let s = Stmt {
            kind: 0,
            sql: String::new(),
            key: 3,
        };
        let row = |v: i64| vec![jaguar_core::Tuple::new(vec![Value::Int(v)])];
        assert_eq!(check(&s, &row(data.bal[3]), 0, &shared), Ok(()));
        // No UPDATE was issued on key 3, so any other balance is wrong.
        assert!(check(&s, &row(data.bal[3] + 1), 0, &shared).is_err());
        shared.issued[3].fetch_add(1, Ordering::SeqCst);
        assert_eq!(check(&s, &row(data.bal[3] + 1), 0, &shared), Ok(()));
        // A doubled row is wrong whatever it holds.
        let mut two = row(data.bal[3]);
        two.extend(row(data.bal[3]));
        assert!(check(&s, &two, 0, &shared).is_err());
        let range = Stmt {
            kind: 4,
            sql: String::new(),
            key: 0,
        };
        assert!(check(&range, &row(RANGE - 1), 0, &shared).is_err());
    }

    #[test]
    fn acknowledged_writes_are_counted_once() {
        let shared = Shared::new(generate(3).bal);
        let upd = Stmt {
            kind: 2,
            sql: String::new(),
            key: 0,
        };
        assert_eq!(check(&upd, &[], 1, &shared), Ok(()));
        assert!(check(&upd, &[], 0, &shared).is_err());
        assert_eq!(shared.acked_updates.load(Ordering::SeqCst), 1);
    }
}
