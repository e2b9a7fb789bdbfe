//! `scan_secure`: UDF-free aggregates and filters under a tenant session
//! over a row-labelled, encrypted, on-disk table larger than the
//! per-table buffer pool.
//!
//! 20,000 rows of ~1 KB (2,501 heap pages against the default 1,024-frame
//! pool), loaded with multi-row INSERTs; `dop` keeps its default. Four
//! queries run round-robin through `execute_as` for tenant `t1`:
//! `COUNT(*)`, `SUM … GROUP BY`, `AVG … WHERE`, and a selective `WHERE`.
//! Every answer is recomputed from the generated rows with the label
//! applied. This is the larger-than-cache case: storage (miss, read,
//! evict), sec (decrypt, label rewrite) and par do the work.

use std::path::{Path, PathBuf};
use std::time::Instant;

use jaguar_common::rng::SplitMix64;
use jaguar_core::{Config, Database, Result, SessionContext, Tuple, Value};

use crate::common::{self, ms_since, Opts};
use crate::layers::{self, Counters, Delta, OpTimes, Work};
use crate::report::{Outcome, Report};
use crate::stats::Class;
use crate::trace::Tracer;

pub const ROWS: usize = 20_000;
const PAD: usize = 960;
const TENANTS: u64 = 4;
const REGIONS: u64 = 8;
const TABLE: &str = "ledger";
const LOAD_BATCH: usize = 40;
const LABEL: &str = "tenant = session.tenant OR session.role = 'admin'";
const SELECTIVE: i64 = 995_000;
/// `peak_rss_mb` is read after two rounds of the four queries.
const PEAK_AFTER: u64 = 8;

pub const QUERIES: [(&str, &str); 4] = [
    ("count", "SELECT COUNT(*) FROM ledger"),
    (
        "group_sum",
        "SELECT region, SUM(amount) FROM ledger GROUP BY region",
    ),
    (
        "avg_where",
        "SELECT AVG(amount) FROM ledger WHERE region = 3",
    ),
    (
        "selective",
        "SELECT id, amount FROM ledger WHERE amount >= 995000",
    ),
];

#[derive(Debug, Clone)]
pub struct Row {
    pub id: i64,
    pub tenant: String,
    pub region: i64,
    pub amount: i64,
    pub pad: String,
}

pub fn generate(seed: u64) -> Vec<Row> {
    let mut rng = SplitMix64::new(seed ^ 0x7363_616e);
    (0..ROWS as i64)
        .map(|id| Row {
            id,
            tenant: format!("t{}", rng.next_below(TENANTS)),
            region: rng.next_below(REGIONS) as i64,
            amount: rng.next_below(1_000_000) as i64,
            pad: (0..PAD)
                .map(|_| (b'a' + rng.next_below(26) as u8) as char)
                .collect(),
        })
        .collect()
}

fn session() -> SessionContext {
    SessionContext::new("analyst")
        .with_attr("tenant", "t1")
        .with_attr("role", "analyst")
}

/// The answer to each query, as sorted rows of values, computed from the
/// generated rows the session's label lets it see.
pub fn reference(rows: &[Row]) -> Vec<Vec<Vec<Value>>> {
    let visible: Vec<&Row> = rows.iter().filter(|r| r.tenant == "t1").collect();
    let count = vec![vec![Value::Int(visible.len() as i64)]];
    let mut sums = vec![0i64; REGIONS as usize];
    let mut seen = vec![false; REGIONS as usize];
    for r in &visible {
        sums[r.region as usize] += r.amount;
        seen[r.region as usize] = true;
    }
    let group: Vec<Vec<Value>> = (0..REGIONS as usize)
        .filter(|&g| seen[g])
        .map(|g| vec![Value::Int(g as i64), Value::Int(sums[g])])
        .collect();
    let r3: Vec<i64> = visible
        .iter()
        .filter(|r| r.region == 3)
        .map(|r| r.amount)
        .collect();
    let avg = vec![vec![Value::Float(
        r3.iter().sum::<i64>() as f64 / r3.len() as f64,
    )]];
    let selective: Vec<Vec<Value>> = visible
        .iter()
        .filter(|r| r.amount >= SELECTIVE)
        .map(|r| vec![Value::Int(r.id), Value::Int(r.amount)])
        .collect();
    vec![count, group, avg, selective]
}

fn sort_key(row: &[Value]) -> Vec<i64> {
    row.iter()
        .map(|v| match v {
            Value::Int(i) => *i,
            _ => 0,
        })
        .collect()
}

/// Compare a result with the reference, ignoring row order.
pub fn check(rows: &[Tuple], want: &[Vec<Value>]) -> std::result::Result<(), String> {
    let mut got: Vec<Vec<Value>> = rows
        .iter()
        .map(|t| {
            (0..t.len())
                .map(|i| t.get(i).expect("column").clone())
                .collect()
        })
        .collect();
    got.sort_by_key(|r| sort_key(r));
    let mut want = want.to_vec();
    want.sort_by_key(|r| sort_key(r));
    if got.len() != want.len() {
        return Err(format!("{} rows, expected {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(&want) {
        let same = g.len() == w.len()
            && g.iter().zip(w).all(|pair| match pair {
                (Value::Float(a), Value::Float(b)) => (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                (a, b) => a == b,
            });
        if !same {
            return Err(format!("got row {g:?}, expected {w:?}"));
        }
    }
    Ok(())
}

struct Fixture {
    dir: PathBuf,
    db: Option<Database>,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        drop(self.db.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup(dir: &Path, rows: &[Row]) -> Result<Fixture> {
    let _ = std::fs::remove_dir_all(dir);
    let db = Database::open(dir, Config::default().with_encryption_key("perfbench"))?;
    db.execute(&format!(
        "CREATE TABLE {TABLE} (id INT, tenant TEXT, region INT, amount INT, pad TEXT)"
    ))?;
    for chunk in rows.chunks(LOAD_BATCH) {
        let values: Vec<String> = chunk
            .iter()
            .map(|r| {
                format!(
                    "({}, '{}', {}, {}, '{}')",
                    r.id, r.tenant, r.region, r.amount, r.pad
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO {TABLE} VALUES {}", values.join(", ")))?;
    }
    db.set_table_label(TABLE, Some(LABEL))?;
    Ok(Fixture {
        dir: dir.to_path_buf(),
        db: Some(db),
    })
}

#[allow(clippy::too_many_arguments)]
fn closed_loop(
    db: &Database,
    refs: &[Vec<Vec<Value>>],
    until: Instant,
    r: &mut Report,
    classes: &mut [Class],
    tracer: &mut Tracer,
    next_request: &mut u64,
    work: &mut Work,
    mut probe: impl FnMut(&mut Tracer, &str),
) {
    let who = session();
    while Instant::now() < until {
        for (q, want) in refs.iter().enumerate() {
            let (label, sql) = QUERIES[q];
            *next_request += 1;
            let t = Instant::now();
            let out = tracer.request(*next_request, "stmt", |tr| {
                let res = tr.span("sql.execute", |_| db.execute_as(sql, Some(&who)));
                if res.is_ok() {
                    probe(tr, sql);
                }
                res
            });
            let ms = ms_since(t);
            let outcome = match &out {
                Ok(res) => check(&res.rows, want).map_or_else(Outcome::Wrong, |()| Outcome::Ok),
                Err(e) => Outcome::Error(e.to_string()),
            };
            r.count(label, &outcome);
            match (out, outcome) {
                (Ok(res), Outcome::Ok) => {
                    // Each query is defined over the whole labelled table.
                    classes[q].ok(ms, ROWS as u64);
                    let rows_out = res.rows.len() as u64;
                    work.statement(ms, res.stats.rows_scanned, rows_out, 0, 0);
                }
                _ => classes[q].failed(),
            }
        }
    }
}

fn new_classes() -> Vec<Class> {
    QUERIES.iter().map(|q| Class::new(q.0)).collect()
}

pub fn run(opts: &Opts) -> Result<Report> {
    let mut r = Report::default();
    let rows = generate(opts.seed);
    let refs = reference(&rows);
    let pid = std::process::id();
    let origin = Instant::now();
    let mut request = 0;
    let mut classes = new_classes();
    let mut off = Tracer::new(false, origin);
    let mut work = Work::default();
    let seg = common::segments(
        &mut r,
        opts,
        PEAK_AFTER,
        |i| setup(&opts.workdir.join(format!("scan-{pid}-{i}")), &rows),
        |f, until, r| {
            classes.iter_mut().for_each(Class::new_segment);
            let before = work.stmts;
            let db = f.db.as_ref().expect("database open");
            closed_loop(
                db,
                &refs,
                until,
                r,
                &mut classes,
                &mut off,
                &mut request,
                &mut work,
                |_, _| {},
            );
            (work.stmts - before) as usize
        },
    )?;
    common::end_to_end(&mut r, &mut classes, &seg);
    let db = seg.fixture.db.as_ref().expect("database open");
    r.note(format!(
        "table {TABLE}: {} heap pages against a {}-frame pool",
        db.catalog().table(TABLE)?.heap_pages(),
        db.catalog().config().buffer_pool_pages
    ));
    if !opts.trace {
        return Ok(r);
    }
    common::rss_growth(&mut r, &seg);

    let names: Vec<&str> = QUERIES.iter().map(|q| q.0).collect();
    common::class_metrics(&mut r, &classes, &names, &[]);
    let mut tracer = Tracer::new(true, origin);
    let mut traced = new_classes();
    let mut work = Work::default();
    let before = Counters::read(db, TABLE);
    let ((), active) = common::unstolen(|| {
        closed_loop(
            db,
            &refs,
            Instant::now() + opts.traced_part(),
            &mut r,
            &mut traced,
            &mut tracer,
            &mut request,
            &mut work,
            |_, _| {},
        )
    });
    traced.iter_mut().for_each(|c| c.scale(|_| active));
    let after = Counters::read(db, TABLE);
    layers::counter_metrics(
        &mut r,
        &Delta {
            before: &before,
            after: &after,
        },
        &work,
        db.catalog().config().dop,
    );
    r.set(
        "trace.overhead_frac",
        common::tracing_overhead(&classes, &traced),
    );

    let who = session();
    let mut ops = OpTimes::default();
    let mut probe_classes = new_classes();
    let mut probe_work = Work::default();
    closed_loop(
        db,
        &refs,
        Instant::now() + opts.traced_part(),
        &mut r,
        &mut probe_classes,
        &mut tracer,
        &mut request,
        &mut probe_work,
        |tr, sql| {
            if tr
                .span("sql.explain", |_| db.explain_as(sql, Some(&who)))
                .is_ok()
            {
                if let Ok(text) = tr.span("sql.explain_analyze", |_| {
                    db.explain_analyze_as(sql, Some(&who))
                }) {
                    ops.add(&text);
                }
            }
        },
    );
    ops.report(&mut r);
    r.set(
        "sql.plan_us",
        crate::stats::median(&crate::trace::durations_ms(tracer.spans(), "sql.explain")) * 1e3,
    );
    tracer.request(request + 1, "probe.storage", |_| {
        layers::scan_probe(&mut r, db, TABLE)
    });
    tracer.request(request + 2, "probe.sec", |_| {
        layers::decrypt_probe(&mut r, db.catalog().config().page_size)
    });
    tracer.request(request + 3, "probe.net", |_| {
        layers::net_probes(
            &mut r,
            db,
            &format!("SELECT amount FROM {TABLE} WHERE id = 7"),
        )
    });
    for (name, why) in [
        ("log_bytes_per_write", "read-only workload"),
        ("udf.invoke_ns", "UDF-free workload"),
        ("udf.batch_ns_per_row", "UDF-free workload"),
        ("udf.instantiate_us", "UDF-free workload"),
        ("ipc.callback_rtt_us", "UDF-free workload"),
        ("pool.checkout_us", "UDF-free workload"),
        ("lang.compile_us", "UDF-free workload"),
        ("vm.verify_us", "UDF-free workload"),
        ("opt.inlined", "UDF-free workload"),
        ("opt.backend_instances", "UDF-free workload"),
    ] {
        r.absent(name, why);
    }
    crate::summarize_spans(&mut r, &tracer, opts);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_applies_the_label() {
        let rows = generate(4);
        let refs = reference(&rows);
        let t1 = rows.iter().filter(|r| r.tenant == "t1").count() as i64;
        assert_eq!(refs[0], vec![vec![Value::Int(t1)]]);
        assert!(t1 > 0 && t1 < ROWS as i64);
    }

    #[test]
    fn checker_catches_a_deliberately_wrong_row() {
        let rows = generate(6);
        let refs = reference(&rows);
        let as_tuples = |v: &[Vec<Value>]| -> Vec<Tuple> {
            v.iter().rev().map(|r| Tuple::new(r.clone())).collect()
        };
        // Row order does not matter.
        assert_eq!(check(&as_tuples(&refs[1]), &refs[1]), Ok(()));
        let mut bad = refs[1].clone();
        bad[2][1] = Value::Int(-1);
        assert!(check(&as_tuples(&bad), &refs[1]).is_err());
        // A row the label hides must not appear.
        let hidden = rows.iter().find(|r| r.tenant != "t1").unwrap();
        let mut leaked = refs[3].clone();
        leaked.push(vec![Value::Int(hidden.id), Value::Int(hidden.amount)]);
        assert!(check(&as_tuples(&leaked), &refs[3]).is_err());
    }
}
