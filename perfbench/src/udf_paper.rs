//! `udf_paper.<design>`: the paper's §5 experiment, one workload per UDF
//! design.
//!
//! `SELECT udf(R.bytearray, i, d, c) FROM rel100 R` over all 10,000
//! tuples (100-byte arrays, ~1 MB, so the relation fits the buffer pool
//! and the UDF layers carry the time), round-robin over four shapes:
//! no-op (0,0,0), compute (1000,0,0), data (0,1,0) and callback (0,0,1).
//! Embedded, one client, in memory, default `Config` with the warm
//! worker pool on. Every answer is compared bit for bit with
//! `generic_native` run directly on the same generated bytes.

use std::time::{Duration, Instant};

use jaguar_common::rng::SplitMix64;
use jaguar_core::{ByteArray, Config, Database, JaguarError, Result, Tuple, UdfDef, Value};
use jaguar_udf::generic::{
    def_isolated, def_isolated_vm, def_native, def_vm, generic_native, IdentityCallbacks,
    GENERIC_JAGSCRIPT,
};

use crate::common::{self, ms_since, Opts};
use crate::layers::{self, Counters, Delta, OpTimes, Work};
use crate::report::{Outcome, Report};
use crate::stats::Class;
use crate::trace::{self, Tracer};

pub const ROWS: usize = 10_000;
pub const BYTES: usize = 100;
const TABLE: &str = "rel100";
/// `peak_rss_mb` is read after two rounds of the four shapes.
const PEAK_AFTER: u64 = 8;

/// (name, NumDataIndepComps, NumDataDepComps, NumCallbacks)
pub const SHAPES: [(&str, i64, i64, i64); 4] = [
    ("noop", 0, 0, 0),
    ("compute", 1000, 0, 0),
    ("data", 0, 1, 0),
    ("callback", 0, 0, 1),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    Cpp,
    ICpp,
    Jsm,
    IJsm,
}

impl Design {
    pub fn parse(s: &str) -> Option<Design> {
        Some(match s {
            "cpp" => Design::Cpp,
            "icpp" => Design::ICpp,
            "jsm" => Design::Jsm,
            "ijsm" => Design::IJsm,
            _ => return None,
        })
    }

    /// The design's UDF registered as `udf`, with the database's default
    /// resource limits for the sandboxed designs.
    fn def(self, config: &Config) -> UdfDef {
        let limits = jaguar_core::ResourceLimits {
            fuel: config.default_fuel,
            memory: config.default_vm_memory,
            max_call_depth: config.max_call_depth,
        };
        let mut def = match self {
            Design::Cpp => def_native(),
            Design::ICpp => def_isolated(),
            Design::Jsm => def_vm(config.vm_jit_mode, limits),
            Design::IJsm => def_isolated_vm(config.vm_jit_mode, limits),
        };
        def.name = "udf".to_string();
        def
    }

    fn isolated(self) -> bool {
        matches!(self, Design::ICpp | Design::IJsm)
    }
}

pub fn sql(shape: usize) -> String {
    let (_, i, d, c) = SHAPES[shape];
    format!("SELECT udf(R.bytearray, {i}, {d}, {c}) FROM {TABLE} R")
}

/// The relation's byte arrays, from the seed alone.
pub fn generate(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed ^ 0x7564_665f_7061_7065);
    (0..ROWS)
        .map(|_| {
            let mut b = vec![0u8; BYTES];
            rng.fill_bytes(&mut b);
            b
        })
        .collect()
}

/// Expected output of every shape, computed by calling the native
/// generic UDF directly.
pub fn reference(data: &[Vec<u8>]) -> Vec<Vec<i64>> {
    let mut cb = IdentityCallbacks;
    SHAPES
        .iter()
        .map(|&(_, i, d, c)| {
            data.iter()
                .map(|bytes| {
                    let args = [
                        Value::Bytes(ByteArray::new(bytes.clone())),
                        Value::Int(i),
                        Value::Int(d),
                        Value::Int(c),
                    ];
                    match generic_native(&args, &mut cb).expect("reference UDF") {
                        Value::Int(v) => v,
                        other => panic!("generic UDF returned {other:?}"),
                    }
                })
                .collect()
        })
        .collect()
}

/// Compare a result with the reference; the first difference, if any.
pub fn check(rows: &[Tuple], want: &[i64]) -> std::result::Result<(), String> {
    if rows.len() != want.len() {
        return Err(format!("{} rows, expected {}", rows.len(), want.len()));
    }
    for (i, (row, w)) in rows.iter().zip(want).enumerate() {
        match row.get(0) {
            Ok(Value::Int(v)) if v == w => {}
            got => return Err(format!("row {i}: got {got:?}, expected {w}")),
        }
    }
    Ok(())
}

struct Fixture {
    db: Database,
    def: UdfDef,
}

fn setup(design: Design, data: &[Vec<u8>], refs: &[Vec<i64>]) -> Result<Fixture> {
    let config = Config::default().with_pooled_executors(Config::default().pool_size);
    let db = Database::with_config(config.clone());
    db.execute(&format!(
        "CREATE TABLE {TABLE} (id INT, bytearray BYTEARRAY)"
    ))?;
    let table = db.catalog().table(TABLE)?;
    for (id, bytes) in data.iter().enumerate() {
        table.insert(Tuple::new(vec![
            Value::Int(id as i64),
            Value::Bytes(ByteArray::new(bytes.clone())),
        ]))?;
    }
    let def = design.def(&config);
    db.register_udf(def.clone());
    match db.worker_pool() {
        Some(pool) if !pool.wait_ready(Duration::from_secs(10)) => {
            return Err(JaguarError::Udf("worker pool did not warm up".into()));
        }
        None if design.isolated() => {
            return Err(JaguarError::Udf(
                "no worker pool: build the jaguar-worker binary".into(),
            ))
        }
        _ => {}
    }
    // One checked round so lazy work (tier-up, first checkouts) is part
    // of set-up, not of the first measured statements.
    for (shape, want) in refs.iter().enumerate() {
        let res = db.execute(&sql(shape))?;
        check(&res.rows, want).map_err(JaguarError::Udf)?;
    }
    Ok(Fixture { db, def })
}

/// Run statements round-robin over the shapes until `until`.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    f: &Fixture,
    refs: &[Vec<i64>],
    until: Instant,
    r: &mut Report,
    classes: &mut [Class],
    tracer: &mut Tracer,
    next_request: &mut u64,
    mut probe: impl FnMut(&mut Tracer, &str),
    work: &mut Work,
) {
    while Instant::now() < until {
        for (shape, want) in refs.iter().enumerate() {
            let sql = sql(shape);
            *next_request += 1;
            let t = Instant::now();
            let out = tracer.request(*next_request, "stmt", |tr| {
                let res = tr.span("sql.execute", |_| f.db.execute(&sql));
                probe(tr, &sql);
                res
            });
            let ms = ms_since(t);
            let outcome = match &out {
                Ok(res) => check(&res.rows, want).map_or_else(Outcome::Wrong, |()| Outcome::Ok),
                Err(e) => Outcome::Error(e.to_string()),
            };
            r.count(SHAPES[shape].0, &outcome);
            match (out, outcome) {
                (Ok(res), Outcome::Ok) => {
                    let rows = res.rows.len() as u64;
                    classes[shape].ok(ms, rows);
                    let s = &res.stats;
                    work.statement(
                        ms,
                        s.rows_scanned,
                        rows,
                        s.udf_invocations,
                        s.vm_instructions,
                    );
                }
                _ => classes[shape].failed(),
            }
        }
    }
}

fn new_classes() -> Vec<Class> {
    SHAPES.iter().map(|s| Class::new(s.0)).collect()
}

pub fn run(design: Design, opts: &Opts) -> Result<Report> {
    let mut r = Report::default();
    let data = generate(opts.seed);
    let refs = reference(&data);
    let origin = Instant::now();
    let mut request = 0u64;
    let mut classes = new_classes();
    let mut off = Tracer::new(false, origin);
    let mut work = Work::default();
    let seg = common::segments(
        &mut r,
        opts,
        PEAK_AFTER,
        |_| setup(design, &data, &refs),
        |f, until, r| {
            classes.iter_mut().for_each(Class::new_segment);
            let before = work.stmts;
            closed_loop(
                f,
                &refs,
                until,
                r,
                &mut classes,
                &mut off,
                &mut request,
                |_, _| {},
                &mut work,
            );
            (work.stmts - before) as usize
        },
    )?;
    common::end_to_end(&mut r, &mut classes, &seg);
    if !opts.trace {
        return Ok(r);
    }
    let f = &seg.fixture;

    // Traced run, part 1: spans and counter deltas around plain statements.
    common::rss_growth(&mut r, &seg);
    common::class_metrics(
        &mut r,
        &classes,
        &["noop", "compute", "data", "callback"],
        &[],
    );
    let noop = classes[0].median();
    let callback = classes[3].median();
    r.set(
        "ipc.callback_rtt_us",
        ((callback - noop) * 1e3 / ROWS as f64).max(0.0),
    );
    let mut tracer = Tracer::new(true, origin);
    let mut traced = new_classes();
    let mut work = Work::default();
    let before = Counters::read(&f.db, TABLE);
    let ((), active) = common::unstolen(|| {
        closed_loop(
            f,
            &refs,
            Instant::now() + opts.traced_part(),
            &mut r,
            &mut traced,
            &mut tracer,
            &mut request,
            |_, _| {},
            &mut work,
        )
    });
    traced.iter_mut().for_each(|c| c.scale(|_| active));
    let after = Counters::read(&f.db, TABLE);
    let dop = f.db.catalog().config().dop;
    layers::counter_metrics(
        &mut r,
        &Delta {
            before: &before,
            after: &after,
        },
        &work,
        dop,
    );
    r.set(
        "trace.overhead_frac",
        common::tracing_overhead(&classes, &traced),
    );

    // Part 2: plan and operator-profile probes as child spans.
    let mut ops = OpTimes::default();
    let mut probe_classes = new_classes();
    let mut probe_work = Work::default();
    let db = &f.db;
    closed_loop(
        f,
        &refs,
        Instant::now() + opts.traced_part(),
        &mut r,
        &mut probe_classes,
        &mut tracer,
        &mut request,
        |tr, sql| {
            tr.span("sql.explain", |_| db.explain_as(sql, None).map(drop))
                .expect("explain the workload statement");
            let text = tr
                .span("sql.explain_analyze", |_| db.explain_analyze(sql))
                .expect("profile the workload statement");
            ops.add(&text);
        },
        &mut probe_work,
    );
    ops.report(&mut r);
    r.set(
        "sql.plan_us",
        crate::stats::median(&trace::durations_ms(tracer.spans(), "sql.explain")) * 1e3,
    );

    // Direct layer probes, outside any statement.
    let args = [
        Value::Bytes(ByteArray::new(data[0].clone())),
        Value::Int(0),
        Value::Int(0),
        Value::Int(0),
    ];
    tracer.request(request + 1, "probe.udf", |_| {
        layers::udf_probes(&mut r, db, &f.def, &args)
    });
    tracer.request(request + 2, "probe.storage", |_| {
        layers::scan_probe(&mut r, db, TABLE)
    });
    tracer.request(request + 3, "probe.sec", |_| {
        layers::decrypt_probe(&mut r, db.catalog().config().page_size)
    });
    tracer.request(request + 4, "probe.lang", |_| {
        layers::compile_probes(&mut r, "udfs.generic", GENERIC_JAGSCRIPT)
    });
    tracer.request(request + 5, "probe.net", |_| {
        layers::net_probes(&mut r, db, &format!("SELECT id FROM {TABLE} WHERE id = 7"))
    });
    for (name, why) in [
        ("log_bytes_per_write", "in-memory database, no writes"),
        (
            "opt.inlined",
            "the generic UDF has a loop and callbacks, so it is never inlined",
        ),
        (
            "opt.backend_instances",
            "measured on the oltp_wire UDF point read",
        ),
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
    fn same_seed_same_relation() {
        assert_eq!(generate(3), generate(3));
        assert_ne!(generate(3), generate(4));
        assert_eq!(generate(3).len(), ROWS);
    }

    #[test]
    fn checker_catches_a_deliberately_wrong_row() {
        let data: Vec<Vec<u8>> = generate(1).into_iter().take(50).collect();
        let refs = reference(&data);
        let mut rows: Vec<Tuple> = refs[2]
            .iter()
            .map(|v| Tuple::new(vec![Value::Int(*v)]))
            .collect();
        assert_eq!(check(&rows, &refs[2]), Ok(()));
        rows[17] = Tuple::new(vec![Value::Int(refs[2][17] + 1)]);
        let err = check(&rows, &refs[2]).unwrap_err();
        assert!(err.starts_with("row 17:"), "{err}");
        rows.pop();
        assert!(check(&rows, &refs[2]).is_err());
    }

    #[test]
    fn engine_matches_the_reference_for_the_in_process_designs() {
        let data: Vec<Vec<u8>> = generate(5);
        let refs = reference(&data);
        for design in [Design::Cpp, Design::Jsm] {
            let f = setup(design, &data, &refs).expect("set-up checks every shape");
            let res = f.db.execute(&sql(1)).unwrap();
            assert_eq!(check(&res.rows, &refs[1]), Ok(()));
        }
    }
}
