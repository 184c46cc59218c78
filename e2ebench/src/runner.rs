//! The closed-loop client: one thread issues each round's
//! statements back to back, with no think time, until the timed phase has
//! lasted the requested seconds. Answers are checked between statements,
//! outside the timed windows.
//!
//! A slice of the calibration kernel runs just before each round, and
//! the round's times are reported multiplied by that slice's factor (see
//! `calib`): the machine's speed drifts within a run as well as between
//! runs. Every timed end-to-end metric but `setup_s` is calibrated; the
//! raw times are printed beside them.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use system_r::core::{bind_select, NodeMeasurement, Optimizer, QueryPlan};
use system_r::executor::ResultSet;
use system_r::rss::{IoStats, Tuple, Value};
use system_r::sql::{parse_statement, Statement};
use system_r::{Database, VersionedCache};

use crate::calib::Calibration;
use crate::ops::{check_select, check_write, Op, Select, Write};
use crate::stats::{geomean, mean, median, percentile};

/// A seeded workload: a database, a shadow model of its data, and the
/// statements to issue against both.
pub trait Workload {
    /// Build the database and a fresh shadow model from the seed. `dir` is
    /// an empty scratch directory the workload may keep its files in.
    fn setup(&mut self, seed: u64, dir: &Path, times: &mut SetupTimes) -> Result<Database, String>;
    /// The next round of statements, each carrying the model's answer;
    /// the model already reflects every write of the round.
    fn round(&mut self) -> Vec<Op>;
    /// Final check after the timed phase, reported as a line of its own
    /// (the durable workload reopens its directory and compares every row
    /// with the model).
    fn finish(&mut self, _db: Database, _dir: &Path) -> Option<String> {
        None
    }
}

/// Layer timings taken inside `setup` (nanoseconds, uncalibrated).
#[derive(Default)]
pub struct SetupTimes {
    pub update_stats_ns: Vec<f64>,
    pub open_ns: Vec<f64>,
}

pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    /// Minimum SELECTs, and minimum writes, per run; 1 000 gives p99 ten
    /// samples beyond it.
    pub min_ops: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub trace: bool,
    /// Alter one reference row of the first SELECT (self-test only).
    pub plant_wrong_answer: bool,
    /// Directory for the workload's files; the caller removes it.
    pub scratch: PathBuf,
}

pub type Metric = (&'static str, f64, &'static str);

/// A run's result: the JSON fields plus the report lines.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<Metric>,
    /// The end-to-end metrics from uncalibrated times (untraced runs).
    pub raw: Vec<Metric>,
    pub notes: Vec<String>,
}

/// Wall-clock ceiling for the timed phase, so a run always exits well
/// inside its three minutes even on a slow machine.
const WALL_LIMIT: Duration = Duration::from_secs(120);

/// Statement latencies on one clock (calibrated or raw).
#[derive(Default)]
struct Samples {
    /// Statements plus syncs: the timed phase.
    timed_ns: f64,
    reads: BTreeMap<&'static str, Vec<f64>>,
    writes: BTreeMap<&'static str, Vec<f64>>,
    read_all: Vec<f64>,
    write_all: Vec<f64>,
}

#[derive(Clone, Copy)]
enum Kind {
    Read,
    Write,
    /// `UPDATE STATISTICS` and syncs: timed, but neither read nor write.
    Other,
}

impl Samples {
    fn add(&mut self, template: &'static str, ns: f64, kind: Kind) {
        self.timed_ns += ns;
        let (by_template, all) = match kind {
            Kind::Read => (&mut self.reads, &mut self.read_all),
            Kind::Write => (&mut self.writes, &mut self.write_all),
            Kind::Other => return,
        };
        by_template.entry(template).or_default().push(ns);
        all.push(ns);
    }
}

struct Tally {
    /// Calibration factor of the current round.
    factor: f64,
    cal: Samples,
    raw: Samples,
    attempted: u64,
    failed: u64,
    wrong: u64,
    statements: u64,
    first_error: Option<String>,
    /// Failed durability probes, counted in `failed` but not as wrong
    /// answers: the probe's inputs are fixed, so it fails in every round
    /// or in none.
    probe_failed: u64,
    probe_error: Option<String>,
    layers: Layers,
}

/// Per-layer samples of the traced run, calibrated, in nanoseconds.
#[derive(Default)]
struct Layers {
    parse: Vec<f64>,
    bind: Vec<f64>,
    optimize: Vec<f64>,
    plans_considered: Vec<f64>,
    hits: u64,
    misses: u64,
    hit: Vec<f64>,
    miss: Vec<f64>,
    /// A copy of the facade's plan cache, fed the same keys and versions,
    /// on which the cache's own work is timed.
    replica: VersionedCache<QueryPlan>,
    /// Statements whose replica lookup disagreed with the facade's cache.
    replica_disagreed: u64,
    /// Per template: parse + bind + DP + cache miss, or parse + cache
    /// hit, plus execute, each stage timed on its own.
    stage_sums: BTreeMap<&'static str, Vec<f64>>,
    execute: Vec<f64>,
    rows_out: Vec<f64>,
    select_io: IoStats,
    selects: u64,
    insert: Vec<f64>,
    write_backend_writes: u64,
    apply: Vec<f64>,
    update_stats: Vec<f64>,
    sync: Vec<f64>,
    open: Vec<f64>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            factor: 1.0,
            cal: Samples::default(),
            raw: Samples::default(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            statements: 0,
            first_error: None,
            probe_failed: 0,
            probe_error: None,
            layers: Layers::default(),
        }
    }

    /// Record one timed window of `raw_ns` wall time.
    fn record(&mut self, template: &'static str, raw_ns: f64, kind: Kind) {
        self.cal.add(template, raw_ns * self.factor, kind);
        self.raw.add(template, raw_ns, kind);
    }

    fn fail(&mut self, wrong: bool, msg: String) {
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
        self.first_error.get_or_insert(msg);
    }

    fn probe(&mut self, dir: &Path) {
        if let Err(e) = crate::writemix::reopen_probe(dir) {
            self.failed += 1;
            self.probe_failed += 1;
            self.probe_error.get_or_insert(e);
        }
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Touch every value of every row, as a client reading the result would.
fn consume(rs: &ResultSet) -> usize {
    let mut n = 0;
    for row in &rs.rows {
        n += black_box(row.values()).len();
    }
    n
}

/// Run one workload end to end and build its report.
pub fn run(wl: &mut dyn Workload, s: &Settings) -> Result<Report, String> {
    let mut cal = Calibration::default();
    let mut tally = Tally::new();
    let mut setup_ns = Vec::new();
    let mut db: Option<Database> = None;
    let mut dir = PathBuf::new();
    for i in 0..s.setups.max(1) {
        drop(db.take());
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = s.scratch.join(format!("setup{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // Calibrates the layer timings taken inside set-up.
        let factor = cal.slice(Duration::from_millis(20));
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let built = wl.setup(s.seed, &dir, &mut times)?;
        setup_ns.push(ns(t.elapsed()));
        let l = &mut tally.layers;
        l.update_stats.extend(times.update_stats_ns.iter().map(|x| x * factor));
        l.open.extend(times.open_ns.iter().map(|x| x * factor));
        db = Some(built);
    }
    let mut db = db.ok_or("no set-up ran")?;
    let tables: Vec<String> = db
        .catalog()
        .relations()
        .iter()
        .map(|r| format!("{} {}r/{}p", r.name, r.stats.ncard, r.stats.tcard))
        .collect();

    let wall = Instant::now();
    let mut rounds = 0u64;
    let mut last_round = Duration::from_millis(10);
    let mut rss_mb = None;
    loop {
        let mut ops = wl.round();
        if s.plant_wrong_answer && rounds == 0 {
            plant(&mut ops);
        }
        // Calibrate for about a tenth of the previous round's time.
        tally.factor = cal.slice((last_round / 10).max(Duration::from_millis(1)));
        let before = tally.raw.timed_ns;
        for op in &ops {
            tally.attempted += 1;
            if s.trace {
                traced_op(&mut db, op, &mut tally);
            } else {
                timed_op(&mut db, op, &mut tally);
            }
        }
        last_round = Duration::from_nanos((tally.raw.timed_ns - before) as u64);
        rounds += 1;
        let enough =
            tally.raw.read_all.len() >= s.min_ops && tally.raw.write_all.len() >= s.min_ops;
        if enough && rss_mb.is_none() {
            // Peak memory after a fixed number of rounds: memory that grows
            // with every statement then reads the same in a run that fits
            // more statements into its seconds.
            rss_mb = Some(peak_rss_mb());
        }
        if enough && tally.raw.timed_ns >= s.seconds * 1e9 {
            break;
        }
        if wall.elapsed() > WALL_LIMIT {
            return Err(format!(
                "timed phase passed {}s with {} SELECTs and {} writes",
                WALL_LIMIT.as_secs(),
                tally.raw.read_all.len(),
                tally.raw.write_all.len()
            ));
        }
    }
    let finish = wl.finish(db, &dir);

    let mut notes = vec![
        format!("tables (rows/pages): {}", tables.join(" ")),
        format!(
            "rounds: {rounds}; statements: {} ({} SELECT, {} writes)",
            tally.statements,
            tally.cal.read_all.len(),
            tally.cal.write_all.len()
        ),
        format!(
            "calibration: median kernel {:.0} ns, reference {:.0} ns",
            cal.median_ns(),
            crate::calib::REF_NS
        ),
    ];
    notes.extend(finish);
    if let Some(e) = &tally.probe_error {
        notes.push(format!(
            "durability probe: failed in {} of {rounds} rounds: {e}",
            tally.probe_failed
        ));
    }
    if let Some(e) = &tally.first_error {
        notes.push(format!("first failure: {e}"));
    }
    for (name, v) in tally.cal.reads.iter().chain(&tally.cal.writes) {
        let p50 = median(v).map_or(0.0, |x| x / 1e3);
        let p99 = percentile(v, 0.99).map_or("n/a".into(), |x| format!("{:.0}", x / 1e3));
        notes.push(format!("  {name}: n={} p50={p50:.0} p99={p99} us", v.len()));
    }
    let rss = rss_mb.unwrap_or_else(peak_rss_mb);
    let (metrics, raw) = if s.trace {
        let l = &tally.layers;
        if let (Some(sum), Some(total)) =
            (template_geomean(&l.stage_sums), template_geomean(&tally.cal.reads))
        {
            notes.push(format!(
                "traced stage sum read_p50_us: {:.1} (traced plan + execute: {:.1})",
                sum / 1e3,
                total / 1e3
            ));
        }
        if l.replica_disagreed > 0 {
            notes.push(format!(
                "plan-cache replica disagreed with the facade on {} SELECTs",
                l.replica_disagreed
            ));
        }
        (layer_metrics(&tally), Vec::new())
    } else {
        // `setup_s` stays wall time: set-up allocates fresh memory (and
        // the durable workload writes and fsyncs files), which the kernel
        // does not track. Calibrated by the run's kernel median its spread
        // over ten runs grew from 0.07 to 0.21 of the median on
        // report_scan; uncalibrated it stayed at 0.05-0.07 everywhere.
        (
            end_to_end(&tally.cal, tally.statements, &setup_ns, rss)?,
            end_to_end(&tally.raw, tally.statements, &setup_ns, rss)?,
        )
    };
    Ok(Report {
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        raw,
        notes,
    })
}

/// Change one reference row of the first SELECT, so a correct answer
/// must be reported as wrong.
fn plant(ops: &mut [Op]) {
    let first = ops.iter_mut().find_map(|op| match op {
        Op::Select(sel) => Some(sel),
        _ => None,
    });
    if let Some(sel) = first {
        match sel.expect.first_mut() {
            Some(row) => {
                let mut v = row.values().to_vec();
                v.push(Value::Str("planted".into()));
                *row = Tuple::new(v);
            }
            None => sel.expect.push(Tuple::new(vec![])),
        }
    }
}

fn timed_op(db: &mut Database, op: &Op, t: &mut Tally) {
    match op {
        Op::Select(sel) => {
            t.statements += 1;
            let start = Instant::now();
            let res = db.query(&sel.sql);
            if let Ok(rs) = &res {
                black_box(consume(rs));
            }
            let run = start.elapsed();
            match res {
                Ok(rs) => {
                    let verdict = check_select(sel, &rs.rows);
                    let start = Instant::now();
                    drop(rs);
                    t.record(sel.template, ns(run + start.elapsed()), Kind::Read);
                    if let Err(e) = verdict {
                        t.fail(true, e);
                    }
                }
                Err(e) => t.fail(false, format!("{}: {e}\n  {}", sel.template, sel.sql)),
            }
        }
        Op::Write(w) => {
            t.statements += 1;
            let start = Instant::now();
            let res = db.execute(&w.sql);
            let run = start.elapsed();
            match res {
                Ok(rs) => {
                    let verdict = check_write(w, &rs.rows);
                    let start = Instant::now();
                    drop(rs);
                    t.record(w.template, ns(run + start.elapsed()), Kind::Write);
                    if let Err(e) = verdict {
                        t.fail(true, e);
                    }
                }
                Err(e) => t.fail(false, format!("{}: {e}\n  {}", w.template, w.sql)),
            }
        }
        Op::UpdateStats => {
            t.statements += 1;
            let start = Instant::now();
            let res = db.execute("UPDATE STATISTICS");
            t.record("update_stats", ns(start.elapsed()), Kind::Other);
            if let Err(e) = res {
                t.fail(false, format!("UPDATE STATISTICS: {e}"));
            }
        }
        Op::Sync => {
            let start = Instant::now();
            let res = db.sync();
            t.record("sync", ns(start.elapsed()), Kind::Other);
            if let Err(e) = res {
                t.fail(false, format!("sync: {e}"));
            }
        }
        Op::ReopenProbe(dir) => t.probe(dir),
    }
}

/// The traced path: the same statement, split into calls on each layer's
/// public functions, each timed or counted from outside.
fn traced_op(db: &mut Database, op: &Op, t: &mut Tally) {
    let result = match op {
        Op::Select(sel) => {
            t.statements += 1;
            traced_select(db, sel, t)
        }
        Op::Write(w) => {
            t.statements += 1;
            traced_write(db, w, t)
        }
        Op::UpdateStats => {
            t.statements += 1;
            let start = Instant::now();
            let res = db.execute("UPDATE STATISTICS");
            let d = ns(start.elapsed());
            t.record("update_stats", d, Kind::Other);
            t.layers.update_stats.push(d * t.factor);
            res.map(drop).map_err(|e| (false, format!("UPDATE STATISTICS: {e}")))
        }
        Op::Sync => {
            let io0 = db.io_stats();
            let start = Instant::now();
            let res = db.sync();
            let d = ns(start.elapsed());
            t.record("sync", d, Kind::Other);
            t.layers.sync.push(d * t.factor);
            t.layers.write_backend_writes += db.io_stats().since(&io0).backend_writes;
            res.map_err(|e| (false, format!("sync: {e}")))
        }
        Op::ReopenProbe(dir) => {
            t.probe(dir);
            Ok(())
        }
    };
    if let Err((wrong, msg)) = result {
        t.fail(wrong, msg);
    }
}

/// `Err((wrong_answer, message))`: a wrong answer, or an error returned.
type OpResult = Result<(), (bool, String)>;

fn traced_select(db: &Database, sel: &Select, t: &mut Tally) -> OpResult {
    let err = |e: &dyn std::fmt::Display| (false, format!("{}: {e}\n  {}", sel.template, sel.sql));
    let f = t.factor;
    let start = Instant::now();
    let stmt = parse_statement(&sel.sql).map_err(|e| err(&e))?;
    let parse = ns(start.elapsed());
    let Statement::Select(ast) = stmt else {
        return Err(err(&"not a SELECT"));
    };
    let start = Instant::now();
    let bound = bind_select(db.catalog(), &ast).map_err(|e| err(&e))?;
    let bind = ns(start.elapsed());

    // The plan cache's own work, timed on the replica: the facade keys its
    // cache on the parsed statement's Debug form and the catalog version,
    // looks the key up, and on a miss inserts a clone of the new plan.
    let version = db.catalog().version();
    let start = Instant::now();
    let key = format!("{ast:?}");
    let replica_hit = black_box(t.layers.replica.lookup(&key, version)).is_some();
    let lookup = ns(start.elapsed());

    // `Session::plan` parses again, then hits the shared cache or binds,
    // runs the DP and inserts; the stats delta says which.
    let session = db.session();
    let (h0, m0) = db.plan_cache_stats();
    let start = Instant::now();
    let plan = session.plan(&sel.sql).map_err(|e| err(&e))?;
    let plan_ns = ns(start.elapsed());
    let (h1, m1) = db.plan_cache_stats();
    let hit = h1 > h0 && m1 == m0;
    let l = &mut t.layers;
    if replica_hit != hit {
        l.replica_disagreed += 1;
    }
    let planning = if hit {
        l.hits += 1;
        l.hit.push(lookup * f);
        lookup
    } else {
        // A miss: time the DP on its own (the cache already holds the
        // plan), then the replica's insert of a clone of it.
        l.misses += 1;
        let optimizer = Optimizer::with_config(db.catalog(), db.config());
        let start = Instant::now();
        let fresh = optimizer.optimize_bound(&bound);
        let opt = ns(start.elapsed());
        l.optimize.push(opt * f);
        l.plans_considered.push(fresh.stats.plans_considered as f64);
        let start = Instant::now();
        l.replica.insert(key, version, fresh.clone());
        let insert = ns(start.elapsed());
        l.miss.push((lookup + insert) * f);
        bind + opt + lookup + insert
    };
    l.parse.push(parse * f);
    l.bind.push(bind * f);

    let start = Instant::now();
    let (rs, nodes, delta) = db.execute_plan_traced(&plan).map_err(|e| err(&e))?;
    black_box(consume(&rs));
    let run = start.elapsed();
    let verdict = check_select(sel, &rs.rows).and_then(|()| io_identity(&nodes, &delta));
    let rows = rs.rows.len();
    let start = Instant::now();
    drop(rs);
    let exec = ns(run + start.elapsed());
    let l = &mut t.layers;
    l.execute.push(exec * f);
    l.rows_out.push(rows as f64);
    l.select_io += delta;
    l.selects += 1;
    l.stage_sums.entry(sel.template).or_default().push((parse + planning + exec) * f);
    // The statement's latency in the traced run: one window around
    // `Session::plan`, plus the execution.
    t.record(sel.template, plan_ns + exec, Kind::Read);
    verdict.map_err(|e| (true, e))
}

/// The paper's accounting identity, checked from outside: the per-node
/// page fetches and RSI calls of a traced execution sum to the statement's
/// whole `IoStats` delta.
fn io_identity(nodes: &HashMap<usize, NodeMeasurement>, delta: &IoStats) -> Result<(), String> {
    let mut sum = IoStats::default();
    for m in nodes.values() {
        sum += m.io;
    }
    let pairs = [
        ("data page fetches", sum.data_page_fetches, delta.data_page_fetches),
        ("index page fetches", sum.index_page_fetches, delta.index_page_fetches),
        ("temp page fetches", sum.temp_page_fetches, delta.temp_page_fetches),
        ("temp pages written", sum.temp_pages_written, delta.temp_pages_written),
        ("RSI calls", sum.rsi_calls, delta.rsi_calls),
    ];
    for (what, nodes_sum, whole) in pairs {
        if nodes_sum != whole {
            return Err(format!("per-node {what} sum to {nodes_sum}, statement delta is {whole}"));
        }
    }
    Ok(())
}

fn traced_write(db: &mut Database, w: &Write, t: &mut Tally) -> OpResult {
    let err = |e: &dyn std::fmt::Display| (false, format!("{}: {e}\n  {}", w.template, w.sql));
    let f = t.factor;
    if let Some((table, row)) = &w.insert {
        let io0 = db.io_stats();
        let start = Instant::now();
        let n = db.insert_rows(table, std::iter::once(row.clone())).map_err(|e| err(&e))?;
        let d = ns(start.elapsed());
        t.layers.insert.push(d * f);
        t.layers.write_backend_writes += db.io_stats().since(&io0).backend_writes;
        t.record(w.template, d, Kind::Write);
        return if i64::try_from(n).ok() == Some(w.affected) {
            Ok(())
        } else {
            Err((true, format!("{}: inserted {n}, model says {}", w.template, w.affected)))
        };
    }
    // Parse, plan and run the SELECT of the WHERE on its own first, the
    // way the DML plans it (bound and optimized, not through the plan
    // cache, whose entries it would otherwise displace), so the rest of
    // the statement's time is the apply.
    let select_ns = match &w.where_select {
        Some(q) => {
            let start = Instant::now();
            let Statement::Select(ast) = parse_statement(q).map_err(|e| err(&e))? else {
                return Err(err(&"not a SELECT"));
            };
            let bound = bind_select(db.catalog(), &ast).map_err(|e| err(&e))?;
            let plan = Optimizer::with_config(db.catalog(), db.config()).optimize_bound(&bound);
            let rs = db.execute_plan(&plan).map_err(|e| err(&e))?;
            black_box(consume(&rs));
            drop(rs);
            Some(ns(start.elapsed()))
        }
        None => None,
    };
    let io0 = db.io_stats();
    let start = Instant::now();
    let rs = db.execute(&w.sql).map_err(|e| err(&e))?;
    let run = start.elapsed();
    let verdict = check_write(w, &rs.rows);
    let start = Instant::now();
    drop(rs);
    let d = ns(run + start.elapsed());
    if let Some(sel) = select_ns {
        t.layers.apply.push((d - sel) * f);
    }
    t.layers.write_backend_writes += db.io_stats().since(&io0).backend_writes;
    t.record(w.template, d, Kind::Write);
    verdict.map_err(|e| (true, e))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Geometric mean over templates of each template's median.
fn template_geomean(by: &BTreeMap<&'static str, Vec<f64>>) -> Option<f64> {
    let medians: Vec<f64> = by.values().filter_map(|v| median(v)).collect();
    geomean(&medians)
}

fn end_to_end(
    s: &Samples,
    statements: u64,
    setup_ns: &[f64],
    rss_mb: f64,
) -> Result<Vec<Metric>, String> {
    let need = |v: Option<f64>, what: &str| v.ok_or(format!("too few samples for {what}"));
    Ok(vec![
        ("setup_s", need(median(setup_ns), "setup_s")? / 1e9, "s"),
        ("stmt_per_s", statements as f64 / (s.timed_ns / 1e9), "1/s"),
        ("read_p50_us", need(template_geomean(&s.reads), "read_p50_us")? / 1e3, "us"),
        ("read_p99_us", need(percentile(&s.read_all, 0.99), "read_p99_us")? / 1e3, "us"),
        ("write_p50_us", need(template_geomean(&s.writes), "write_p50_us")? / 1e3, "us"),
        ("write_p99_us", need(percentile(&s.write_all, 0.99), "write_p99_us")? / 1e3, "us"),
        ("peak_rss_mb", rss_mb, "MB"),
    ])
}

fn layer_metrics(t: &Tally) -> Vec<Metric> {
    let l = &t.layers;
    let us = |v: &[f64]| median(v).map_or(0.0, |x| x / 1e3);
    let ratio = |a: u64, b: u64| if a + b == 0 { 0.0 } else { a as f64 / (a + b) as f64 };
    let per_select = |x: u64| if l.selects == 0 { 0.0 } else { x as f64 / l.selects as f64 };
    let io = &l.select_io;
    let fetches = io.data_page_fetches + io.index_page_fetches + io.temp_page_fetches;
    let writes = t.cal.write_all.len();
    vec![
        ("sql.parse_us", us(&l.parse), "us"),
        ("core.bind_us", us(&l.bind), "us"),
        ("core.optimize_us", us(&l.optimize), "us"),
        ("core.plans_considered", median(&l.plans_considered).unwrap_or(0.0), "count"),
        ("plancache.hit_ratio", ratio(l.hits, l.misses), "ratio"),
        ("plancache.hit_us", us(&l.hit), "us"),
        ("plancache.miss_us", us(&l.miss), "us"),
        ("executor.execute_us", us(&l.execute), "us"),
        ("executor.rows_out", mean(&l.rows_out), "count"),
        ("rss.rsi_calls", per_select(io.rsi_calls), "count"),
        ("rss.page_fetches", per_select(fetches), "count"),
        ("rss.buffer_hit_ratio", ratio(io.buffer_hits, fetches), "ratio"),
        ("rss.backend_reads", per_select(io.backend_reads), "count"),
        ("rss.temp_pages_written", per_select(io.temp_pages_written), "count"),
        ("rss.insert_us", us(&l.insert), "us"),
        (
            "rss.backend_writes",
            if writes == 0 { 0.0 } else { l.write_backend_writes as f64 / writes as f64 },
            "count",
        ),
        ("dml.apply_us", us(&l.apply), "us"),
        ("catalog.update_stats_us", us(&l.update_stats), "us"),
        ("pagefile.sync_us", us(&l.sync), "us"),
        ("pagefile.open_s", median(&l.open).map_or(0.0, |x| x / 1e9), "s"),
    ]
}
