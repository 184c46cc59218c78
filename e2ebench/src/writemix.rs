//! `write_mix`: OLTP on a database saved to a directory and reopened from
//! it, so every page goes through the page-file backend. Keyed point and
//! short range SELECTs run beside single-row INSERTs, keyed UPDATEs and
//! keyed DELETEs; `Database::sync` ends every batch, and a durability
//! probe ends every round of 50 batches. At the end the directory is
//! reopened and every row compared with the model.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use system_r::rss::Tuple;
use system_r::{tuple, Database};

use crate::ops::{check_select, Op, Select, Write};
use crate::rng::Rng;
use crate::runner::{SetupTimes, Workload};
use crate::Scale;

/// One batch, then a sync: P point SELECT, R range SELECT, I INSERT,
/// U keyed UPDATE, D keyed DELETE (10 reads, 10 writes).
const BATCH: &str = "PIPURDPUPIRUDPRIUPDR";
/// INSERTs (and DELETEs) per batch: each batch deletes the previous
/// batch's new rows, so the table size stays stationary.
const CHURN: i64 = 3;
const RANGE_WIDTH: i64 = 10;
const BRANCHES: i64 = 100;
/// Batches per round; the durability probe ends the round. The probe
/// takes about 3.5 ms of wall time against about 20 ms for a batch's
/// statements, so once per 50 batches it adds well under 1 % to a run.
const BATCHES_PER_ROUND: usize = 50;
/// Operations per round: each batch and its sync, then the probe.
pub const ROUND_OPS: usize = BATCHES_PER_ROUND * (BATCH.len() + 1) + 1;
/// Rows the durability probe adds after its reopen: about four pages, so
/// most of them land on pages allocated after the open.
const PROBE_ROWS: i64 = 200;

#[derive(Clone)]
struct Account {
    branch: i64,
    bal: i64,
    note: String,
}

struct Model {
    rng: Rng,
    rows: BTreeMap<i64, Account>,
    /// Keys below this are never deleted; churn keys start at `churn_base`.
    stable: i64,
    churn_base: i64,
    batches: i64,
    /// Directory of the durability probe's own database.
    probe_dir: PathBuf,
}

pub struct WriteMix {
    scale: Scale,
    model: Option<Model>,
}

impl WriteMix {
    pub fn new(scale: Scale) -> Self {
        WriteMix { scale, model: None }
    }
}

fn account(rng: &mut Rng, id: i64) -> Account {
    Account { branch: rng.below(BRANCHES), bal: rng.below(1_000_000), note: format!("n{id:010}") }
}

fn row(id: i64, a: &Account) -> Tuple {
    tuple![id, a.branch, a.bal, a.note.as_str()]
}

const ALL_ROWS: &str = "SELECT ID, BRANCH, BAL, NOTE FROM ACCOUNT";

impl Workload for WriteMix {
    fn setup(&mut self, seed: u64, dir: &Path, times: &mut SetupTimes) -> Result<Database, String> {
        let stable = match self.scale {
            Scale::Full => 10_000,
            Scale::Tiny => 100,
        };
        let churn_base = stable + 1000;
        let mut rng = Rng::new(seed);
        let e = |e: system_r::DbError| e.to_string();
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE ACCOUNT (ID INTEGER, BRANCH INTEGER, BAL INTEGER, NOTE VARCHAR(24))",
        )
        .map_err(e)?;
        let keys = (0..stable).chain(churn_base - CHURN..churn_base);
        let rows: BTreeMap<i64, Account> = keys.map(|k| (k, account(&mut rng, k))).collect();
        db.insert_rows("ACCOUNT", rows.iter().map(|(k, a)| row(*k, a))).map_err(e)?;
        db.execute("CREATE UNIQUE INDEX ACCOUNT_ID ON ACCOUNT (ID)").map_err(e)?;
        db.execute("CREATE INDEX ACCOUNT_BRANCH ON ACCOUNT (BRANCH)").map_err(e)?;
        let t = Instant::now();
        db.execute("UPDATE STATISTICS").map_err(e)?;
        times.update_stats_ns.push(t.elapsed().as_nanos() as f64);
        let path = dir.join("db");
        db.save(&path).map_err(e)?;
        drop(db);
        let t = Instant::now();
        let db = Database::open(&path).map_err(e)?;
        times.open_ns.push(t.elapsed().as_nanos() as f64);
        self.model = Some(Model {
            rng: Rng::new(seed ^ 0xA5A5_0003),
            rows,
            stable,
            churn_base,
            batches: 0,
            probe_dir: dir.join("probe"),
        });
        Ok(db)
    }

    fn round(&mut self) -> Vec<Op> {
        let Some(m) = self.model.as_mut() else { return Vec::new() };
        let mut ops = Vec::with_capacity(ROUND_OPS);
        for _ in 0..BATCHES_PER_ROUND {
            m.batch(&mut ops);
        }
        ops.push(Op::ReopenProbe(m.probe_dir.clone()));
        ops
    }

    /// Reopen the synced directory and compare every row with the model.
    ///
    /// The verdict is a report line, not an operation: how many rows a
    /// faulty reopen loses depends on how many batches the run fitted in,
    /// so as a counted operation it would fail in long runs and pass in
    /// short ones. The per-round [`reopen_probe`] is the counted check.
    fn finish(&mut self, db: Database, dir: &Path) -> Option<String> {
        let m = self.model.as_ref()?;
        let verdict = (|| {
            db.sync().map_err(|e| format!("sync: {e}"))?;
            drop(db);
            let db = Database::open(dir.join("db")).map_err(|e| format!("reopen: {e}"))?;
            let rs = db.query(ALL_ROWS).map_err(|e| format!("reopen scan: {e}"))?;
            let expect = m.rows.iter().map(|(k, a)| row(*k, a)).collect();
            let all = Select::new("reopen", ALL_ROWS.into(), expect);
            check_select(&all, &rs.rows)
        })();
        Some(match verdict {
            Ok(()) => format!("durability: reopen matches the model ({} rows)", m.rows.len()),
            Err(e) => format!("durability: MISMATCH after reopen: {e}"),
        })
    }
}

fn probe_row(k: i64) -> Tuple {
    tuple![k, format!("probe-{k:058}").as_str()]
}

/// The durability probe that ends every round: save a one-row table to
/// `dir`, open it, add [`PROBE_ROWS`] rows, `Database::sync`, reopen and
/// read every row back. Its inputs are fixed, so every round of every run
/// does the same work and gets the same verdict.
pub fn reopen_probe(dir: &Path) -> Result<(), String> {
    let e = |e: system_r::DbError| format!("reopen_probe: {e}");
    let mut db = Database::new();
    db.execute("CREATE TABLE PROBE (K INTEGER, PAD VARCHAR(64))").map_err(e)?;
    db.insert_rows("PROBE", std::iter::once(probe_row(0))).map_err(e)?;
    db.save(dir).map_err(e)?;
    let mut db = Database::open(dir).map_err(e)?;
    db.insert_rows("PROBE", (1..=PROBE_ROWS).map(probe_row)).map_err(e)?;
    db.sync().map_err(e)?;
    drop(db);
    let sql = "SELECT K, PAD FROM PROBE";
    let rs = Database::open(dir).map_err(e)?.query(sql).map_err(e)?;
    let expect = (0..=PROBE_ROWS).map(probe_row).collect();
    check_select(&Select::new("reopen_probe", sql.into(), expect), &rs.rows)
}

impl Model {
    /// Append one batch and its sync.
    fn batch(&mut self, ops: &mut Vec<Op>) {
        let first_new = self.churn_base + CHURN * self.batches;
        let (mut inserted, mut deleted) = (0, 0);
        for c in BATCH.chars() {
            let op = match c {
                'P' => Op::Select(self.point()),
                'R' => Op::Select(self.range()),
                'I' => {
                    inserted += 1;
                    Op::Write(self.insert(first_new + inserted - 1))
                }
                'U' => Op::Write(self.update()),
                _ => {
                    deleted += 1;
                    Op::Write(self.delete(first_new - CHURN + deleted - 1))
                }
            };
            ops.push(op);
        }
        ops.push(Op::Sync);
        self.batches += 1;
    }

    fn point(&mut self) -> Select {
        let id = self.rng.below(self.stable);
        let expect = self.rows.get(&id).map(|a| row(id, a)).into_iter().collect();
        Select::new("point", format!("{ALL_ROWS} WHERE ID = {id}"), expect)
    }

    fn range(&mut self) -> Select {
        let lo = self.rng.below(self.stable - RANGE_WIDTH + 1);
        let hi = lo + RANGE_WIDTH - 1;
        let expect = self.rows.range(lo..=hi).map(|(k, a)| tuple![*k, a.bal]).collect();
        Select::new(
            "range",
            format!("SELECT ID, BAL FROM ACCOUNT WHERE ID BETWEEN {lo} AND {hi}"),
            expect,
        )
    }

    fn insert(&mut self, id: i64) -> Write {
        let a = account(&mut self.rng, id);
        let sql =
            format!("INSERT INTO ACCOUNT VALUES ({id}, {}, {}, '{}')", a.branch, a.bal, a.note);
        let r = row(id, &a);
        self.rows.insert(id, a);
        Write {
            template: "insert",
            sql,
            affected: 1,
            insert: Some(("ACCOUNT", r)),
            where_select: None,
        }
    }

    fn update(&mut self) -> Write {
        let id = self.rng.below(self.stable);
        let bal = self.rng.below(1_000_000);
        let affected = match self.rows.get_mut(&id) {
            Some(a) => {
                a.bal = bal;
                1
            }
            None => 0,
        };
        Write {
            template: "update",
            sql: format!("UPDATE ACCOUNT SET BAL = {bal} WHERE ID = {id}"),
            affected,
            insert: None,
            where_select: Some(format!("SELECT * FROM ACCOUNT WHERE ID = {id}")),
        }
    }

    fn delete(&mut self, id: i64) -> Write {
        let affected = i64::from(self.rows.remove(&id).is_some());
        Write {
            template: "delete",
            sql: format!("DELETE FROM ACCOUNT WHERE ID = {id}"),
            affected,
            insert: None,
            where_select: Some(format!("SELECT * FROM ACCOUNT WHERE ID = {id}")),
        }
    }
}
