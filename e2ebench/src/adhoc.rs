//! `adhoc_join`: interactive users issue 3- to 6-relation chain joins and
//! Fig. 1-shaped joins, each anchored on a key or a short key range with
//! literals drawn from the seed. Nearly every text is new, so the plan
//! cache (keyed on the parsed statement, literals included) misses and
//! the DP runs for almost every statement. About a tenth of the
//! statements are single-row INSERTs and keyed UPDATEs. The buffer pool
//! holds the whole database.

use std::collections::BTreeMap;
use std::path::Path;

use system_r::{tuple, Config, Database};

use crate::ops::{Op, Select, Write};
use crate::rng::Rng;
use crate::runner::{SetupTimes, Workload};
use crate::Scale;

const CHAIN: usize = 6;
const RANGE_WIDTH: i64 = 4;
const TITLES: [&str; 5] = ["CLERK", "TYPIST", "SALES", "MECHANIC", "ENGINEER"];
const CITIES: [&str; 5] = ["DENVER", "SAN JOSE", "TUCSON", "BOSTON", "AUSTIN"];

struct Sizes {
    chain_rows: i64,
    emp: i64,
    dept: i64,
    job: i64,
    buffer_pages: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes { chain_rows: 2000, emp: 2000, dept: 50, job: 10, buffer_pages: 1024 },
        Scale::Tiny => Sizes { chain_rows: 40, emp: 40, dept: 5, job: 4, buffer_pages: 64 },
    }
}

#[derive(Clone)]
struct Link {
    fk: i64,
    v: i64,
}

#[derive(Clone)]
struct Emp {
    name: String,
    dno: i64,
    job: i64,
    sal: i64,
}

struct Model {
    rng: Rng,
    /// `T0..T5`, each keyed by K; `Ti.FK` references `T(i+1).K`.
    chain: Vec<BTreeMap<i64, Link>>,
    emp: BTreeMap<i64, Emp>,
    dept: Vec<(String, String)>,
    job: Vec<String>,
    /// Keys loaded per chain table; new rows reference only these.
    chain_rows: i64,
    rounds: u64,
}

pub struct AdhocJoin {
    scale: Scale,
    model: Option<Model>,
}

impl AdhocJoin {
    pub fn new(scale: Scale) -> Self {
        AdhocJoin { scale, model: None }
    }
}

fn chain_row(rng: &mut Rng, n: i64) -> Link {
    Link { fk: rng.below(n), v: rng.below(100_000) }
}

fn emp_row(rng: &mut Rng, eno: i64, depts: i64, jobs: i64) -> Emp {
    Emp {
        name: format!("E{eno:07}"),
        dno: rng.below(depts),
        job: rng.below(jobs),
        sal: 1000 + rng.below(50_000),
    }
}

impl Workload for AdhocJoin {
    fn setup(
        &mut self,
        seed: u64,
        _dir: &Path,
        times: &mut SetupTimes,
    ) -> Result<Database, String> {
        let z = sizes(self.scale);
        let mut rng = Rng::new(seed);
        let mut db =
            Database::with_config(Config { buffer_pages: z.buffer_pages, ..Config::default() });
        let e = |e: system_r::DbError| e.to_string();
        let mut chain = Vec::new();
        for i in 0..CHAIN {
            db.execute(&format!(
                "CREATE TABLE T{i} (K INTEGER, FK INTEGER, V INTEGER, PAD VARCHAR(16))"
            ))
            .map_err(e)?;
            let rows: BTreeMap<i64, Link> =
                (0..z.chain_rows).map(|k| (k, chain_row(&mut rng, z.chain_rows))).collect();
            db.insert_rows(
                &format!("T{i}"),
                rows.iter().map(|(k, l)| tuple![*k, l.fk, l.v, format!("p{k:08}")]),
            )
            .map_err(e)?;
            db.execute(&format!("CREATE UNIQUE INDEX T{i}_K ON T{i} (K)")).map_err(e)?;
            chain.push(rows);
        }
        db.execute("CREATE TABLE EMP (ENO INTEGER, NAME VARCHAR(16), DNO INTEGER, JOB INTEGER, SAL INTEGER)")
            .map_err(e)?;
        db.execute("CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR(16), LOC VARCHAR(16))")
            .map_err(e)?;
        db.execute("CREATE TABLE JOB (JOB INTEGER, TITLE VARCHAR(16))").map_err(e)?;
        let emp: BTreeMap<i64, Emp> =
            (0..z.emp).map(|k| (k, emp_row(&mut rng, k, z.dept, z.job))).collect();
        db.insert_rows(
            "EMP",
            emp.iter().map(|(k, r)| tuple![*k, r.name.as_str(), r.dno, r.job, r.sal]),
        )
        .map_err(e)?;
        let dept: Vec<(String, String)> = (0..z.dept)
            .map(|d| (format!("D{d:03}"), CITIES[d as usize % CITIES.len()].to_string()))
            .collect();
        db.insert_rows(
            "DEPT",
            dept.iter().enumerate().map(|(d, (n, l))| tuple![d as i64, n.as_str(), l.as_str()]),
        )
        .map_err(e)?;
        let job: Vec<String> =
            (0..z.job).map(|j| TITLES[j as usize % TITLES.len()].to_string()).collect();
        db.insert_rows("JOB", job.iter().enumerate().map(|(j, t)| tuple![j as i64, t.as_str()]))
            .map_err(e)?;
        for ddl in [
            "CREATE UNIQUE INDEX EMP_ENO ON EMP (ENO)",
            "CREATE INDEX EMP_DNO ON EMP (DNO)",
            "CREATE INDEX EMP_JOB ON EMP (JOB)",
            "CREATE UNIQUE INDEX DEPT_DNO ON DEPT (DNO)",
            "CREATE UNIQUE INDEX JOB_JOB ON JOB (JOB)",
        ] {
            db.execute(ddl).map_err(e)?;
        }
        let t = std::time::Instant::now();
        db.execute("UPDATE STATISTICS").map_err(e)?;
        times.update_stats_ns.push(t.elapsed().as_nanos() as f64);
        self.model = Some(Model {
            rng: Rng::new(seed ^ 0xA5A5_0001),
            chain,
            emp,
            dept,
            job,
            chain_rows: z.chain_rows,
            rounds: 0,
        });
        Ok(db)
    }

    fn round(&mut self) -> Vec<Op> {
        let Some(m) = self.model.as_mut() else { return Vec::new() };
        let mut ops = Vec::with_capacity(11);
        for len in 3..=CHAIN {
            ops.push(Op::Select(m.chain_select(len, false)));
        }
        ops.push(Op::Select(m.fig1_select(false)));
        for len in 3..=CHAIN {
            ops.push(Op::Select(m.chain_select(len, true)));
        }
        ops.push(Op::Select(m.fig1_select(true)));
        ops.push(Op::Write(m.write()));
        m.rounds += 1;
        ops
    }
}

const CHAIN_KEY: [&str; 7] = ["", "", "", "chain3_key", "chain4_key", "chain5_key", "chain6_key"];
const CHAIN_RANGE: [&str; 7] =
    ["", "", "", "chain3_range", "chain4_range", "chain5_range", "chain6_range"];

impl Model {
    fn chain_select(&mut self, len: usize, range: bool) -> Select {
        let first = self.rng.below((CHAIN - len + 1) as i64) as usize;
        let last = first + len - 1;
        let keys = self.chain.get(first).map_or(1, |t| t.len() as i64);
        let k = self.rng.below(keys);
        let hi = if range { k + RANGE_WIDTH - 1 } else { k };
        let anchor = if range {
            format!("T{first}.K BETWEEN {k} AND {hi}")
        } else {
            format!("T{first}.K = {k}")
        };
        let tables: Vec<String> = (first..=last).map(|i| format!("T{i}")).collect();
        let joins: Vec<String> = (first..last).map(|i| format!("T{i}.FK = T{}.K", i + 1)).collect();
        let sql = format!(
            "SELECT T{first}.K, T{last}.V FROM {} WHERE {anchor} AND {}",
            tables.join(", "),
            joins.join(" AND ")
        );
        let mut expect = Vec::new();
        if let Some(t) = self.chain.get(first) {
            for (&key, link) in t.range(k..=hi) {
                let mut cur = link.clone();
                let mut ok = true;
                for table in self.chain.iter().take(last + 1).skip(first + 1) {
                    match table.get(&cur.fk) {
                        Some(next) => cur = next.clone(),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    expect.push(tuple![key, cur.v]);
                }
            }
        }
        let template = if range { CHAIN_RANGE[len] } else { CHAIN_KEY[len] };
        Select::new(template, sql, expect)
    }

    fn fig1_select(&mut self, range: bool) -> Select {
        let k = self.rng.below(self.emp.len() as i64);
        let hi = if range { k + RANGE_WIDTH - 1 } else { k };
        let anchor =
            if range { format!("EMP.ENO BETWEEN {k} AND {hi}") } else { format!("EMP.ENO = {k}") };
        let sql = format!(
            "SELECT NAME, TITLE, SAL, DNAME FROM EMP, DEPT, JOB \
             WHERE {anchor} AND EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB"
        );
        let mut expect = Vec::new();
        for r in self.emp.range(k..=hi).map(|(_, r)| r) {
            let (Some(title), Some((dname, _))) =
                (self.job.get(r.job as usize), self.dept.get(r.dno as usize))
            else {
                continue;
            };
            expect.push(tuple![r.name.as_str(), title.as_str(), r.sal, dname.as_str()]);
        }
        let template = if range { "fig1_range" } else { "fig1_key" };
        Select::new(template, sql, expect)
    }

    /// One write per round, cycling through the four write templates.
    fn write(&mut self) -> Write {
        let n = self.chain_rows;
        match self.rounds % 4 {
            0 => {
                let i = self.rng.below(CHAIN as i64) as usize;
                let table = self.chain.get_mut(i).expect("chain table index is below CHAIN");
                let k = table.keys().next_back().map_or(0, |k| k + 1);
                let link = chain_row(&mut self.rng, n);
                let row = tuple![k, link.fk, link.v, format!("p{k:08}")];
                let sql =
                    format!("INSERT INTO T{i} VALUES ({k}, {}, {}, 'p{k:08}')", link.fk, link.v);
                table.insert(k, link);
                Write {
                    template: "insert_chain",
                    sql,
                    affected: 1,
                    insert: Some((CHAIN_NAMES[i], row)),
                    where_select: None,
                }
            }
            1 => {
                let i = self.rng.below(CHAIN as i64) as usize;
                let table = self.chain.get_mut(i).expect("chain table index is below CHAIN");
                let k = self.rng.below(table.len() as i64);
                let v = self.rng.below(100_000);
                let affected = match table.get_mut(&k) {
                    Some(l) => {
                        l.v = v;
                        1
                    }
                    None => 0,
                };
                Write {
                    template: "update_chain",
                    sql: format!("UPDATE T{i} SET V = {v} WHERE K = {k}"),
                    affected,
                    insert: None,
                    where_select: Some(format!("SELECT * FROM T{i} WHERE K = {k}")),
                }
            }
            2 => {
                let eno = self.emp.keys().next_back().map_or(0, |k| k + 1);
                let r = emp_row(&mut self.rng, eno, self.dept.len() as i64, self.job.len() as i64);
                let row = tuple![eno, r.name.as_str(), r.dno, r.job, r.sal];
                let sql = format!(
                    "INSERT INTO EMP VALUES ({eno}, '{}', {}, {}, {})",
                    r.name, r.dno, r.job, r.sal
                );
                self.emp.insert(eno, r);
                Write {
                    template: "insert_emp",
                    sql,
                    affected: 1,
                    insert: Some(("EMP", row)),
                    where_select: None,
                }
            }
            _ => {
                let eno = self.rng.below(self.emp.len() as i64);
                let sal = 1000 + self.rng.below(50_000);
                let affected = match self.emp.get_mut(&eno) {
                    Some(r) => {
                        r.sal = sal;
                        1
                    }
                    None => 0,
                };
                Write {
                    template: "update_emp",
                    sql: format!("UPDATE EMP SET SAL = {sal} WHERE ENO = {eno}"),
                    affected,
                    insert: None,
                    where_select: Some(format!("SELECT * FROM EMP WHERE ENO = {eno}")),
                }
            }
        }
    }
}

const CHAIN_NAMES: [&str; CHAIN] = ["T0", "T1", "T2", "T3", "T4", "T5"];
