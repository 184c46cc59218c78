//! `report_scan`: fixed analytic templates over the Fig. 1 database, with
//! EMP several times the default 64-page buffer pool. After warm-up every
//! plan comes from the cache; `UPDATE STATISTICS` every few rounds
//! invalidates them. Each round's SELECTs are followed by single-row
//! INSERTs alternating with keyed DELETEs of the previous round's rows,
//! so the table size stays stationary.

use std::collections::BTreeMap;
use std::path::Path;

use system_r::rss::Tuple;
use system_r::{tuple, Database};

use crate::ops::{Op, Select, Write};
use crate::rng::{Rng, Zipf};
use crate::runner::{SetupTimes, Workload};
use crate::Scale;

const TITLES: [&str; 5] = ["CLERK", "TYPIST", "SALES", "MECHANIC", "ENGINEER"];
const CITIES: [&str; 5] = ["DENVER", "SAN JOSE", "TUCSON", "BOSTON", "AUSTIN"];
/// Rows inserted, and deleted again one round later, per round.
const CHURN: i64 = 4;
/// Rounds between `UPDATE STATISTICS` statements.
const STATS_EVERY: u64 = 10;
const ZIPF_VALUES: usize = 50;
const ZIPF_S: f64 = 1.2;
const SAL_CUT: i64 = 40_000;

struct Sizes {
    emp: i64,
    dept: i64,
    job: i64,
    chain: i64,
    /// Departments the ordered, correlated and range templates touch.
    dno_cut: i64,
    eno_range: (i64, i64),
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            emp: 10_000,
            dept: 50,
            job: 10,
            chain: 250,
            dno_cut: 5,
            eno_range: (2000, 2399),
        },
        Scale::Tiny => {
            Sizes { emp: 120, dept: 6, job: 5, chain: 12, dno_cut: 2, eno_range: (10, 29) }
        }
    }
}

#[derive(Clone)]
struct Emp {
    name: String,
    dno: i64,
    job: i64,
    sal: i64,
    mgr: i64,
    z: i64,
}

struct Model {
    rng: Rng,
    zipf: Zipf,
    sizes: Sizes,
    emp: BTreeMap<i64, Emp>,
    dept: Vec<(String, String)>,
    job: Vec<String>,
    /// `C0..C3` as (K, FK) pairs, K = position.
    chain: Vec<Vec<i64>>,
    /// First key of the churn rows; stable rows have keys below `emp`.
    churn_base: i64,
    rounds: u64,
}

pub struct ReportScan {
    scale: Scale,
    model: Option<Model>,
}

impl ReportScan {
    pub fn new(scale: Scale) -> Self {
        ReportScan { scale, model: None }
    }
}

fn emp_row(rng: &mut Rng, zipf: &Zipf, eno: i64, z: &Sizes) -> Emp {
    Emp {
        name: format!("E{eno:07}"),
        dno: rng.below(z.dept),
        job: rng.below(z.job),
        sal: 1000 + rng.below(50_000),
        mgr: rng.below(z.emp),
        z: zipf.sample(rng),
    }
}

fn emp_tuple(eno: i64, r: &Emp) -> Tuple {
    tuple![eno, r.name.as_str(), r.dno, r.job, r.sal, r.mgr, r.z]
}

impl Workload for ReportScan {
    fn setup(
        &mut self,
        seed: u64,
        _dir: &Path,
        times: &mut SetupTimes,
    ) -> Result<Database, String> {
        let z = sizes(self.scale);
        let mut rng = Rng::new(seed);
        let zipf = Zipf::new(ZIPF_VALUES, ZIPF_S);
        // Default configuration: the 64-page pool the optimizer assumes.
        let mut db = Database::new();
        let e = |e: system_r::DbError| e.to_string();
        for ddl in [
            "CREATE TABLE EMP (ENO INTEGER, NAME VARCHAR(16), DNO INTEGER, JOB INTEGER, \
             SAL INTEGER, MGR INTEGER, Z INTEGER)",
            "CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR(16), LOC VARCHAR(16))",
            "CREATE TABLE JOB (JOB INTEGER, TITLE VARCHAR(16))",
        ] {
            db.execute(ddl).map_err(e)?;
        }
        let churn_base = z.emp + 1000;
        // Stable rows, then the churn rows the first round deletes.
        let keys = (0..z.emp).chain(churn_base - CHURN..churn_base);
        let emp: BTreeMap<i64, Emp> = keys.map(|k| (k, emp_row(&mut rng, &zipf, k, &z))).collect();
        db.insert_rows("EMP", emp.iter().map(|(k, r)| emp_tuple(*k, r))).map_err(e)?;
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
        let mut chain = Vec::new();
        for i in 0..4 {
            db.execute(&format!("CREATE TABLE C{i} (K INTEGER, FK INTEGER, PAD VARCHAR(20))"))
                .map_err(e)?;
            let fks: Vec<i64> = (0..z.chain).map(|_| rng.below(z.chain)).collect();
            db.insert_rows(
                &format!("C{i}"),
                fks.iter().enumerate().map(|(k, fk)| tuple![k as i64, *fk, format!("p{k:016}")]),
            )
            .map_err(e)?;
            db.execute(&format!("CREATE UNIQUE INDEX C{i}_K ON C{i} (K)")).map_err(e)?;
            chain.push(fks);
        }
        for ddl in [
            "CREATE CLUSTERED INDEX EMP_DNO ON EMP (DNO)",
            "CREATE UNIQUE INDEX EMP_ENO ON EMP (ENO)",
            "CREATE INDEX EMP_JOB ON EMP (JOB)",
            "CREATE INDEX EMP_Z ON EMP (Z)",
            "CREATE UNIQUE INDEX DEPT_DNO ON DEPT (DNO)",
            "CREATE UNIQUE INDEX JOB_JOB ON JOB (JOB)",
        ] {
            db.execute(ddl).map_err(e)?;
        }
        let t = std::time::Instant::now();
        db.execute("UPDATE STATISTICS").map_err(e)?;
        times.update_stats_ns.push(t.elapsed().as_nanos() as f64);
        self.model = Some(Model {
            rng: Rng::new(seed ^ 0xA5A5_0002),
            zipf,
            sizes: z,
            emp,
            dept,
            job,
            chain,
            churn_base,
            rounds: 0,
        });
        Ok(db)
    }

    fn round(&mut self) -> Vec<Op> {
        let Some(m) = self.model.as_mut() else { return Vec::new() };
        let mut ops: Vec<Op> = [
            m.fig1(),
            m.group(),
            m.sort_spill(),
            m.sort_prefix(),
            m.range(),
            m.join_group(),
            m.correlated(),
            m.chain4(),
            m.skewed(),
        ]
        .into_iter()
        .map(Op::Select)
        .collect();
        let first_new = m.churn_base + CHURN * m.rounds as i64;
        for j in 0..CHURN {
            ops.push(Op::Write(m.insert(first_new + j)));
            ops.push(Op::Write(m.delete(first_new - CHURN + j)));
        }
        m.rounds += 1;
        if m.rounds % STATS_EVERY == 0 {
            ops.push(Op::UpdateStats);
        }
        ops
    }
}

impl Model {
    fn rows(&self) -> impl Iterator<Item = (i64, &Emp)> {
        self.emp.iter().map(|(k, r)| (*k, r))
    }

    fn dept_of(&self, r: &Emp) -> Option<&(String, String)> {
        self.dept.get(r.dno as usize)
    }

    /// The paper's Fig. 1 join.
    fn fig1(&self) -> Select {
        let expect = self
            .rows()
            .filter_map(|(_, r)| {
                let title = self.job.get(r.job as usize)?;
                let (dname, loc) = self.dept_of(r)?;
                (title == "CLERK" && loc == "DENVER")
                    .then(|| tuple![r.name.as_str(), title.as_str(), r.sal, dname.as_str()])
            })
            .collect();
        Select::new(
            "fig1",
            "SELECT NAME, TITLE, SAL, DNAME FROM EMP, DEPT, JOB \
             WHERE TITLE = 'CLERK' AND LOC = 'DENVER' AND EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB"
                .into(),
            expect,
        )
    }

    fn group(&self) -> Select {
        let mut g: BTreeMap<i64, (i64, i64, i64, i64)> = BTreeMap::new();
        for (_, r) in self.rows() {
            let e = g.entry(r.dno).or_insert((0, 0, i64::MAX, i64::MIN));
            e.0 += 1;
            e.1 += r.sal;
            e.2 = e.2.min(r.sal);
            e.3 = e.3.max(r.sal);
        }
        let expect = g.iter().map(|(d, (n, s, lo, hi))| tuple![*d, *n, *s, *lo, *hi]).collect();
        Select {
            count_col: Some(1),
            qualifying: self.emp.len() as i64,
            ..Select::new(
                "group",
                "SELECT DNO, COUNT(*), SUM(SAL), MIN(SAL), MAX(SAL) FROM EMP GROUP BY DNO".into(),
                expect,
            )
        }
    }

    /// A full sort of more rows than one batch holds, so it spills.
    fn sort_spill(&self) -> Select {
        let expect =
            self.rows().filter(|(_, r)| r.sal > SAL_CUT).map(|(k, r)| tuple![k, r.sal]).collect();
        Select {
            order: vec![1],
            ..Select::new(
                "sort_spill",
                format!("SELECT ENO, SAL FROM EMP WHERE SAL > {SAL_CUT} ORDER BY SAL"),
                expect,
            )
        }
    }

    /// ORDER BY led by the clustered key: the index delivers DNO order and
    /// a partial sort orders SAL within each department.
    fn sort_prefix(&self) -> Select {
        let cut = self.sizes.dno_cut * 2;
        let expect = self
            .rows()
            .filter(|(_, r)| r.dno < cut)
            .map(|(k, r)| tuple![r.dno, r.sal, k])
            .collect();
        Select {
            order: vec![0, 1],
            ..Select::new(
                "sort_prefix",
                format!("SELECT DNO, SAL, ENO FROM EMP WHERE DNO < {cut} ORDER BY DNO, SAL"),
                expect,
            )
        }
    }

    fn range(&self) -> Select {
        let (lo, hi) = self.sizes.eno_range;
        let expect =
            self.emp.range(lo..=hi).map(|(k, r)| tuple![*k, r.name.as_str(), r.sal]).collect();
        Select::new(
            "range",
            format!("SELECT ENO, NAME, SAL FROM EMP WHERE ENO BETWEEN {lo} AND {hi}"),
            expect,
        )
    }

    fn join_group(&self) -> Select {
        let mut g: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
        let mut qualifying = 0;
        for (_, r) in self.rows() {
            if let Some((dname, loc)) = self.dept_of(r) {
                if loc == "DENVER" {
                    let e = g.entry(dname.as_str()).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += r.sal;
                    qualifying += 1;
                }
            }
        }
        let expect = g.iter().map(|(d, (n, s))| tuple![*d, *n, *s]).collect();
        Select {
            count_col: Some(1),
            qualifying,
            ..Select::new(
                "join_group",
                "SELECT DNAME, COUNT(*), SUM(SAL) FROM EMP, DEPT \
                 WHERE EMP.DNO = DEPT.DNO AND LOC = 'DENVER' GROUP BY DNAME"
                    .into(),
                expect,
            )
        }
    }

    /// §6: a subquery correlated on the outer row's manager.
    fn correlated(&self) -> Select {
        let cut = self.sizes.dno_cut;
        let expect = self
            .rows()
            .filter(|(_, r)| {
                r.dno < cut && self.emp.get(&r.mgr).is_some_and(|boss| r.sal > boss.sal)
            })
            .map(|(k, r)| tuple![k, r.sal])
            .collect();
        Select::new(
            "correlated",
            format!(
                "SELECT ENO, SAL FROM EMP X WHERE DNO < {cut} AND \
                 SAL > (SELECT SAL FROM EMP WHERE ENO = X.MGR)"
            ),
            expect,
        )
    }

    fn chain4(&self) -> Select {
        let mut expect = Vec::new();
        if let [c0, c1, c2, c3] = self.chain.as_slice() {
            for (k, &fk0) in c0.iter().enumerate() {
                let hop = |t: &Vec<i64>, fk: i64| {
                    usize::try_from(fk).ok().and_then(|i| t.get(i)).copied()
                };
                let reached =
                    hop(c1, fk0).and_then(|fk1| hop(c2, fk1)).and_then(|fk2| hop(c3, fk2));
                if reached.is_some() {
                    expect.push(tuple![k as i64]);
                }
            }
        }
        Select::new(
            "chain4",
            "SELECT C0.K FROM C0, C1, C2, C3 WHERE C0.FK = C1.K AND C1.FK = C2.K AND C2.FK = C3.K"
                .into(),
            expect,
        )
    }

    /// Equality on the Zipf column's most frequent value: Table 1's
    /// 1/ICARD estimate is far below the true result size.
    fn skewed(&self) -> Select {
        let expect = self.rows().filter(|(_, r)| r.z == 0).map(|(k, r)| tuple![k, r.sal]).collect();
        Select::new("skewed", "SELECT ENO, SAL FROM EMP WHERE Z = 0".into(), expect)
    }

    fn insert(&mut self, eno: i64) -> Write {
        let r = emp_row(&mut self.rng, &self.zipf, eno, &self.sizes);
        let row = emp_tuple(eno, &r);
        let sql = format!(
            "INSERT INTO EMP VALUES ({eno}, '{}', {}, {}, {}, {}, {})",
            r.name, r.dno, r.job, r.sal, r.mgr, r.z
        );
        self.emp.insert(eno, r);
        Write {
            template: "insert",
            sql,
            affected: 1,
            insert: Some(("EMP", row)),
            where_select: None,
        }
    }

    fn delete(&mut self, eno: i64) -> Write {
        let affected = i64::from(self.emp.remove(&eno).is_some());
        Write {
            template: "delete",
            sql: format!("DELETE FROM EMP WHERE ENO = {eno}"),
            affected,
            insert: None,
            where_select: Some(format!("SELECT * FROM EMP WHERE ENO = {eno}")),
        }
    }
}
