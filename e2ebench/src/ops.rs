//! The statements a workload issues, each with the answer the shadow
//! model predicts for it, and the checks that compare the two.

use std::path::PathBuf;

use system_r::rss::{Tuple, Value};

/// One operation of a round, in issue order.
pub enum Op {
    Select(Select),
    Write(Write),
    /// `UPDATE STATISTICS`: refreshes the catalog and invalidates every
    /// cached plan.
    UpdateStats,
    /// `Database::sync`: flush dirty frames and fsync the page files.
    Sync,
    /// `writemix::reopen_probe` in this directory: a save, write, sync and
    /// reopen round trip on fixed inputs, outside the timed windows.
    ReopenProbe(PathBuf),
}

pub struct Select {
    /// Latency bucket; `read_p50_us` is the geometric mean of the
    /// per-template medians.
    pub template: &'static str,
    pub sql: String,
    /// Rows the reference evaluation over the shadow model produced, in
    /// any order.
    pub expect: Vec<Tuple>,
    /// Output columns the rows must ascend on (the ORDER BY keys).
    pub order: Vec<usize>,
    /// Output column holding `COUNT(*)` per group, whose sum must equal
    /// `qualifying`, the number of rows the WHERE admits.
    pub count_col: Option<usize>,
    pub qualifying: i64,
}

impl Select {
    /// A SELECT checked as a multiset only (no ORDER BY, no group counts).
    pub fn new(template: &'static str, sql: String, expect: Vec<Tuple>) -> Self {
        Select { template, sql, expect, order: vec![], count_col: None, qualifying: 0 }
    }
}

pub struct Write {
    pub template: &'static str,
    pub sql: String,
    /// Rows the statement must report as inserted, updated or deleted.
    pub affected: i64,
    /// For an INSERT: its table and row, which the traced run loads
    /// through `Database::insert_rows` to time storage alone.
    pub insert: Option<(&'static str, Tuple)>,
    /// For a keyed UPDATE or DELETE: `SELECT *` over its WHERE, which the
    /// traced run times to split planning and retrieval from the apply.
    pub where_select: Option<String>,
}

/// Compare a SELECT's rows with the model: ORDER BY keys ascend, group
/// counts add up, and the rows equal the reference rows as a multiset.
pub fn check_select(sel: &Select, rows: &[Tuple]) -> Result<(), String> {
    if !sel.order.is_empty() {
        let key = |t: &Tuple| -> Vec<Value> {
            sel.order.iter().map(|&c| t.get(c).cloned().unwrap_or(Value::Null)).collect()
        };
        if let Some(i) = rows.windows(2).position(|w| key(&w[0]) > key(&w[1])) {
            return Err(format!("{}: rows {i} and {} out of ORDER BY order", sel.template, i + 1));
        }
    }
    if let Some(c) = sel.count_col {
        let mut sum = 0i64;
        for t in rows {
            match t.get(c).and_then(Value::as_int) {
                Some(n) => sum += n,
                None => {
                    return Err(format!("{}: COUNT column {c} is not an integer", sel.template))
                }
            }
        }
        if sum != sel.qualifying {
            return Err(format!(
                "{}: group counts sum to {sum}, {} rows qualify",
                sel.template, sel.qualifying
            ));
        }
    }
    let mut got = rows.to_vec();
    let mut want = sel.expect.clone();
    got.sort();
    want.sort();
    if got != want {
        let missing = want.iter().find(|t| !got.contains(t));
        let extra = got.iter().find(|t| !want.contains(t));
        return Err(format!(
            "{}: {} rows, {} expected; first missing {:?}, first unexpected {:?}\n  {}",
            sel.template,
            got.len(),
            want.len(),
            missing.map(ToString::to_string),
            extra.map(ToString::to_string),
            sel.sql
        ));
    }
    Ok(())
}

/// Compare a write's reported row count with the model's.
pub fn check_write(w: &Write, rows: &[Tuple]) -> Result<(), String> {
    let n = rows.first().and_then(|t| t.get(0)).and_then(Value::as_int);
    if n == Some(w.affected) {
        Ok(())
    } else {
        Err(format!("{}: reported {n:?} rows, model says {}\n  {}", w.template, w.affected, w.sql))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use system_r::tuple;

    fn sel(expect: Vec<Tuple>, order: Vec<usize>, count_col: Option<usize>, q: i64) -> Select {
        Select { order, count_col, qualifying: q, ..Select::new("t", "SELECT".into(), expect) }
    }

    #[test]
    fn multiset_equality_ignores_order_but_not_multiplicity() {
        let s = sel(vec![tuple![1i64], tuple![2i64], tuple![2i64]], vec![], None, 0);
        assert!(check_select(&s, &[tuple![2i64], tuple![1i64], tuple![2i64]]).is_ok());
        assert!(check_select(&s, &[tuple![2i64], tuple![1i64]]).is_err());
        assert!(check_select(&s, &[tuple![1i64], tuple![1i64], tuple![2i64]]).is_err());
    }

    #[test]
    fn order_by_keys_must_ascend() {
        let s = sel(vec![tuple![1i64, 9i64], tuple![2i64, 0i64]], vec![0], None, 0);
        assert!(check_select(&s, &[tuple![1i64, 9i64], tuple![2i64, 0i64]]).is_ok());
        assert!(check_select(&s, &[tuple![2i64, 0i64], tuple![1i64, 9i64]]).is_err());
    }

    #[test]
    fn group_counts_must_sum_to_qualifying_rows() {
        let rows = vec![tuple![1i64, 3i64], tuple![2i64, 4i64]];
        assert!(check_select(&sel(rows.clone(), vec![], Some(1), 7), &rows).is_ok());
        assert!(check_select(&sel(rows.clone(), vec![], Some(1), 8), &rows).is_err());
    }

    #[test]
    fn write_counts_compare_with_the_model() {
        let w = Write {
            template: "w",
            sql: "DELETE".into(),
            affected: 1,
            insert: None,
            where_select: None,
        };
        assert!(check_write(&w, &[tuple![1i64]]).is_ok());
        assert!(check_write(&w, &[tuple![0i64]]).is_err());
        assert!(check_write(&w, &[]).is_err());
    }
}
