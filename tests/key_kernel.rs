//! The one key kernel: joins and `GROUP BY` hash a row's key cells with
//! `sa_exec::key_fingerprint` and compare them with `sa_exec::keys_eq`.
//!
//! - Keys that compare equal hash equally, so a join on `k = fk` finds what
//!   the residual form `k + 0 = fk` finds, in the stream and in the row
//!   oracle `execute`.
//! - `Int(2^53)` and `Int(2^53 + 1)` round to one f64, so they share a
//!   fingerprint but are two keys: a `GROUP BY` keeps them apart at any
//!   worker count, and a join matches each probe row to its own build row.
//! - NULL keys group with each other but never join, on either side.
//! - A row's fingerprint is its key tuple's: `key_fingerprint` agrees with
//!   the accumulator's key index (`FpMap::fingerprint` of the row's
//!   `Vec<Value>`), which a `GROUP BY` row looks itself up in and which
//!   shard merges and `group(&key)` hash stored keys with.

use std::sync::Arc;

use sampling_algebra::core::hash::FpMap;
use sampling_algebra::exec::{execute, key_fingerprint, keys_eq, Row};
use sampling_algebra::prelude::*;
use sampling_algebra::storage::{ColumnData, ColumnVec};

/// 2^53: the first `i64` past which f64 skips integers.
const BIG: i64 = 1 << 53;

/// One table per `(name, column, type, cells)`; `block_rows` 4, so a
/// partitioned scan gives each of several workers blocks of its own.
fn catalog(tables: &[(&str, &str, DataType, Vec<Value>)]) -> Catalog {
    let mut c = Catalog::new();
    for (name, column, dt, cells) in tables {
        let schema = Schema::new(vec![
            Field::new(*column, *dt),
            Field::new(format!("{name}_v"), DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new(*name, schema).with_block_rows(4);
        for (i, cell) in cells.iter().enumerate() {
            b.push_row(&[cell.clone(), Value::Float(i as f64)]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
    }
    c
}

/// `plan`'s rows through the stream at `hint`, checked equal to the row
/// oracle's.
fn joined(plan: &LogicalPlan, c: &Catalog, hint: usize) -> Vec<Row> {
    let opts = ExecOptions::default();
    let rows = open_stream(plan, c, &opts)
        .unwrap()
        .collect_rows(hint)
        .unwrap();
    assert_eq!(
        rows,
        execute(plan, c, &opts).unwrap().rows,
        "stream vs execute"
    );
    rows
}

#[test]
fn colliding_keys_share_a_fingerprint_through_the_kernel() {
    let ints = ColumnVec::new(ColumnData::Int(vec![BIG, BIG + 1]));
    let floats = ColumnVec::new(ColumnData::Float(vec![BIG as f64]));
    let (ints, floats) = (&[&ints][..], &[&floats][..]);
    // Two keys, one fingerprint: the pins below test the equality check.
    assert_eq!(key_fingerprint(ints, 0), key_fingerprint(ints, 1));
    assert!(!keys_eq(ints, 0, ints, 1));
    // Int(2^53 + 1) == Float(2^53), as `Value` says, so they hash alike.
    assert_eq!(Value::Int(BIG + 1), Value::Float(BIG as f64));
    assert!(keys_eq(ints, 1, floats, 0));
    assert_eq!(key_fingerprint(ints, 1), key_fingerprint(floats, 0));
}

#[test]
fn a_row_fingerprints_as_its_key_tuple_does() {
    let valid = |data: ColumnData, nulls: &[usize]| ColumnVec {
        validity: Some((0..5).map(|row| !nulls.contains(&row)).collect()),
        data,
    };
    let ints = valid(ColumnData::Int(vec![7, -3, 0, 12, 0]), &[4]);
    let floats = valid(ColumnData::Float(vec![1.5, f64::NAN, -0.0, 0.1, 0.0]), &[4]);
    let strs = valid(
        ColumnData::Str {
            dict: Arc::new(vec!["a".into(), "bc".into(), "".into()]),
            codes: vec![0, 1, 2, 0, 1],
        },
        &[3],
    );
    let pair = ColumnVec::new(ColumnData::Int(vec![BIG, BIG + 1, BIG, BIG + 1, BIG]));
    let shapes: [&[&ColumnVec]; 6] = [
        &[&ints],
        &[&floats],
        &[&strs],
        &[&ints, &strs],
        &[&pair],
        &[],
    ];
    for cols in shapes {
        for row in 0..5 {
            let key: Vec<Value> = cols.iter().map(|c| c.value(row)).collect();
            assert_eq!(
                key_fingerprint(cols, row),
                FpMap::fingerprint(&key),
                "{key:?}"
            );
        }
    }
}

#[test]
fn an_equi_join_finds_what_its_residual_form_finds() {
    let c = catalog(&[
        ("a", "k", DataType::Int, vec![Value::Int(BIG + 1)]),
        ("b", "fk", DataType::Float, vec![Value::Float(BIG as f64)]),
    ]);
    let scan = || LogicalPlan::scan("a");
    let keyed = scan().join_on(LogicalPlan::scan("b"), col("k").eq(col("fk")));
    let residual = scan().join_on(
        LogicalPlan::scan("b"),
        col("k").add(lit(0i64)).eq(col("fk")),
    );
    let rows = joined(&keyed, &c, 64);
    assert_eq!(rows.len(), 1, "Int(2^53 + 1) = Float(2^53)");
    assert_eq!(rows, joined(&residual, &c, 64));
}

#[test]
fn a_join_matches_each_probe_row_to_its_own_colliding_build_row() {
    let probe = [BIG + 1, BIG, BIG + 1, BIG, BIG].map(Value::Int).to_vec();
    let build = [BIG, BIG + 1].map(Value::Int).to_vec();
    let c = catalog(&[
        ("t", "k", DataType::Int, probe),
        ("d", "dk", DataType::Int, build),
    ]);
    let plan = LogicalPlan::scan("t").join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
    for hint in [1, 3, 64] {
        let rows = joined(&plan, &c, hint);
        assert_eq!(rows.len(), 5, "hint {hint}: one build row per probe row");
        for row in &rows {
            assert_eq!(row.values[0], row.values[2], "hint {hint}: {row:?}");
        }
    }
}

#[test]
fn null_keys_never_join_on_either_side() {
    let probe = vec![
        Value::Int(1),
        Value::Null,
        Value::Int(2),
        Value::Null,
        Value::Int(3),
    ];
    let build = vec![Value::Null, Value::Int(2), Value::Null, Value::Int(1)];
    let c = catalog(&[
        ("n", "k", DataType::Int, probe),
        ("m", "mk", DataType::Int, build),
    ]);
    let plan = LogicalPlan::scan("n").join_on(LogicalPlan::scan("m"), col("k").eq(col("mk")));
    for hint in [1, 2, 64] {
        let rows = joined(&plan, &c, hint);
        let keys: Vec<_> = rows.iter().map(|r| r.values[0].clone()).collect();
        assert_eq!(keys, vec![Value::Int(1), Value::Int(2)], "hint {hint}");
    }
    // The two NULL-keyed build rows are in no bucket, so every bucket
    // holds one row: the build is unique and each probe row is emitted at
    // most once, which keeps the probe side's set in the distinct family.
    let stream = open_stream(&plan, &c, &ExecOptions::default()).unwrap();
    assert!(
        stream.distinct().contains(&RelSet::singleton(0)),
        "{:?}",
        stream.distinct()
    );
}

#[test]
fn group_by_keeps_colliding_keys_apart_at_any_worker_count() {
    // Both keys in every block and every chunk; 11 rows of 2^53, 21 of
    // 2^53 + 1, `t_v` = the row number.
    let cells = (0..32i64)
        .map(|i| Value::Int(BIG + i64::from(i % 3 != 0)))
        .collect();
    let c = catalog(&[("t", "k", DataType::Int, cells)]);
    let plan = LogicalPlan::scan("t").aggregate(vec![
        AggSpec::sum(col("t_v"), "s"),
        AggSpec::count_star("n"),
    ]);
    for jobs in [1, 4] {
        let r = Engine::new(c.clone())
            .session()
            .query_plan(&plan)
            .group_by(vec![col("k")])
            .jobs(jobs)
            .chunk_rows(8)
            .run()
            .unwrap();
        let groups = &r.snapshot.as_grouped().unwrap().groups;
        let got: Vec<_> = groups
            .iter()
            .map(|g| (g.key.clone(), g.sample_rows, g.aggs[0].estimate))
            .collect();
        assert_eq!(
            got,
            vec![
                (vec![Value::Int(BIG)], 11, 165.0),
                (vec![Value::Int(BIG + 1)], 21, 331.0),
            ],
            "jobs {jobs}"
        );
    }
}

#[test]
fn group_by_keeps_null_as_one_group() {
    let cells = (0..12i64)
        .map(|i| match i % 3 {
            0 => Value::Null,
            1 => Value::Int(7),
            _ => Value::Int(BIG),
        })
        .collect();
    let c = catalog(&[("t", "k", DataType::Int, cells)]);
    let plan = LogicalPlan::scan("t").aggregate(vec![AggSpec::count_star("n")]);
    for jobs in [1, 4] {
        let r = Engine::new(c.clone())
            .session()
            .query_plan(&plan)
            .group_by(vec![col("k")])
            .jobs(jobs)
            .chunk_rows(5)
            .run()
            .unwrap();
        let got: Vec<_> = r
            .snapshot
            .as_grouped()
            .unwrap()
            .groups
            .iter()
            .map(|g| (g.key.clone(), g.sample_rows))
            .collect();
        assert_eq!(
            got,
            vec![
                (vec![Value::Null], 4),
                (vec![Value::Int(7)], 4),
                (vec![Value::Int(BIG)], 4),
            ],
            "jobs {jobs}"
        );
    }
}
