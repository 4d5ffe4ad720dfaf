//! The TPC-H-style table generators.
//!
//! Deterministic in `(seed, scale factor)`; value ranges and foreign-key
//! structure follow the TPC-H specification closely enough that the paper's
//! queries (Query 1 of the introduction, the Figure 4 four-relation plan)
//! run unchanged: `lineitem ⋈ orders` on `orderkey`, `orders ⋈ customer` on
//! `custkey`, `lineitem ⋈ part` on `partkey`, prices/discounts/taxes in
//! TPC-H's ranges.
//!
//! This replaces the official `dbgen` tool: the experiments depend on
//! cardinalities, fan-out and aggregate moments, all of which are
//! controlled here, not on TPC-H's text columns.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sa_storage::{Catalog, DataType, Field, Schema, Table, TableBuilder, Value};

use crate::zipf::Zipf;

/// Configuration of the generator.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// Scale factor: 1.0 ≈ 1.5M orders / 6M lineitems (as TPC-H). Tests use
    /// 0.001–0.01.
    pub scale: f64,
    /// Master RNG seed; every table derives its own stream from it.
    pub seed: u64,
    /// Optional Zipf exponent for `l_partkey` (skewed part popularity);
    /// `None` = uniform.
    pub part_skew: Option<f64>,
    /// Rows per storage block (for `SYSTEM` sampling experiments).
    pub block_rows: usize,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale: 0.001,
            seed: 42,
            part_skew: None,
            block_rows: 256,
        }
    }
}

impl TpchConfig {
    /// A config with the given scale factor and defaults elsewhere.
    pub fn scale(scale: f64) -> TpchConfig {
        TpchConfig {
            scale,
            ..TpchConfig::default()
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> TpchConfig {
        self.seed = seed;
        self
    }

    /// Builder-style skew override.
    pub fn with_part_skew(mut self, theta: f64) -> TpchConfig {
        self.part_skew = Some(theta);
        self
    }

    /// Row counts per table at this scale (minimums keep tiny scales usable).
    pub fn cardinalities(&self) -> Cardinalities {
        let s = self.scale.max(1e-6);
        Cardinalities {
            region: 5,
            nation: 25,
            supplier: ((10_000.0 * s) as u64).max(5),
            customer: ((150_000.0 * s) as u64).max(20),
            part: ((200_000.0 * s) as u64).max(20),
            orders: ((1_500_000.0 * s) as u64).max(50),
        }
    }
}

/// Row counts implied by a scale factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cardinalities {
    /// `region` rows (fixed 5).
    pub region: u64,
    /// `nation` rows (fixed 25).
    pub nation: u64,
    /// `supplier` rows.
    pub supplier: u64,
    /// `customer` rows.
    pub customer: u64,
    /// `part` rows.
    pub part: u64,
    /// `orders` rows. Lineitems are 1–7 per order (avg ≈ 4).
    pub orders: u64,
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const BRANDS: [&str; 5] = ["Brand#11", "Brand#22", "Brand#33", "Brand#44", "Brand#55"];
const RETURN_FLAGS: [&str; 3] = ["A", "N", "R"];

fn table_rng(seed: u64, table_ix: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ table_ix.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Generate the full 8-table catalog.
pub fn generate(config: &TpchConfig) -> Catalog {
    let card = config.cardinalities();
    let mut catalog = Catalog::new();
    catalog.register(gen_region(config)).expect("fresh catalog");
    catalog.register(gen_nation(config)).expect("fresh catalog");
    catalog
        .register(gen_supplier(config, &card))
        .expect("fresh catalog");
    catalog
        .register(gen_customer(config, &card))
        .expect("fresh catalog");
    catalog
        .register(gen_part(config, &card))
        .expect("fresh catalog");
    catalog
        .register(gen_partsupp(config, &card))
        .expect("fresh catalog");
    catalog
        .register(gen_orders(config, &card))
        .expect("fresh catalog");
    let orders = catalog.get("orders").expect("just registered");
    catalog
        .register(gen_lineitem(config, &card, &orders))
        .expect("fresh catalog");
    catalog
}

/// `region(r_regionkey, r_name)` — 5 rows.
pub fn gen_region(config: &TpchConfig) -> Table {
    let schema = Schema::new(vec![
        Field::new("r_regionkey", DataType::Int),
        Field::new("r_name", DataType::Str),
    ])
    .expect("static schema");
    let mut b = TableBuilder::new("region", schema).with_block_rows(config.block_rows);
    for (i, name) in REGIONS.iter().enumerate() {
        b.push_row(&[Value::Int(i as i64), Value::str(name)])
            .expect("typed row");
    }
    b.finish().expect("equal columns")
}

/// `nation(n_nationkey, n_name, n_regionkey)` — 25 rows.
pub fn gen_nation(config: &TpchConfig) -> Table {
    let schema = Schema::new(vec![
        Field::new("n_nationkey", DataType::Int),
        Field::new("n_name", DataType::Str),
        Field::new("n_regionkey", DataType::Int),
    ])
    .expect("static schema");
    let mut b = TableBuilder::new("nation", schema).with_block_rows(config.block_rows);
    for i in 0..25i64 {
        b.push_row(&[
            Value::Int(i),
            Value::str(format!("NATION_{i:02}")),
            Value::Int(i % 5),
        ])
        .expect("typed row");
    }
    b.finish().expect("equal columns")
}

/// `supplier(s_suppkey, s_nationkey, s_acctbal)`.
pub fn gen_supplier(config: &TpchConfig, card: &Cardinalities) -> Table {
    let schema = Schema::new(vec![
        Field::new("s_suppkey", DataType::Int),
        Field::new("s_nationkey", DataType::Int),
        Field::new("s_acctbal", DataType::Float),
    ])
    .expect("static schema");
    let mut rng = table_rng(config.seed, 3);
    let mut b = TableBuilder::new("supplier", schema).with_block_rows(config.block_rows);
    b.reserve(card.supplier as usize);
    for i in 0..card.supplier {
        b.push_row(&[
            Value::Int(i as i64 + 1),
            Value::Int(rng.random_range(0..25)),
            Value::Float(round2(rng.random_range(-999.99..9999.99))),
        ])
        .expect("typed row");
    }
    b.finish().expect("equal columns")
}

/// `customer(c_custkey, c_nationkey, c_acctbal, c_mktsegment)`.
pub fn gen_customer(config: &TpchConfig, card: &Cardinalities) -> Table {
    let schema = Schema::new(vec![
        Field::new("c_custkey", DataType::Int),
        Field::new("c_nationkey", DataType::Int),
        Field::new("c_acctbal", DataType::Float),
        Field::new("c_mktsegment", DataType::Str),
    ])
    .expect("static schema");
    let mut rng = table_rng(config.seed, 4);
    let mut b = TableBuilder::new("customer", schema).with_block_rows(config.block_rows);
    b.reserve(card.customer as usize);
    for i in 0..card.customer {
        b.push_row(&[
            Value::Int(i as i64 + 1),
            Value::Int(rng.random_range(0..25)),
            Value::Float(round2(rng.random_range(-999.99..9999.99))),
            Value::str(SEGMENTS[rng.random_range(0..SEGMENTS.len())]),
        ])
        .expect("typed row");
    }
    b.finish().expect("equal columns")
}

/// `part(p_partkey, p_brand, p_retailprice, p_size)`.
pub fn gen_part(config: &TpchConfig, card: &Cardinalities) -> Table {
    let schema = Schema::new(vec![
        Field::new("p_partkey", DataType::Int),
        Field::new("p_brand", DataType::Str),
        Field::new("p_retailprice", DataType::Float),
        Field::new("p_size", DataType::Int),
    ])
    .expect("static schema");
    let mut rng = table_rng(config.seed, 5);
    let mut b = TableBuilder::new("part", schema).with_block_rows(config.block_rows);
    b.reserve(card.part as usize);
    for i in 0..card.part {
        // TPC-H retail price formula (deterministic in the key).
        let key = i + 1;
        let price = 90_000.0 + (key % 200_001) as f64 / 10.0 + 100.0 * (key % 1_000) as f64;
        b.push_row(&[
            Value::Int(key as i64),
            Value::str(BRANDS[rng.random_range(0..BRANDS.len())]),
            Value::Float(round2(price / 100.0)),
            Value::Int(rng.random_range(1..=50)),
        ])
        .expect("typed row");
    }
    b.finish().expect("equal columns")
}

/// `partsupp(ps_partkey, ps_suppkey, ps_availqty, ps_supplycost)` — 4
/// suppliers per part.
pub fn gen_partsupp(config: &TpchConfig, card: &Cardinalities) -> Table {
    let schema = Schema::new(vec![
        Field::new("ps_partkey", DataType::Int),
        Field::new("ps_suppkey", DataType::Int),
        Field::new("ps_availqty", DataType::Int),
        Field::new("ps_supplycost", DataType::Float),
    ])
    .expect("static schema");
    let mut rng = table_rng(config.seed, 6);
    let mut b = TableBuilder::new("partsupp", schema).with_block_rows(config.block_rows);
    b.reserve(card.part as usize * 4);
    for p in 0..card.part {
        for s in 0..4u64 {
            let suppkey = (p + s * (card.supplier / 4).max(1)) % card.supplier + 1;
            b.push_row(&[
                Value::Int(p as i64 + 1),
                Value::Int(suppkey as i64),
                Value::Int(rng.random_range(1..=9999)),
                Value::Float(round2(rng.random_range(1.0..1000.0))),
            ])
            .expect("typed row");
        }
    }
    b.finish().expect("equal columns")
}

/// `orders(o_orderkey, o_custkey, o_orderstatus, o_totalprice,
/// o_orderpriority)`.
pub fn gen_orders(config: &TpchConfig, card: &Cardinalities) -> Table {
    let schema = Schema::new(vec![
        Field::new("o_orderkey", DataType::Int),
        Field::new("o_custkey", DataType::Int),
        Field::new("o_orderstatus", DataType::Str),
        Field::new("o_totalprice", DataType::Float),
        Field::new("o_orderpriority", DataType::Str),
    ])
    .expect("static schema");
    let mut rng = table_rng(config.seed, 7);
    let mut b = TableBuilder::new("orders", schema).with_block_rows(config.block_rows);
    b.reserve(card.orders as usize);
    for i in 0..card.orders {
        let status = match rng.random_range(0..4u8) {
            0 => "F",
            1 => "O",
            _ => "P",
        };
        b.push_row(&[
            Value::Int(i as i64 + 1),
            Value::Int(rng.random_range(0..card.customer) as i64 + 1),
            Value::str(status),
            Value::Float(round2(rng.random_range(850.0..600_000.0))),
            Value::str(PRIORITIES[rng.random_range(0..PRIORITIES.len())]),
        ])
        .expect("typed row");
    }
    b.finish().expect("equal columns")
}

/// `lineitem(l_orderkey, l_linenumber, l_partkey, l_suppkey, l_quantity,
/// l_extendedprice, l_discount, l_tax, l_returnflag)` — 1–7 lines per order.
pub fn gen_lineitem(config: &TpchConfig, card: &Cardinalities, orders: &Table) -> Table {
    let schema = Schema::new(vec![
        Field::new("l_orderkey", DataType::Int),
        Field::new("l_linenumber", DataType::Int),
        Field::new("l_partkey", DataType::Int),
        Field::new("l_suppkey", DataType::Int),
        Field::new("l_quantity", DataType::Float),
        Field::new("l_extendedprice", DataType::Float),
        Field::new("l_discount", DataType::Float),
        Field::new("l_tax", DataType::Float),
        Field::new("l_returnflag", DataType::Str),
    ])
    .expect("static schema");
    let mut rng = table_rng(config.seed, 8);
    let zipf = config
        .part_skew
        .map(|theta| Zipf::new(card.part as usize, theta));
    let mut b = TableBuilder::new("lineitem", schema).with_block_rows(config.block_rows);
    b.reserve(orders.row_count() as usize * 4);
    for o in 0..orders.row_count() {
        let orderkey = o as i64 + 1;
        let lines = rng.random_range(1..=7);
        for line in 1..=lines {
            let partkey = match &zipf {
                Some(z) => z.sample(&mut rng) as i64 + 1,
                None => rng.random_range(0..card.part) as i64 + 1,
            };
            let quantity = rng.random_range(1..=50) as f64;
            let extended = round2(quantity * rng.random_range(900.0..2100.0));
            b.push_row(&[
                Value::Int(orderkey),
                Value::Int(line),
                Value::Int(partkey),
                Value::Int(rng.random_range(0..card.supplier) as i64 + 1),
                Value::Float(quantity),
                Value::Float(extended),
                Value::Float(round2(rng.random_range(0.0..=0.10))),
                Value::Float(round2(rng.random_range(0.0..=0.08))),
                Value::str(RETURN_FLAGS[rng.random_range(0..RETURN_FLAGS.len())]),
            ])
            .expect("typed row");
        }
    }
    b.finish().expect("equal columns")
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Catalog {
        generate(&TpchConfig::scale(0.001))
    }

    #[test]
    fn all_eight_tables_present() {
        let c = tiny();
        for t in [
            "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
        ] {
            assert!(c.contains(t), "missing {t}");
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn cardinalities_scale() {
        let small = TpchConfig::scale(0.001).cardinalities();
        let big = TpchConfig::scale(0.01).cardinalities();
        assert_eq!(small.orders, 1500);
        assert_eq!(big.orders, 15_000);
        assert_eq!(small.region, 5);
        assert_eq!(big.nation, 25);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&TpchConfig::scale(0.001).with_seed(9));
        let b = generate(&TpchConfig::scale(0.001).with_seed(9));
        let ta = a.get("lineitem").unwrap();
        let tb = b.get("lineitem").unwrap();
        assert_eq!(ta.row_count(), tb.row_count());
        for r in [0u64, 17, ta.row_count() - 1] {
            assert_eq!(ta.row(r).unwrap(), tb.row(r).unwrap());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TpchConfig::scale(0.001).with_seed(1));
        let b = generate(&TpchConfig::scale(0.001).with_seed(2));
        let ra = a.get("orders").unwrap().row(0).unwrap();
        let rb = b.get("orders").unwrap().row(0).unwrap();
        assert_ne!(ra, rb);
    }

    /// Every value of column `name` of `table`, in row order.
    fn column(table: &Table, name: &str) -> Vec<Value> {
        let c = table.schema().index_of(name).unwrap();
        let batch = table.batch_range_cols(0, table.row_count(), &[c]).unwrap();
        (0..batch.rows())
            .map(|r| batch.column(0).value(r))
            .collect()
    }

    #[test]
    fn lineitem_fk_range_valid() {
        let c = tiny();
        let li = c.get("lineitem").unwrap();
        let orders = c.get("orders").unwrap().row_count() as i64;
        let parts = c.get("part").unwrap().row_count() as i64;
        let pks = column(&li, "l_partkey");
        for (ok, pk) in column(&li, "l_orderkey").iter().zip(&pks) {
            let (ok, pk) = (ok.as_i64().unwrap(), pk.as_i64().unwrap());
            assert!(ok >= 1 && ok <= orders);
            assert!(pk >= 1 && pk <= parts);
        }
    }

    #[test]
    fn every_order_has_lineitems() {
        let c = tiny();
        let li = c.get("lineitem").unwrap();
        let n_orders = c.get("orders").unwrap().row_count();
        let mut seen = vec![false; n_orders as usize + 1];
        for ok in column(&li, "l_orderkey") {
            seen[ok.as_i64().unwrap() as usize] = true;
        }
        assert!(seen[1..].iter().all(|&s| s), "order without lineitems");
        // Average lines per order ≈ 4.
        let avg = li.row_count() as f64 / n_orders as f64;
        assert!((3.0..5.0).contains(&avg), "avg lines {avg}");
    }

    #[test]
    fn discount_and_tax_ranges() {
        let c = tiny();
        let li = c.get("lineitem").unwrap();
        let taxes = column(&li, "l_tax");
        for (d, t) in column(&li, "l_discount").iter().zip(&taxes) {
            let (dv, tv) = (d.as_f64().unwrap(), t.as_f64().unwrap());
            assert!((0.0..=0.10).contains(&dv));
            assert!((0.0..=0.08).contains(&tv));
        }
    }

    #[test]
    fn skewed_partkeys_are_skewed() {
        let cfg = TpchConfig::scale(0.002).with_part_skew(1.2);
        let c = generate(&cfg);
        let li = c.get("lineitem").unwrap();
        let parts = c.get("part").unwrap().row_count() as usize;
        let mut counts = vec![0u32; parts + 1];
        for pk in column(&li, "l_partkey") {
            counts[pk.as_i64().unwrap() as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let mean = li.row_count() as f64 / parts as f64;
        assert!(max > 8.0 * mean, "max {max} vs mean {mean}: not skewed");
    }

    #[test]
    fn customer_segments_valid() {
        let c = tiny();
        let cust = c.get("customer").unwrap();
        for v in column(&cust, "c_mktsegment") {
            let s = v.as_str().unwrap();
            assert!(SEGMENTS.contains(&s));
        }
    }

    #[test]
    fn partsupp_is_four_per_part() {
        let c = tiny();
        assert_eq!(
            c.get("partsupp").unwrap().row_count(),
            c.get("part").unwrap().row_count() * 4
        );
    }
}
