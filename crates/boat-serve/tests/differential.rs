//! Differential oracle: `CompiledTree` must replicate `Tree::predict`
//! **exactly** — for every record, on every tree the workspace can grow,
//! including the pinned prediction-time contract's edge inputs (NaN and
//! ±infinity numerics, unseen category codes).
//!
//! Two layers of evidence:
//! 1. a property over randomized schemas / datasets / growth seeds, where
//!    probe records deliberately range over the *whole* declared category
//!    universe (training only ever sees a subset, so splits route codes
//!    they never observed) and inject NaN/±inf numerics;
//! 2. a deterministic grid over the paper's synthetic label functions at
//!    realistic tree sizes.

use boat_core::{reference_tree, Boat, BoatConfig};
use boat_data::{AttrType, Attribute, Field, MemoryDataset, Record, Schema};
use boat_serve::{compile, ModelHandle, ServeConfig, ServeEngine};
use boat_tree::{Gini, GrowthLimits};
use proptest::prelude::*;
use std::sync::Arc;

/// Assert compiled == interpreted on every probe.
fn assert_exact(tree: &boat_tree::Tree, probes: &[Record]) {
    let compiled = compile(tree);
    let scalar: Vec<u16> = probes.iter().map(|r| compiled.predict(r)).collect();
    let oracle: Vec<u16> = probes.iter().map(|r| tree.predict(r)).collect();
    assert_eq!(scalar, oracle, "scalar compiled predictions diverge");
}

/// Build a record conforming to `schema` from one numeric value, one raw
/// category code, and a label; `cat_mod` bounds the codes actually used.
fn record_for(schema: &Schema, x: f64, c: u32, label: u16, cat_mod: u32) -> Record {
    let fields: Vec<Field> = schema
        .attributes()
        .iter()
        .map(|a| match a.ty() {
            AttrType::Numeric => Field::Num(x),
            AttrType::Categorical { cardinality } => Field::Cat(c % cat_mod.min(cardinality)),
        })
        .collect();
    Record::new(fields, label)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random schema, random training data, random probes — including
    /// probes whose category codes were *never observed during training*
    /// (training codes are reduced mod `seen`, probes range over the whole
    /// declared cardinality) and probes with NaN / ±inf numerics.
    #[test]
    fn compiled_matches_interpreted_on_random_trees(
        kinds in prop::collection::vec(
            prop_oneof![Just(None), (3u32..=8).prop_map(Some)],
            1..=4,
        ),
        classes in 2u16..=4,
        seen in 2u32..=3,
        train in prop::collection::vec((0i64..24, 0u32..8, 0u16..4), 20..300),
        probes in prop::collection::vec((-40i64..40, 0u32..8, 0u8..4), 1..120),
        depth in 2u32..=6,
    ) {
        let attrs: Vec<Attribute> = kinds
            .iter()
            .enumerate()
            .map(|(i, card)| match card {
                None => Attribute::numeric(format!("n{i}")),
                Some(c) => Attribute::categorical(format!("c{i}"), *c),
            })
            .collect();
        let schema = Schema::shared(attrs, classes).unwrap();
        let records: Vec<Record> = train
            .iter()
            .map(|&(x, c, l)| record_for(&schema, x as f64, c, l % classes, seen))
            .collect();
        let ds = MemoryDataset::new(schema.clone(), records);
        let limits = GrowthLimits { max_depth: Some(depth), ..GrowthLimits::default() };
        let tree = reference_tree(&ds, Gini, limits).unwrap();

        let probe_records: Vec<Record> = probes
            .iter()
            .enumerate()
            .map(|(i, &(x, c, edge))| {
                // Cycle NaN and ±inf through the numeric probes.
                let v = match edge {
                    0 => x as f64 + 0.5,
                    1 => f64::NAN,
                    2 => f64::NEG_INFINITY,
                    _ => f64::INFINITY,
                };
                record_for(&schema, v, c, (i % classes as usize) as u16, u32::MAX)
            })
            .collect();
        assert_exact(&tree, &probe_records);
    }
}

/// Deterministic grid over the paper's synthetic functions: realistic
/// trees (hundreds of nodes), fresh probe sets from a different seed.
#[test]
fn compiled_matches_interpreted_on_synthetic_grid() {
    use boat_datagen::{GeneratorConfig, LabelFunction};
    for (function, seed) in [
        (LabelFunction::F1, 71u64),
        (LabelFunction::F2, 72),
        (LabelFunction::F6, 76),
        (LabelFunction::F7, 77),
    ] {
        let gen = GeneratorConfig::new(function).with_seed(seed);
        let ds = MemoryDataset::new(gen.schema(), gen.generate_vec(3_000));
        let tree = reference_tree(&ds, Gini, GrowthLimits::default()).unwrap();
        assert!(tree.n_nodes() > 1, "{function:?}: tree did not split");
        let probes = GeneratorConfig::new(function)
            .with_seed(seed + 1000)
            .generate_vec(2_000);
        assert_exact(&tree, &probes);
    }
}

/// The full BOAT pipeline (not just the in-memory reference builder)
/// feeds the compiler the same way `publish_on_maintain` does; compiled
/// output must match the interpreted tree it was lowered from.
#[test]
fn compiled_matches_interpreted_through_boat_fit_model() {
    use boat_datagen::{GeneratorConfig, LabelFunction};
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(81);
    let ds = MemoryDataset::new(gen.schema(), gen.generate_vec(4_000));
    let algo = Boat::new(BoatConfig {
        sample_size: 1_000,
        bootstrap_reps: 8,
        bootstrap_sample_size: 400,
        in_memory_threshold: 300,
        spill_budget: 32,
        seed: 810,
        ..BoatConfig::default()
    });
    let (mut model, _) = algo.fit_model(&ds).unwrap();
    let tree = model.tree().unwrap().clone();
    let probes = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(82)
        .generate_vec(2_000);
    assert_exact(&tree, &probes);
}

/// Engine scoring must agree with the interpreted tree on pathological
/// batch shapes: empty, single-row, and a batch where every row reaches
/// the same leaf.
#[test]
fn batch_edge_shapes_match_scalar() {
    let schema: Arc<Schema> = Schema::shared(
        vec![Attribute::numeric("x"), Attribute::categorical("c", 8)],
        2,
    )
    .unwrap();
    let records: Vec<Record> = (0..200)
        .map(|i| {
            Record::new(
                vec![Field::Num((i % 17) as f64), Field::Cat(i % 3)],
                u16::from(i % 17 >= 8),
            )
        })
        .collect();
    let ds = MemoryDataset::new(schema.clone(), records);
    let tree = reference_tree(&ds, Gini, GrowthLimits::default()).unwrap();
    let engine = ServeEngine::start(
        ModelHandle::new(compile(&tree)),
        schema,
        ServeConfig {
            workers: 1,
            queue_depth: 8,
        },
    );
    let same: Vec<Record> = (0..64)
        .map(|_| Record::new(vec![Field::Num(12.0), Field::Cat(1)], 0))
        .collect();
    for batch in [
        // Empty batch.
        Vec::new(),
        // Single row.
        vec![Record::new(vec![Field::Num(3.0), Field::Cat(7)], 0)],
        // Degenerate batch: all rows identical (every row reaches the
        // same leaf).
        same,
    ] {
        let oracle: Vec<u16> = batch.iter().map(|r| tree.predict(r)).collect();
        assert_eq!(engine.submit(batch).unwrap().wait(), oracle);
    }
    engine.shutdown();
}
