//! Configuration-space integration tests: the indexes must stay exact for
//! every supported summarization shape, not just the paper's default
//! 16-segment / 256-cardinality setup.

use std::sync::Arc;

use coconut::baselines::SerialScan;
use coconut::index::{BuildOptions, CoconutTree, CoconutTrie, IndexConfig};
use coconut::prelude::*;
use coconut::series::distance::znormalize;
use coconut::summary::SaxConfig;

fn dataset(dir: &TempDir, n: u64, len: usize) -> Dataset {
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join(format!("d{len}.bin"));
    let mut generator = RandomWalkGen::new(31);
    write_dataset(&path, &mut generator, n, len, &stats).unwrap();
    Dataset::open(&path, stats).unwrap()
}

fn queries(len: usize) -> Vec<Vec<f32>> {
    (0..4u64)
        .map(|i| {
            let mut q = RandomWalkGen::new(700 + i).generate(len);
            znormalize(&mut q);
            q
        })
        .collect()
}

/// Sweep (series_len, segments, card_bits) including awkward shapes:
/// lengths not divisible by segment counts, tiny cardinalities, odd
/// segment counts, and the full 128-bit key budget.
#[test]
fn exactness_across_sax_configurations() {
    let cases: &[(usize, usize, u8)] = &[
        (100, 7, 3),  // non-divisible length, odd segments, small alphabet
        (64, 16, 8),  // full default shape at short length
        (96, 12, 5),  // non-power-of-two everything
        (33, 3, 1),   // 1-bit symbols
        (256, 32, 4), // exactly 128 key bits with many segments
        (16, 16, 8),  // one point per segment, full key budget
    ];
    for &(len, segments, card_bits) in cases {
        let dir = TempDir::new("cfg").unwrap();
        let ds = dataset(&dir, 300, len);
        let sax = SaxConfig {
            series_len: len,
            segments,
            card_bits,
        };
        sax.validate().unwrap();
        let config = IndexConfig {
            sax,
            leaf_capacity: 25,
            fill_factor: 1.0,
            internal_fanout: 8,
            split_policy: Default::default(),
        };
        let opts = BuildOptions {
            memory_bytes: 8192,
            materialized: false,
            threads: 2,
            shards: 1,
        };
        let tree = CoconutTree::build(&ds, &config, dir.path(), opts.clone()).unwrap();
        let trie = CoconutTrie::build(&ds, &config, dir.path(), opts).unwrap();
        let scan = SerialScan::new(&ds);
        for q in queries(len) {
            let (truth, _) = scan.exact(&q).unwrap();
            let (a, _) = tree.exact_search(&q).unwrap();
            let (b, _) = trie.exact(&q).unwrap();
            assert_eq!(
                a.pos, truth.pos,
                "tree len={len} w={segments} bits={card_bits}"
            );
            assert_eq!(
                b.pos, truth.pos,
                "trie len={len} w={segments} bits={card_bits}"
            );
        }
    }
}

/// Fill factors below 1.0 leave reserved slots but answers are unchanged.
#[test]
fn fill_factor_sweep_preserves_answers() {
    let dir = TempDir::new("cfg-fill").unwrap();
    let ds = dataset(&dir, 400, 64);
    let scan = SerialScan::new(&ds);
    let qs = queries(64);
    for fill in [0.3f64, 0.5, 0.75, 1.0] {
        let config = IndexConfig {
            sax: SaxConfig::default_for_len(64),
            leaf_capacity: 32,
            fill_factor: fill,
            internal_fanout: 16,
            split_policy: Default::default(),
        };
        let tree = CoconutTree::build(
            &ds,
            &config,
            dir.path(),
            BuildOptions {
                memory_bytes: 1 << 20,
                materialized: false,
                threads: 1,
                shards: 1,
            },
        )
        .unwrap();
        assert!(
            (tree.avg_fill() - fill).abs() < 0.1,
            "fill {fill}: measured {}",
            tree.avg_fill()
        );
        for q in &qs {
            let (truth, _) = scan.exact(q).unwrap();
            let (got, _) = tree.exact_search(q).unwrap();
            assert_eq!(got.pos, truth.pos, "fill {fill}");
        }
    }
}

/// Extreme leaf capacities: 1-entry leaves and a single giant leaf.
#[test]
fn leaf_capacity_extremes() {
    let dir = TempDir::new("cfg-leaf").unwrap();
    let ds = dataset(&dir, 120, 64);
    let scan = SerialScan::new(&ds);
    let qs = queries(64);
    for leaf in [1usize, 2, 120, 100_000] {
        let config = IndexConfig {
            sax: SaxConfig::default_for_len(64),
            leaf_capacity: leaf,
            fill_factor: 1.0,
            internal_fanout: 4,
            split_policy: Default::default(),
        };
        let tree = CoconutTree::build(
            &ds,
            &config,
            dir.path(),
            BuildOptions {
                memory_bytes: 1 << 20,
                materialized: false,
                threads: 1,
                shards: 1,
            },
        )
        .unwrap();
        if leaf == 1 {
            assert_eq!(tree.leaf_count(), 120);
            assert!(tree.height() >= 3, "height {}", tree.height());
        }
        if leaf >= 120 {
            assert_eq!(tree.leaf_count(), 1);
        }
        for q in &qs {
            let (truth, _) = scan.exact(q).unwrap();
            let (got, _) = tree.exact_search(q).unwrap();
            assert_eq!(got.pos, truth.pos, "leaf {leaf}");
        }
    }
}

/// DTW search stays exact across configurations too.
#[test]
fn dtw_search_exact_on_odd_config() {
    use coconut::series::dtw::dtw;
    let dir = TempDir::new("cfg-dtw").unwrap();
    let len = 100usize;
    let ds = dataset(&dir, 150, len);
    let sax = SaxConfig {
        series_len: len,
        segments: 10,
        card_bits: 6,
    };
    let config = IndexConfig {
        sax,
        leaf_capacity: 20,
        fill_factor: 1.0,
        internal_fanout: 8,
        split_policy: Default::default(),
    };
    let tree = CoconutTree::build(
        &ds,
        &config,
        dir.path(),
        BuildOptions {
            memory_bytes: 1 << 20,
            materialized: false,
            threads: 2,
            shards: 1,
        },
    )
    .unwrap();
    for q in queries(len) {
        let band = 5;
        let (got, _) = tree.exact_search_dtw(&q, band).unwrap();
        let mut best = (u64::MAX, f64::INFINITY);
        for p in 0..150u64 {
            let s = ds.get(p).unwrap();
            let d = dtw(&q, &s, band);
            if d < best.1 {
                best = (p, d);
            }
        }
        assert_eq!(got.pos, best.0);
        assert!((got.dist - best.1).abs() < 1e-6);
    }
}
