//! Property-based integration tests: for arbitrary datasets and queries,
//! the Coconut indexes must return exactly the serial-scan answer.

use std::sync::Arc;

use coconut::baselines::SerialScan;
use coconut::index::{BuildOptions, CoconutTree, CoconutTrie, IndexConfig};
use coconut::prelude::*;
use coconut::series::dataset::DatasetWriter;
use coconut::series::distance::znormalize;
use proptest::prelude::*;

const LEN: usize = 32;

fn write_series(dir: &TempDir, series: &[Vec<f32>]) -> Dataset {
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    let mut w = DatasetWriter::create(&path, LEN, true, Arc::clone(&stats)).unwrap();
    for s in series {
        w.append(s).unwrap();
    }
    w.finish().unwrap();
    Dataset::open(&path, stats).unwrap()
}

fn series_strategy() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0f32, LEN).prop_map(|mut s| {
        znormalize(&mut s);
        s
    })
}

fn config(leaf: usize) -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = leaf;
    c
}

proptest! {
    // Each case builds real files; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tree_exact_equals_scan(
        data in proptest::collection::vec(series_strategy(), 1..120),
        query in series_strategy(),
        leaf in 2usize..40,
        materialized in any::<bool>(),
    ) {
        let dir = TempDir::new("prop-tree").unwrap();
        let dataset = write_series(&dir, &data);
        let opts = BuildOptions { memory_bytes: 4096, materialized, threads: 1, shards: 1 };
        let tree = CoconutTree::build(&dataset, &config(leaf), dir.path(), opts).unwrap();
        let scan = SerialScan::new(&dataset);
        let (truth, _) = scan.exact(&query).unwrap();
        let (got, _) = tree.exact_search(&query).unwrap();
        prop_assert!((got.dist - truth.dist).abs() < 1e-4,
            "tree dist {} vs scan {}", got.dist, truth.dist);
    }

    #[test]
    fn trie_exact_equals_scan(
        data in proptest::collection::vec(series_strategy(), 1..120),
        query in series_strategy(),
        leaf in 2usize..40,
    ) {
        let dir = TempDir::new("prop-trie").unwrap();
        let dataset = write_series(&dir, &data);
        let opts = BuildOptions { memory_bytes: 4096, materialized: false, threads: 1, shards: 1 };
        let trie = CoconutTrie::build(&dataset, &config(leaf), dir.path(), opts).unwrap();
        let scan = SerialScan::new(&dataset);
        let (truth, _) = scan.exact(&query).unwrap();
        let (got, _) = trie.exact(&query).unwrap();
        prop_assert!((got.dist - truth.dist).abs() < 1e-4);
    }

    #[test]
    fn knn_distances_match_sorted_scan(
        data in proptest::collection::vec(series_strategy(), 5..80),
        query in series_strategy(),
        k in 1usize..8,
    ) {
        let dir = TempDir::new("prop-knn").unwrap();
        let dataset = write_series(&dir, &data);
        let opts = BuildOptions { memory_bytes: 1 << 20, materialized: false, threads: 1, shards: 1 };
        let tree = CoconutTree::build(&dataset, &config(16), dir.path(), opts).unwrap();
        let (top, _) = tree.exact_knn(&query, k, None, f64::INFINITY, Deadline::NONE).unwrap();
        // Brute-force top-k distances.
        let mut dists: Vec<f64> = data
            .iter()
            .map(|s| coconut::series::distance::euclidean(&query, s))
            .collect();
        dists.sort_by(f64::total_cmp);
        let expect = &dists[..k.min(dists.len())];
        prop_assert_eq!(top.len(), expect.len());
        for (got, want) in top.iter().zip(expect.iter()) {
            prop_assert!((got.dist - want).abs() < 1e-4);
        }
    }
}
