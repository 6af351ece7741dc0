//! Persistence integration tests: indexes built, closed, reopened from
//! their on-disk files, and queried identically.

use std::sync::Arc;

use coconut::index::{BuildOptions, CoconutTree, CoconutTrie, IndexConfig};
use coconut::prelude::*;
use coconut::series::distance::znormalize;

const LEN: usize = 64;

fn setup(n: u64) -> (TempDir, Dataset, Vec<Vec<f32>>) {
    let dir = TempDir::new("persist").unwrap();
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    let mut generator = RandomWalkGen::new(9);
    write_dataset(&path, &mut generator, n, LEN, &stats).unwrap();
    let dataset = Dataset::open(&path, stats).unwrap();
    let queries = (0..5u64)
        .map(|i| {
            let mut q = RandomWalkGen::new(500 + i).generate(LEN);
            znormalize(&mut q);
            q
        })
        .collect();
    (dir, dataset, queries)
}

fn config() -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = 32;
    c
}

#[test]
fn tree_roundtrips_through_disk() {
    let (dir, dataset, queries) = setup(400);
    for materialized in [false, true] {
        let opts = BuildOptions {
            memory_bytes: 1 << 20,
            materialized,
            threads: 2,
            shards: 1,
        };
        let built = CoconutTree::build(&dataset, &config(), dir.path(), opts).unwrap();
        let path = built.index_path().to_path_buf();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| built.exact_search(q).unwrap().0)
            .collect();
        drop(built);

        let reopened = CoconutTree::open(&path, &dataset, 2).unwrap();
        assert_eq!(reopened.is_materialized(), materialized);
        for (q, want) in queries.iter().zip(expected.iter()) {
            let (got, _) = reopened.exact_search(q).unwrap();
            assert_eq!(got.pos, want.pos, "materialized={materialized}");
        }
    }
}

#[test]
fn trie_roundtrips_through_disk() {
    let (dir, dataset, queries) = setup(400);
    for materialized in [false, true] {
        let opts = BuildOptions {
            memory_bytes: 1 << 20,
            materialized,
            threads: 2,
            shards: 1,
        };
        let built = CoconutTrie::build(&dataset, &config(), dir.path(), opts).unwrap();
        let path = built.index_path().to_path_buf();
        let expected: Vec<_> = queries.iter().map(|q| built.exact(q).unwrap().0).collect();
        drop(built);

        let reopened = CoconutTrie::open(&path, &dataset, 2).unwrap();
        for (q, want) in queries.iter().zip(expected.iter()) {
            let (got, _) = reopened.exact(q).unwrap();
            assert_eq!(got.pos, want.pos, "materialized={materialized}");
        }
    }
}

#[test]
fn opening_wrong_kind_fails_cleanly() {
    let (dir, dataset, _) = setup(100);
    let opts = BuildOptions {
        memory_bytes: 1 << 20,
        materialized: false,
        threads: 1,
        shards: 1,
    };
    let tree = CoconutTree::build(&dataset, &config(), dir.path(), opts.clone()).unwrap();
    let trie = CoconutTrie::build(&dataset, &config(), dir.path(), opts).unwrap();
    assert!(CoconutTrie::open(tree.index_path(), &dataset, 1).is_err());
    assert!(CoconutTree::open(trie.index_path(), &dataset, 1).is_err());
}

#[test]
fn corrupted_index_is_rejected() {
    let (dir, dataset, _) = setup(100);
    let opts = BuildOptions {
        memory_bytes: 1 << 20,
        materialized: false,
        threads: 1,
        shards: 1,
    };
    let tree = CoconutTree::build(&dataset, &config(), dir.path(), opts).unwrap();
    let path = tree.index_path().to_path_buf();
    drop(tree);
    // Truncate the file mid-directory.
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - 10).unwrap();
    drop(f);
    assert!(CoconutTree::open(&path, &dataset, 1).is_err());
}

#[test]
fn dataset_mismatch_is_rejected() {
    let (dir, dataset, _) = setup(100);
    let opts = BuildOptions {
        memory_bytes: 1 << 20,
        materialized: false,
        threads: 1,
        shards: 1,
    };
    let tree = CoconutTree::build(&dataset, &config(), dir.path(), opts).unwrap();
    let path = tree.index_path().to_path_buf();
    drop(tree);

    // A dataset with a different series length must be refused.
    let stats = Arc::new(IoStats::new());
    let other_path = dir.path().join("other.bin");
    let mut generator = RandomWalkGen::new(1);
    write_dataset(&other_path, &mut generator, 10, 32, &stats).unwrap();
    let other = Dataset::open(&other_path, stats).unwrap();
    assert!(CoconutTree::open(&path, &other, 1).is_err());
}
