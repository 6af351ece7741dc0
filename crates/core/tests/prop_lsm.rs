//! Crash-safety property tests for the LSM subsystem: random interleavings
//! of batch ingest, compaction, and simulated kill points (the fail-point
//! hook dies before / mid / after the manifest write), asserting that
//! `LsmCoconut::open` always recovers a consistent run set — contiguous
//! coverage, no orphan run directories, no leftover manifest temp — and
//! that exact queries over the recovered prefix match a brute-force oracle.
//! A second property pins exact 1-NN to k-NN with k = 1 across runs.

use std::sync::Arc;

use coconut_core::{BuildOptions, IndexConfig, KillPoint, LsmCoconut};
use coconut_series::dataset::{Dataset, DatasetWriter};
use coconut_series::distance::{euclidean, znormalize};
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::index::{Answer, SeriesIndex};
use coconut_series::Value;
use coconut_storage::{Deadline, IoStats, TempDir};
use proptest::prelude::*;

const LEN: usize = 32;

fn config() -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = 16;
    c
}

/// Append `n` fresh series to the dataset file and reopen it.
fn grow(
    path: &std::path::Path,
    stats: &Arc<IoStats>,
    gen: &mut RandomWalkGen,
    all: &mut Vec<Vec<Value>>,
    n: usize,
) -> Dataset {
    for _ in 0..n {
        let mut s = gen.generate(LEN);
        znormalize(&mut s);
        all.push(s);
    }
    let mut w = DatasetWriter::create(path, LEN, true, Arc::clone(stats)).unwrap();
    for s in all.iter() {
        w.append(s).unwrap();
    }
    w.finish().unwrap();
    Dataset::open(path, Arc::clone(stats)).unwrap()
}

fn brute_force(prefix: &[Vec<Value>], q: &[Value]) -> Answer {
    let mut best = Answer::none();
    for (i, s) in prefix.iter().enumerate() {
        best.merge(Answer {
            pos: i as u64,
            dist: euclidean(q, s),
        });
    }
    best
}

/// The consistency bar every recovery must clear.
fn check_recovered(
    lsm: &LsmCoconut,
    idx_dir: &std::path::Path,
    all: &[Vec<Value>],
    query_seed: u64,
) {
    // Coverage never exceeds what was ever ingested, and the entry count
    // matches it exactly (runs are contiguous and gap-free by manifest
    // validation).
    let covered = lsm.covered_end();
    assert!(covered <= all.len() as u64);
    assert_eq!(lsm.len(), covered);
    // After compactions settle, the on-disk run directories are exactly the
    // live run set, and no manifest temp file survives.
    lsm.wait_for_compactions().unwrap();
    let run_dirs: Vec<String> = std::fs::read_dir(idx_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("run-"))
        .collect();
    assert_eq!(run_dirs.len(), lsm.run_count(), "orphans: {run_dirs:?}");
    assert!(!idx_dir.join("MANIFEST.tmp").exists());
    // Queries over the recovered prefix are oracle-identical.
    let mut q = RandomWalkGen::new(query_seed).generate(LEN);
    znormalize(&mut q);
    let (ans, _) = lsm.exact(&q).unwrap();
    let oracle = brute_force(&all[..covered as usize], &q);
    assert_eq!(ans.pos, oracle.pos);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random interleavings of {ingest, compact, crash-then-recover} with
    /// all three kill points. Every op that "crashes" drops the instance
    /// mid-operation and reopens from disk, like a process restart.
    #[test]
    fn random_crash_interleavings_always_recover(
        ops in proptest::collection::vec((0u8..5, 1u64..4), 4..10),
        seed in 0u64..1000,
    ) {
        let dir = TempDir::new("prop-lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let data_path = dir.path().join("data.bin");
        let idx_dir = dir.path().join("idx");
        let mut gen = RandomWalkGen::new(seed);
        let mut all: Vec<Vec<Value>> = Vec::new();

        let mut dataset = grow(&data_path, &stats, &mut gen, &mut all, 40);
        let mut lsm = LsmCoconut::new(config(), BuildOptions::default(), &idx_dir).unwrap();
        lsm.set_max_runs(3);
        lsm.ingest(&dataset).unwrap();

        for (step, &(op, param)) in ops.iter().enumerate() {
            let qseed = seed ^ (step as u64) << 8;
            match op {
                // Grow the dataset and ingest the new tail.
                0 | 1 => {
                    dataset = grow(&data_path, &stats, &mut gen, &mut all, 25 * param as usize);
                    lsm.ingest(&dataset).unwrap();
                }
                // Full compaction.
                2 => {
                    lsm.compact().unwrap();
                    prop_assert_eq!(lsm.run_count(), 1);
                }
                // Crash during an ingest commit, at a random kill point.
                3 => {
                    let kill = match param {
                        1 => KillPoint::BeforeManifestWrite,
                        2 => KillPoint::MidManifestWrite,
                        _ => KillPoint::AfterManifestCommit,
                    };
                    dataset = grow(&data_path, &stats, &mut gen, &mut all, 30);
                    lsm.wait_for_compactions().unwrap();
                    lsm.set_kill_point(Some(kill));
                    let err = lsm.ingest(&dataset).expect_err("armed kill must fire");
                    prop_assert!(err.to_string().contains("simulated crash"), "{}", err);
                    drop(lsm);
                    lsm = LsmCoconut::open(&idx_dir, &dataset, BuildOptions::default()).unwrap();
                    lsm.set_max_runs(3);
                    check_recovered(&lsm, &idx_dir, &all, qseed);
                }
                // Crash during a compaction commit, at a random kill point.
                _ => {
                    let kill = match param {
                        1 => KillPoint::BeforeManifestWrite,
                        2 => KillPoint::MidManifestWrite,
                        _ => KillPoint::AfterManifestCommit,
                    };
                    lsm.wait_for_compactions().unwrap();
                    if lsm.run_count() >= 2 {
                        lsm.set_kill_point(Some(kill));
                        let err = lsm.compact().expect_err("armed kill must fire");
                        prop_assert!(err.to_string().contains("simulated crash"), "{}", err);
                        drop(lsm);
                        lsm = LsmCoconut::open(&idx_dir, &dataset, BuildOptions::default()).unwrap();
                        lsm.set_max_runs(3);
                        check_recovered(&lsm, &idx_dir, &all, qseed);
                    } else {
                        // Nothing to compact: disarm and move on.
                        lsm.set_kill_point(None);
                    }
                }
            }
            // Whatever happened, committed data keeps answering exactly.
            let mut q = RandomWalkGen::new(qseed ^ 0xABCD).generate(LEN);
            znormalize(&mut q);
            let covered = lsm.covered_end() as usize;
            let (ans, _) = lsm.exact(&q).unwrap();
            prop_assert_eq!(ans.pos, brute_force(&all[..covered], &q).pos, "step {}", step);
        }

        // Catch up on anything a crash rolled back, then do a final full
        // verification pass.
        lsm.ingest(&dataset).unwrap();
        prop_assert_eq!(lsm.covered_end(), all.len() as u64);
        check_recovered(&lsm, &idx_dir, &all, seed ^ 0xF1FA);
    }

    /// Exact 1-NN is k-NN with k = 1: over random multi-run LSMs (raw and
    /// materialized), random queries (half of them dataset members) and
    /// bounds {inf, 0.5, 1, 2} x the true best distance, the bounded 1-NN
    /// merge and the bounded k = 1 merge agree on the position, the
    /// distance bits and the records fetched.
    #[test]
    fn exact_bounded_equals_knn_k1_across_runs(
        n in 80usize..240,
        runs in 2u64..4,
        materialized in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let dir = TempDir::new("prop-lsm-k1").unwrap();
        let stats = Arc::new(IoStats::new());
        let mut gen = RandomWalkGen::new(seed);
        let mut all: Vec<Vec<Value>> = Vec::new();
        let dataset = grow(&dir.path().join("data.bin"), &stats, &mut gen, &mut all, n);
        let opts = BuildOptions {
            materialized,
            ..BuildOptions::default()
        };
        let lsm = LsmCoconut::new(config(), opts, dir.path().join("idx")).unwrap();
        for r in 1..=runs {
            lsm.ingest_upto(&dataset, n as u64 * r / runs).unwrap();
        }
        lsm.wait_for_compactions().unwrap();
        let snap = lsm.snapshot();
        prop_assert!(snap.run_count() >= 2, "runs {}", snap.run_count());
        for qi in 0..6u64 {
            let q = if qi % 2 == 0 {
                all[(seed as usize * 7 + qi as usize) % n].clone()
            } else {
                let mut q = RandomWalkGen::new(seed ^ (qi << 20)).generate(LEN);
                znormalize(&mut q);
                q
            };
            let best = brute_force(&all, &q).dist;
            for bound in [f64::INFINITY, 0.5 * best, best, 2.0 * best] {
                let (one, one_stats) = snap.exact_bounded(&q, bound, Deadline::NONE).unwrap();
                let (k1, k1_stats) = snap.exact_knn_bounded(&q, 1, bound, Deadline::NONE).unwrap();
                let k1 = k1.first().copied().unwrap_or(Answer::none());
                prop_assert_eq!(one.is_some(), k1.is_some(), "bound {}", bound);
                if one.is_some() {
                    prop_assert_eq!(
                        (one.pos, one.dist.to_bits()),
                        (k1.pos, k1.dist.to_bits()),
                        "bound {}", bound
                    );
                }
                prop_assert_eq!(
                    one_stats.records_fetched,
                    k1_stats.records_fetched,
                    "bound {}", bound
                );
            }
        }
    }
}
