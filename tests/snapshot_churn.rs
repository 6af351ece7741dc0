//! Snapshot isolation under churn, at the facade level: concurrent readers
//! pin [`Snapshot`]s and keep getting oracle-exact answers while a writer
//! ingests batches and compaction reshapes the run set underneath — and
//! run directories compacted away stay on disk exactly as long as a live
//! snapshot pins them.
//!
//! Readers here never call `wait_for_compactions` (nor any other
//! writer-side call): the snapshot API is the entire read path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use coconut::prelude::*;
use coconut::series::distance::{euclidean, znormalize};
use coconut::storage::IoStats;

const LEN: usize = 64;
const N: u64 = 900;

fn config() -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = 32;
    c
}

fn setup(n: u64) -> (TempDir, Dataset) {
    let dir = TempDir::new("snapshot-churn").unwrap();
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    write_dataset(&path, &mut RandomWalkGen::new(21), n, LEN, &stats).unwrap();
    (dir, Dataset::open(&path, stats).unwrap())
}

fn query(seed: u64) -> Vec<f32> {
    let mut q = RandomWalkGen::new(seed).generate(LEN);
    znormalize(&mut q);
    q
}

fn brute_force_pos(prefix: &[Vec<f32>], q: &[f32]) -> Option<u64> {
    let mut best: Option<(u64, f64)> = None;
    for (i, s) in prefix.iter().enumerate() {
        let d = euclidean(q, s);
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((i as u64, d));
        }
    }
    best.map(|(p, _)| p)
}

/// Count the `run-*` directories currently on disk.
fn run_dirs(idx_dir: &std::path::Path) -> usize {
    std::fs::read_dir(idx_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_type().is_ok_and(|t| t.is_dir())
                && e.file_name().to_string_lossy().starts_with("run-")
        })
        .count()
}

#[test]
fn concurrent_readers_stay_oracle_exact_during_ingest_and_compaction() {
    let (dir, dataset) = setup(N);
    let idx_dir = dir.path().join("lsm");
    let lsm = Arc::new(LsmCoconut::new(config(), BuildOptions::default(), &idx_dir).unwrap());
    lsm.set_policy(Box::new(TieredPolicy {
        size_ratio: 3,
        tier_runs: 2,
        max_runs: 4,
    }));
    lsm.ingest_upto(&dataset, 100).unwrap();

    // The oracle's in-memory copy of every series.
    let all: Arc<Vec<Vec<f32>>> = Arc::new((0..N).map(|p| dataset.get(p).unwrap()).collect());
    let writer_done = Arc::new(AtomicBool::new(false));

    // Readers: pin a snapshot, answer a few queries against it, check each
    // against brute force over *exactly* the pinned prefix, repeat.
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let lsm = Arc::clone(&lsm);
            let all = Arc::clone(&all);
            let done = Arc::clone(&writer_done);
            std::thread::spawn(move || {
                let mut iterations = 0u64;
                let mut seed = 1_000 * (r + 1);
                while !done.load(Ordering::Relaxed) || iterations == 0 {
                    let snap = lsm.snapshot();
                    let covered = snap.covered_end() as usize;
                    for _ in 0..3 {
                        seed += 1;
                        let q = query(seed);
                        let (ans, _) = snap
                            .exact_bounded(&q, f64::INFINITY, Deadline::NONE)
                            .unwrap();
                        let got = ans.is_some().then_some(ans.pos);
                        let want = brute_force_pos(&all[..covered], &q);
                        assert_eq!(
                            got,
                            want,
                            "reader {r} diverged at covered={covered} seq={}",
                            snap.seq()
                        );
                    }
                    iterations += 1;
                }
                iterations
            })
        })
        .collect();

    // Writer: reveal the rest in small batches (tiered compaction runs on
    // the background worker as runs pile up), then merge everything.
    let mut upto = 100;
    while upto < N {
        upto = (upto + 80).min(N);
        lsm.ingest_upto(&dataset, upto).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    lsm.compact().unwrap();
    writer_done.store(true, Ordering::Relaxed);

    let mut total_iterations = 0;
    for r in readers {
        total_iterations += r.join().unwrap();
    }
    // Progress guarantee: the readers were actually running during churn,
    // not serialized behind the writer.
    assert!(
        total_iterations >= 3,
        "readers made only {total_iterations} iterations"
    );
    assert_eq!(lsm.covered_end(), N);
}

#[test]
fn pinned_snapshot_keeps_run_dirs_until_dropped() {
    let (dir, dataset) = setup(300);
    let idx_dir = dir.path().join("lsm");
    let lsm = LsmCoconut::new(config(), BuildOptions::default(), &idx_dir).unwrap();
    for upto in [100u64, 200, 300] {
        lsm.ingest_upto(&dataset, upto).unwrap();
    }
    lsm.wait_for_compactions().unwrap();

    // Pin the current run set, then compact everything into one run.
    let snap = lsm.snapshot();
    let pinned_runs = snap.run_count();
    assert!(pinned_runs >= 2, "need multiple runs to make GC observable");
    let dirs_before = run_dirs(&idx_dir);
    lsm.compact().unwrap();
    assert_eq!(lsm.run_count(), 1);

    // The compacted-away directories are garbage, but the snapshot pins
    // them: they must survive an explicit GC sweep...
    assert_eq!(lsm.collect_garbage(), 0);
    assert!(lsm.pinned_garbage() > 0);
    assert_eq!(
        run_dirs(&idx_dir),
        dirs_before + 1,
        "old dirs + the merged run"
    );

    // ...and the snapshot still answers over its pinned (pre-compaction)
    // run set.
    let q = query(77);
    let (ans, _) = snap
        .exact_bounded(&q, f64::INFINITY, Deadline::NONE)
        .unwrap();
    assert!(ans.is_some());
    assert_eq!(snap.run_count(), pinned_runs);

    // Dropping the snapshot sweeps the pinned dirs from disk.
    drop(snap);
    assert_eq!(lsm.pinned_garbage(), 0);
    assert_eq!(run_dirs(&idx_dir), 1);
}

#[test]
fn snapshot_queries_honor_deadlines_without_blocking_on_writer() {
    let (dir, dataset) = setup(400);
    let idx_dir = dir.path().join("lsm");
    let lsm = Arc::new(LsmCoconut::new(config(), BuildOptions::default(), &idx_dir).unwrap());
    lsm.ingest_upto(&dataset, 400).unwrap();

    // A snapshot taken before writer activity serves queries concurrently
    // with an ingest that holds the writer lock the whole time.
    let snap = lsm.snapshot();
    let writer = {
        let lsm = Arc::clone(&lsm);
        let dataset = dataset.clone();
        std::thread::spawn(move || {
            // no-op ingest (already covered) plus a real compaction: both
            // take the writer path end to end
            lsm.ingest_upto(&dataset, 400).unwrap();
            lsm.compact().unwrap();
        })
    };
    for seed in 0..5 {
        let (ans, _) = snap
            .exact_bounded(&query(seed), f64::INFINITY, Deadline::NONE)
            .unwrap();
        assert!(ans.is_some());
    }
    // An already-expired deadline aborts with the typed error rather than
    // hanging or panicking, even mid-churn.
    let err = snap
        .exact_bounded(
            &query(99),
            f64::INFINITY,
            Deadline::at(std::time::Instant::now()),
        )
        .unwrap_err();
    assert!(err.is_deadline(), "got {err}");
    writer.join().unwrap();
}
