//! Property tests for on-disk corruption: flip a random byte or truncate
//! a random file anywhere in an index directory (manifest included), then
//! open, scrub, and query. The contract under any such damage:
//!
//! * **never a panic** — every failure is a typed [`coconut_storage::Error`];
//! * **never a wrong answer** — if the index opens, whatever prefix it
//!   still covers must answer bit-identically to a brute-force scan of
//!   that prefix, or the query itself must fail typed.
//!
//! Undetected-but-harmless damage (a flipped bit in padding) is allowed:
//! the property only forbids silent wrongness.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use coconut_core::{BuildOptions, IndexConfig, LsmCoconut};
use coconut_series::dataset::{write_dataset, Dataset};
use coconut_series::gen::RandomWalkGen;
use coconut_series::index::Answer;
use coconut_storage::{Deadline, IoStats, TempDir};

const N: u64 = 200;
const LEN: usize = 32;

/// A pristine three-run index built once; every case works on a copy.
struct Fixture {
    _dir: TempDir,
    index: PathBuf,
    data: PathBuf,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = TempDir::new("corruption-golden").unwrap();
        let data = dir.path().join("data.ds");
        let stats = Arc::new(IoStats::new());
        write_dataset(&data, &mut RandomWalkGen::new(11), N, LEN, &stats).unwrap();
        let ds = Dataset::open(&data, stats).unwrap();
        let index = dir.path().join("index");
        let lsm = LsmCoconut::new(config(), BuildOptions::default(), &index).unwrap();
        for upto in [80, 140, N] {
            lsm.ingest_upto(&ds, upto).unwrap();
        }
        Fixture {
            _dir: dir,
            index,
            data,
        }
    })
}

fn config() -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = 16;
    c
}

fn open_dataset() -> Dataset {
    Dataset::open(&fixture().data, Arc::new(IoStats::new())).unwrap()
}

/// Recursively copy the golden index into a fresh scratch directory.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), &dst).unwrap();
        }
    }
}

/// Every regular file under `dir`, sorted for determinism.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_dir() {
                stack.push(entry.path());
            } else {
                out.push(entry.path());
            }
        }
    }
    out.sort();
    out
}

/// Brute-force 1-NN over `0..end` — what a surviving index must match.
fn oracle_prefix(ds: &Dataset, q: &[f32], end: u64) -> Answer {
    let mut best = Answer::none();
    for pos in 0..end {
        let d = coconut_series::distance::euclidean(q, &ds.get(pos).unwrap());
        if d < best.dist {
            best = Answer { pos, dist: d };
        }
    }
    best
}

/// The whole property: damage one file, then open + scrub + query and
/// demand typed failure or bit-exact truth — never a panic, never a lie.
fn check_damaged_index(dir: &Path) {
    let ds = open_dataset();
    let lsm = match LsmCoconut::open(dir, &ds, BuildOptions::default()) {
        Ok(lsm) => lsm,
        Err(e) => {
            // A typed refusal is a correct outcome; its display must be
            // non-empty so operators see *what* was damaged.
            assert!(!e.to_string().is_empty());
            return;
        }
    };
    // Scrub must classify every live run without panicking; a detected
    // error must carry a message.
    for run in lsm.scrub() {
        if let Some(err) = run.error {
            assert!(!err.is_empty(), "scrub error without a message");
        }
    }
    // Whatever prefix survived must answer exactly or fail typed.
    let covered = lsm.covered_end();
    assert!(covered <= N, "covered={covered} grew past the dataset");
    let q: Vec<f32> = ds.get(N / 2).unwrap();
    match lsm
        .snapshot()
        .exact_bounded(&q, f64::INFINITY, Deadline::NONE)
    {
        Err(e) => assert!(!e.to_string().is_empty()),
        Ok((got, _)) => {
            let want = oracle_prefix(&ds, &q, covered);
            assert_eq!(
                (got.pos, got.dist.to_bits()),
                (want.pos, want.dist.to_bits()),
                "damaged index answered wrongly over its covered prefix 0..{covered}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flip one random byte in one random index file.
    #[test]
    fn flipped_byte_is_typed_or_harmless(
        file_sel in any::<u64>(),
        offset_sel in any::<u64>(),
        xor in any::<u8>(),
    ) {
        let scratch = TempDir::new("corruption-flip").unwrap();
        let dir = scratch.path().join("index");
        copy_tree(&fixture().index, &dir);
        let files = files_under(&dir);
        let victim = &files[(file_sel % files.len() as u64) as usize];
        let mut bytes = std::fs::read(victim).unwrap();
        if !bytes.is_empty() {
            let off = (offset_sel % bytes.len() as u64) as usize;
            bytes[off] ^= xor | 1; // always a real flip
            std::fs::write(victim, bytes).unwrap();
        }
        check_damaged_index(&dir);
    }

    /// Truncate one random index file to a random shorter length.
    #[test]
    fn truncated_file_is_typed_or_harmless(
        file_sel in any::<u64>(),
        len_sel in any::<u64>(),
    ) {
        let scratch = TempDir::new("corruption-trunc").unwrap();
        let dir = scratch.path().join("index");
        copy_tree(&fixture().index, &dir);
        let files = files_under(&dir);
        let victim = &files[(file_sel % files.len() as u64) as usize];
        let bytes = std::fs::read(victim).unwrap();
        if !bytes.is_empty() {
            let keep = (len_sel % bytes.len() as u64) as usize;
            std::fs::write(victim, &bytes[..keep]).unwrap();
        }
        check_damaged_index(&dir);
    }
}
