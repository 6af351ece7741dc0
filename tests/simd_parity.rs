//! End-to-end SIMD/scalar parity: a full SIMS exact search must return
//! **identical answers** whether the process runs the dispatched vector
//! kernels or is pinned to the scalar mirror with `COCONUT_FORCE_SCALAR=1`.
//!
//! Dispatch is chosen once per process, so the comparison needs two
//! processes: the test re-runs itself (this same test binary, filtered to
//! one helper test) with the environment variable set, and compares a
//! digest of every answer — positions *and* the exact f64 bit patterns of
//! the distances — across the boundary. CI additionally runs the whole
//! suite a second time under `COCONUT_FORCE_SCALAR=1`, which makes this
//! test compare scalar against scalar (trivially green) while every other
//! suite exercises the scalar path end to end.

use coconut::index::sims::{sims_knn, sims_range, SeriesFetcher};
use coconut::prelude::*;
use coconut::series::distance::znormalize;
use coconut::series::Value;
use coconut::summary::paa::paa;
use coconut::summary::sax::Summarizer;
use coconut::summary::ZKey;
use std::fmt::Write as _;

struct VecFetcher<'a> {
    data: &'a [Vec<Value>],
}

impl SeriesFetcher for VecFetcher<'_> {
    fn fetch(&mut self, i: usize, out: &mut [Value]) -> coconut::storage::Result<u64> {
        out.copy_from_slice(&self.data[i]);
        Ok(i as u64)
    }
}

/// Deterministic workload: 600 random-walk series, 12 queries, exact 1-NN +
/// 3-NN + range search. Every answer is folded into the digest with the
/// full bit pattern of its distance.
fn answers_digest() -> String {
    let len = 64usize;
    let config = SaxConfig::default_for_len(len);
    let mut gen = RandomWalkGen::new(2024);
    let mut summ = Summarizer::new(config);
    let mut data: Vec<Vec<Value>> = Vec::new();
    let mut keys: Vec<ZKey> = Vec::new();
    for _ in 0..600 {
        let mut s = gen.generate(len);
        znormalize(&mut s);
        keys.push(summ.zkey(&s));
        data.push(s);
    }
    let mut digest = String::new();
    let mut qgen = RandomWalkGen::new(77);
    for qi in 0..12 {
        let mut q = qgen.generate(len);
        znormalize(&mut q);
        let qp = paa(&q, config.segments);

        let mut fetcher = VecFetcher { data: &data };
        let (nn, _) = sims_knn(
            &q,
            &qp,
            &keys,
            &config,
            2,
            1,
            f64::INFINITY,
            Answer::none(),
            &mut fetcher,
            Deadline::NONE,
        )
        .unwrap();
        let ans = nn[0];
        let _ = writeln!(
            digest,
            "q{qi} exact pos={} dist={:016x}",
            ans.pos,
            ans.dist.to_bits()
        );

        let mut fetcher = VecFetcher { data: &data };
        let (knn, _) = sims_knn(
            &q,
            &qp,
            &keys,
            &config,
            2,
            3,
            f64::INFINITY,
            Answer::none(),
            &mut fetcher,
            Deadline::NONE,
        )
        .unwrap();
        for (r, a) in knn.iter().enumerate() {
            let _ = writeln!(
                digest,
                "q{qi} knn{r} pos={} dist={:016x}",
                a.pos,
                a.dist.to_bits()
            );
        }

        let mut fetcher = VecFetcher { data: &data };
        let eps = ans.dist * 1.5 + 0.1;
        let (range, _) = sims_range(
            &q,
            &qp,
            &keys,
            &config,
            2,
            eps,
            &mut fetcher,
            Deadline::NONE,
        )
        .unwrap();
        let _ = writeln!(digest, "q{qi} range n={}", range.len());
        for a in range.iter().take(5) {
            let _ = writeln!(
                digest,
                "q{qi} range pos={} dist={:016x}",
                a.pos,
                a.dist.to_bits()
            );
        }
    }
    digest
}

/// Helper entry point the parent test invokes in a child process with
/// `COCONUT_FORCE_SCALAR=1`: prints the digest between markers. Runs (and
/// trivially passes) as a normal test too.
#[test]
fn scalar_digest_child() {
    println!("DIGEST-BEGIN");
    print!("{}", answers_digest());
    println!("DIGEST-END");
}

#[test]
fn sims_answers_identical_under_forced_scalar() {
    let here = answers_digest();

    // Re-run this test binary, filtered to the helper above, pinned to the
    // scalar kernels.
    let exe = std::env::current_exe().expect("test binary path");
    let output = std::process::Command::new(exe)
        .args([
            "scalar_digest_child",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("COCONUT_FORCE_SCALAR", "1")
        .output()
        .expect("spawn scalar child");
    assert!(
        output.status.success(),
        "scalar child failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let begin = stdout.find("DIGEST-BEGIN").expect("digest start marker") + "DIGEST-BEGIN\n".len();
    let end = stdout.find("DIGEST-END").expect("digest end marker");
    let there = &stdout[begin..end];

    assert_eq!(
        here, there,
        "SIMS answers diverge between dispatched and scalar-forced kernels"
    );
}
