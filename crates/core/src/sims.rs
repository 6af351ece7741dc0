//! SIMS: exact search by Scanning In-Memory Summarizations (Algorithm 5).
//!
//! The paper's exact search keeps every record's sortable summarization in
//! main memory ("the SAX summaries of 1 billion data series occupy merely
//! 16 GB"), and answers a query in three steps:
//!
//! 1. seed a best-so-far (`bsf`) with an approximate search;
//! 2. compute a lower bound (MINDIST) for *every* record with multiple
//!    parallel threads over the in-memory array;
//! 3. walk the records in storage order, fetching the raw series only where
//!    the lower bound beats the current `bsf` — a *skip-sequential* scan,
//!    because the summary array is aligned with the on-disk order.
//!
//! The scan order differs per index flavor (raw-file order for
//! non-materialized indexes, leaf order for materialized ones); the fetch
//! is abstracted behind [`SeriesFetcher`].
//!
//! # Invariants
//!
//! * **Monotone fetches.** The scan visits indexes in strictly increasing
//!   order, and [`SeriesFetcher`] implementations rely on it: they are
//!   forward-only cursors, which is what makes the scan *skip-sequential*
//!   (every raw-file/leaf read moves forward, never seeks back).
//! * **Kernel dispatch is process-wide and answer-invariant.** The MINDIST
//!   batch kernel and the early-abandoning Euclidean distance go through
//!   `coconut_series::simd`'s runtime dispatch (AVX2 where available, a
//!   bit-identical scalar mirror otherwise). Setting the environment
//!   variable `COCONUT_FORCE_SCALAR=1` before the first query pins the
//!   scalar mirror; answers are bit-identical either way (enforced by
//!   `tests/simd_parity.rs` and the per-kernel property suites).
//! * **Threads share nothing but the bound array.** The parallel MINDIST
//!   pass splits the key array into disjoint chunks, one per worker, each
//!   with its own [`QueryDistTable`]-driven scratch. Note this is *query*
//!   parallelism; the *build*-side rule that concurrent workers divide the
//!   memory budget (K sorters get `budget / K` each) is documented on
//!   [`coconut_storage::ExternalSorter::new`] and `crate::shard`.
//! * **Split-policy independence.** SIMS scans the *full* sorted key
//!   array and visits records in storage order — neither step consults
//!   node boundaries — so answers are bit-identical no matter which
//!   [`crate::split::SplitPolicy`] shaped the trie above the keys. Only
//!   the approximate bsf-seeding descent touches nodes, and a different
//!   seed can only change *work*, never the exact answer.

use coconut_series::distance::euclidean_sq_early_abandon;
use coconut_series::dtw::{dtw_sq_early_abandon, lb_keogh_sq, Envelope};
use coconut_series::index::{Answer, QueryStats};
use coconut_series::Value;
use coconut_storage::{Deadline, Result};
use coconut_summary::mindist::{envelope_segment_bounds, mindist_env_zkey, QueryDistTable};
use coconut_summary::{SaxConfig, ZKey};

/// How many scan iterations pass between two [`Deadline`] checks. The scan
/// body is tens-to-hundreds of nanoseconds per record, so checking the
/// clock every 64 records bounds overrun to microseconds while keeping the
/// check itself off the per-record path.
const DEADLINE_STRIDE: usize = 64;

/// Check `deadline` once every [`DEADLINE_STRIDE`] iterations — the scan's
/// cancellation checkpoints sit at the same cadence as its early-abandon
/// cutoff tests.
#[inline]
fn checkpoint(deadline: Deadline, i: usize) -> Result<()> {
    if i.is_multiple_of(DEADLINE_STRIDE) {
        deadline.check()?;
    }
    Ok(())
}

/// Fetches the raw series for scan index `i` (in the summary array's order).
///
/// Implementations are stateful cursors: SIMS guarantees indexes arrive in
/// increasing order, so fetchers can stream forward (skip-sequentially).
pub trait SeriesFetcher {
    /// Fill `out` with the series at scan index `i`; return its raw-file
    /// position.
    fn fetch(&mut self, i: usize, out: &mut [Value]) -> Result<u64>;
}

/// Below this many keys the scan runs single-threaded: one mindist costs
/// ~100 ns, so spawning scoped OS threads only pays for itself once the
/// scan itself reaches tens of milliseconds (measured in `bench_query`'s
/// `sims_threads` group — at 20k keys extra threads *lose* ~35%).
pub const PARALLEL_MIN_KEYS: usize = 1 << 17;

/// Compute the MINDIST lower bound of every key against `query_paa`, using
/// `threads` worker threads (step 2 of Algorithm 5).
///
/// The scan is batched: the query's squared distance to every SAX region is
/// tabulated once ([`QueryDistTable`]), then keys are block-decoded into
/// struct-of-arrays scratch and bounded [`coconut_summary::mindist::MINDIST_BATCH`]
/// at a time by the runtime-dispatched vector kernel (AVX2 gathers + BMI2
/// decode where available, a bit-identical scalar mirror otherwise).
pub fn parallel_mindists(
    query_paa: &[f64],
    keys: &[ZKey],
    config: &SaxConfig,
    threads: usize,
) -> Vec<f64> {
    parallel_mindists_with_threshold(query_paa, keys, config, threads, PARALLEL_MIN_KEYS)
}

/// [`parallel_mindists`] with an explicit serial/parallel cutover (exposed
/// so tests and benchmarks can force either path).
pub fn parallel_mindists_with_threshold(
    query_paa: &[f64],
    keys: &[ZKey],
    config: &SaxConfig,
    threads: usize,
    min_parallel_keys: usize,
) -> Vec<f64> {
    let n = keys.len();
    let mut out = vec![0.0f64; n];
    let table = QueryDistTable::new(query_paa, config);
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n < min_parallel_keys {
        table.mindist_batch_into(keys, &mut out);
        return out;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for (keys_chunk, out_chunk) in keys.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let table = &table;
            s.spawn(move || {
                table.mindist_batch_into(keys_chunk, out_chunk);
            });
        }
    });
    out
}

/// Exact k-NN via SIMS (Algorithm 5; the paper reports k = 1, which is
/// exact search). `keys[i]` must be the summarization of the record the
/// fetcher returns for scan index `i`; `seed` is the approximate-search
/// best-so-far (or [`Answer::none`]). Returns up to `k` answers sorted by
/// distance, each strictly below `bound`: a scatter-gather coordinator or
/// a cross-run merge passes the k-th best distance merged so far, so later
/// scans prune with earlier results (a candidate at or beyond the bound
/// could never displace the caller's top-k under the global `(dist, pos)`
/// order). `f64::INFINITY` disables the bound. `deadline` is checked at
/// the scan's early-abandon checkpoints; an expired deadline aborts with
/// [`coconut_storage::Error::Deadline`].
#[allow(clippy::too_many_arguments)] // the full Algorithm 5 parameter set plus (k, bound)
pub fn sims_knn(
    query: &[Value],
    query_paa: &[f64],
    keys: &[ZKey],
    config: &SaxConfig,
    threads: usize,
    k: usize,
    bound: f64,
    seed: Answer,
    fetcher: &mut dyn SeriesFetcher,
    deadline: Deadline,
) -> Result<(Vec<Answer>, QueryStats)> {
    let mut stats = QueryStats::default();
    if k == 0 {
        return Ok((Vec::new(), stats));
    }
    deadline.check()?;
    // A simple bounded set (k is small; the paper's experiments use 1),
    // ascending by squared distance, each entry carrying the squared
    // distance it was admitted with. A candidate enters when it beats the
    // k-th best in squared space (the 1-NN scan's test, so k = 1 is
    // bit-identical to it) and its distance lies below `bound`.
    let bound_sq = bound * bound;
    let mut best: Vec<(Answer, f64)> = Vec::with_capacity(k + 1);
    let insert = |best: &mut Vec<(Answer, f64)>, a: Answer, d_sq: f64| {
        if let Some(at) = best.iter().position(|b| b.0.pos == a.pos) {
            best.remove(at);
        }
        let at = best.partition_point(|b| b.1 <= d_sq);
        best.insert(at, (a, d_sq));
        best.truncate(k);
    };
    if seed.is_some() && seed.dist < bound {
        best.push((seed, seed.dist * seed.dist));
    }
    let mindists = parallel_mindists(query_paa, keys, config, threads);
    stats.lower_bounds += keys.len() as u64;

    let mut buf = vec![0.0 as Value; query.len()];
    for (i, &md) in mindists.iter().enumerate() {
        checkpoint(deadline, i)?;
        // The k-th best so far caps the scan as usual; the external bound
        // caps it while the local set is not yet full (every admitted entry
        // lies below the bound, so a full set's k-th entry is the tighter).
        let (cutoff, cutoff_sq) = best
            .get(k - 1)
            .map_or((bound, bound_sq), |b| (b.0.dist, b.1));
        if md >= cutoff {
            stats.pruned += 1;
            continue;
        }
        let pos = fetcher.fetch(i, &mut buf)?;
        stats.records_fetched += 1;
        if let Some(d_sq) = euclidean_sq_early_abandon(query, &buf, cutoff_sq) {
            let dist = d_sq.sqrt();
            if d_sq < cutoff_sq && dist < bound {
                insert(&mut best, Answer { pos, dist }, d_sq);
            }
        }
    }
    Ok((best.into_iter().map(|b| b.0).collect(), stats))
}

/// Exact range query via SIMS (extension): every record whose Euclidean
/// distance to `query` is at most `epsilon`, sorted by distance. `deadline`
/// is checked at the scan's early-abandon checkpoints.
#[allow(clippy::too_many_arguments)] // mirrors sims_knn with epsilon for (k, bound, seed)
pub fn sims_range(
    query: &[Value],
    query_paa: &[f64],
    keys: &[ZKey],
    config: &SaxConfig,
    threads: usize,
    epsilon: f64,
    fetcher: &mut dyn SeriesFetcher,
    deadline: Deadline,
) -> Result<(Vec<Answer>, QueryStats)> {
    let mut stats = QueryStats::default();
    deadline.check()?;
    let mindists = parallel_mindists(query_paa, keys, config, threads);
    stats.lower_bounds += keys.len() as u64;
    // The inclusion test is `sqrt(d_sq) <= epsilon`, but the abandon cutoff
    // lives in squared space: epsilon² can round to just below the d_sq of a
    // boundary hit (sqrt/square is not an exact roundtrip), silently dropping
    // it. Pad the cutoff by a few ulps and re-test in distance space.
    let cutoff_sq = (epsilon * epsilon) * (1.0 + 8.0 * f64::EPSILON);
    let mut out = Vec::new();
    let mut buf = vec![0.0 as Value; query.len()];
    for (i, &md) in mindists.iter().enumerate() {
        checkpoint(deadline, i)?;
        if md > epsilon {
            stats.pruned += 1;
            continue;
        }
        let pos = fetcher.fetch(i, &mut buf)?;
        stats.records_fetched += 1;
        if let Some(d_sq) = euclidean_sq_early_abandon(query, &buf, cutoff_sq) {
            let dist = d_sq.sqrt();
            if dist <= epsilon {
                out.push(Answer { pos, dist });
            }
        }
    }
    out.sort_by(|a, b| a.dist.total_cmp(&b.dist));
    Ok((out, stats))
}

/// Exact 1-NN under **Dynamic Time Warping** via SIMS (extension; the
/// paper notes DTW compatibility in Section 2). Pruning cascade per
/// record: index-level envelope bound → LB_Keogh on the raw series → full
/// banded DTW with early abandoning. `bsf` must hold a *DTW* distance (or
/// be `Answer::none()`). `deadline` is checked at the scan's early-abandon
/// checkpoints.
#[allow(clippy::too_many_arguments)] // mirrors sims_knn with the warping band for (k, bound)
pub fn sims_exact_dtw(
    query: &[Value],
    band: usize,
    keys: &[ZKey],
    config: &SaxConfig,
    threads: usize,
    mut bsf: Answer,
    fetcher: &mut dyn SeriesFetcher,
    deadline: Deadline,
) -> Result<(Answer, QueryStats)> {
    let mut stats = QueryStats::default();
    deadline.check()?;
    let envelope = Envelope::new(query, band);
    let (env_lo, env_hi) =
        envelope_segment_bounds(&envelope.lower, &envelope.upper, config.segments);

    // Parallel index-level lower bounds from the envelope.
    let n = keys.len();
    let mut index_lbs = vec![0.0f64; n];
    let workers = threads.clamp(1, n.max(1));
    if workers <= 1 || n < PARALLEL_MIN_KEYS {
        for (o, &k) in index_lbs.iter_mut().zip(keys.iter()) {
            *o = mindist_env_zkey(&env_lo, &env_hi, k, config);
        }
    } else {
        let chunk = n.div_ceil(workers);
        std::thread::scope(|s| {
            for (keys_chunk, out_chunk) in keys.chunks(chunk).zip(index_lbs.chunks_mut(chunk)) {
                let (env_lo, env_hi) = (&env_lo, &env_hi);
                s.spawn(move || {
                    for (o, &k) in out_chunk.iter_mut().zip(keys_chunk.iter()) {
                        *o = mindist_env_zkey(env_lo, env_hi, k, config);
                    }
                });
            }
        });
    }
    stats.lower_bounds += n as u64;

    let mut buf = vec![0.0 as Value; query.len()];
    let mut bsf_sq = bsf.dist * bsf.dist;
    for (i, &lb) in index_lbs.iter().enumerate() {
        checkpoint(deadline, i)?;
        if lb >= bsf.dist {
            stats.pruned += 1;
            continue;
        }
        let pos = fetcher.fetch(i, &mut buf)?;
        stats.records_fetched += 1;
        // Tighter point-level bound before paying for DTW.
        if lb_keogh_sq(&envelope, &buf) >= bsf_sq {
            continue;
        }
        if let Some(d_sq) = dtw_sq_early_abandon(query, &buf, band, bsf_sq) {
            if d_sq < bsf_sq {
                bsf = Answer {
                    pos,
                    dist: d_sq.sqrt(),
                };
                bsf_sq = d_sq;
            }
        }
    }
    Ok((bsf, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::distance::{euclidean, znormalize};
    use coconut_series::gen::{Generator, RandomWalkGen};
    use coconut_summary::paa::paa;
    use coconut_summary::sax::Summarizer;

    struct VecFetcher<'a> {
        data: &'a [Vec<Value>],
    }

    impl SeriesFetcher for VecFetcher<'_> {
        fn fetch(&mut self, i: usize, out: &mut [Value]) -> Result<u64> {
            out.copy_from_slice(&self.data[i]);
            Ok(i as u64)
        }
    }

    fn setup(n: usize, len: usize) -> (Vec<Vec<Value>>, Vec<ZKey>, SaxConfig) {
        let config = SaxConfig::default_for_len(len);
        let mut g = RandomWalkGen::new(42);
        let mut summ = Summarizer::new(config);
        let mut data = Vec::with_capacity(n);
        let mut keys = Vec::with_capacity(n);
        for _ in 0..n {
            let mut s = g.generate(len);
            znormalize(&mut s);
            keys.push(summ.zkey(&s));
            data.push(s);
        }
        (data, keys, config)
    }

    fn brute_force(query: &[Value], data: &[Vec<Value>]) -> Answer {
        let mut best = Answer::none();
        for (i, s) in data.iter().enumerate() {
            best.merge(Answer {
                pos: i as u64,
                dist: euclidean(query, s),
            });
        }
        best
    }

    #[test]
    fn sims_matches_brute_force() {
        let (data, keys, config) = setup(500, 64);
        let mut g = RandomWalkGen::new(7);
        for _ in 0..20 {
            let mut q = g.generate(64);
            znormalize(&mut q);
            let qp = paa(&q, config.segments);
            let mut fetcher = VecFetcher { data: &data };
            let (top, stats) = sims_knn(
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
            let ans = top[0];
            let expect = brute_force(&q, &data);
            assert_eq!(ans.pos, expect.pos);
            assert!((ans.dist - expect.dist).abs() < 1e-9);
            assert_eq!(stats.lower_bounds, 500);
            assert_eq!(stats.pruned + stats.records_fetched, 500);
        }
    }

    #[test]
    fn good_seed_increases_pruning() {
        let (data, keys, config) = setup(2000, 64);
        let mut q = RandomWalkGen::new(9).generate(64);
        znormalize(&mut q);
        let qp = paa(&q, config.segments);
        let exact = brute_force(&q, &data);

        let nn = |seed: Answer, fetcher: &mut VecFetcher| {
            sims_knn(
                &q,
                &qp,
                &keys,
                &config,
                1,
                1,
                f64::INFINITY,
                seed,
                fetcher,
                Deadline::NONE,
            )
            .unwrap()
        };
        let (_, cold) = nn(Answer::none(), &mut VecFetcher { data: &data });
        let (ans, warm) = nn(exact, &mut VecFetcher { data: &data });
        assert_eq!(ans[0].pos, exact.pos);
        assert!(
            warm.records_fetched <= cold.records_fetched,
            "seeding with the exact answer must not fetch more ({} > {})",
            warm.records_fetched,
            cold.records_fetched
        );
        assert!(warm.pruned >= cold.pruned);
    }

    #[test]
    fn parallel_mindists_match_serial() {
        let (_, keys, config) = setup(5000, 64);
        let mut q = RandomWalkGen::new(3).generate(64);
        znormalize(&mut q);
        let qp = paa(&q, config.segments);
        let serial = parallel_mindists(&qp, &keys, &config, 1);
        // Force the threaded path despite the small key count.
        let parallel = parallel_mindists_with_threshold(&qp, &keys, &config, 4, 1);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn knn_matches_brute_force_topk() {
        let (data, keys, config) = setup(300, 64);
        let mut q = RandomWalkGen::new(5).generate(64);
        znormalize(&mut q);
        let qp = paa(&q, config.segments);
        let mut fetcher = VecFetcher { data: &data };
        let (top, _) = sims_knn(
            &q,
            &qp,
            &keys,
            &config,
            2,
            5,
            f64::INFINITY,
            Answer::none(),
            &mut fetcher,
            Deadline::NONE,
        )
        .unwrap();
        let mut all: Vec<Answer> = data
            .iter()
            .enumerate()
            .map(|(i, s)| Answer {
                pos: i as u64,
                dist: euclidean(&q, s),
            })
            .collect();
        all.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        assert_eq!(top.len(), 5);
        for (got, want) in top.iter().zip(all.iter().take(5)) {
            assert!((got.dist - want.dist).abs() < 1e-9);
        }
    }

    #[test]
    fn knn_k_zero_and_k_larger_than_n() {
        let (data, keys, config) = setup(10, 64);
        let mut q = RandomWalkGen::new(6).generate(64);
        znormalize(&mut q);
        let qp = paa(&q, config.segments);
        let mut fetcher = VecFetcher { data: &data };
        let (none, _) = sims_knn(
            &q,
            &qp,
            &keys,
            &config,
            1,
            0,
            f64::INFINITY,
            Answer::none(),
            &mut fetcher,
            Deadline::NONE,
        )
        .unwrap();
        assert!(none.is_empty());
        let mut fetcher = VecFetcher { data: &data };
        let (all, _) = sims_knn(
            &q,
            &qp,
            &keys,
            &config,
            1,
            50,
            f64::INFINITY,
            Answer::none(),
            &mut fetcher,
            Deadline::NONE,
        )
        .unwrap();
        assert_eq!(all.len(), 10);
        for w in all.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn expired_deadline_aborts_scan() {
        let (data, keys, config) = setup(200, 64);
        let mut q = RandomWalkGen::new(11).generate(64);
        znormalize(&mut q);
        let qp = paa(&q, config.segments);
        let expired = Deadline::at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let mut fetcher = VecFetcher { data: &data };
        let err = sims_range(&q, &qp, &keys, &config, 1, 10.0, &mut fetcher, expired).unwrap_err();
        assert!(err.is_deadline(), "{err}");
        let mut fetcher = VecFetcher { data: &data };
        let err = sims_knn(
            &q,
            &qp,
            &keys,
            &config,
            1,
            3,
            f64::INFINITY,
            Answer::none(),
            &mut fetcher,
            expired,
        )
        .unwrap_err();
        assert!(err.is_deadline(), "{err}");
    }
}
