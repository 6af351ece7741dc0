//! The shard fabric: query partitioning/merge behind [`ShardBackend`].
//!
//! PR 3 parallelized *construction* over key-range shards inside one
//! process ([`crate::shard`]); this module promotes a shard to a deployment
//! boundary. A [`ShardBackend`] is one shard's query surface — build its
//! slice, answer EXACT/KNN/RANGE over it — and a [`ShardSet`] owns the
//! key-space partition map and merges per-shard candidates into globally
//! exact answers. Two implementations exist:
//!
//! * [`LocalShard`] (here): an in-process [`LsmCoconut`] over one slice —
//!   the correctness oracle. A `ShardSet<LocalShard>` answers bit-identically
//!   to a single whole-dataset index, with either node-splitting policy:
//!   the scatter-gather merge works on `(dist, pos)` pairs and never sees
//!   node shapes, so per-shard [`crate::split::SplitPolicy`] choices cannot
//!   change merged answers (only per-shard pruning work).
//! * `RemoteShard` (in `coconut-server`): the same surface spoken over the
//!   line protocol to a `serve --shard` worker process.
//!
//! # Scatter-gather with pruning-bound sharing
//!
//! Exact search is k-NN with k = 1, so the fabric has two query walks.
//! KNN visits shards **in ascending position order**, passing each shard
//! the k-th best distance merged from the shards before it as its pruning
//! bound. A later shard therefore prunes with earlier shards' results and
//! returns only candidates that could still enter the global answer.
//! Dropping candidates at or beyond the bound is exact, not heuristic: the
//! global order is `(dist, pos)`, and every existing entry at the bound has
//! a strictly lower position (earlier shard), so a later tie could never
//! displace it. RANGE queries have no bound to share and scatter to all
//! shards concurrently.
//!
//! # Strict and degraded serving
//!
//! Both walks return a [`Partial`]: the exact answer over the shards that
//! answered, plus the *named* slices that could not be consulted
//! ([`ShardBackend::slice`] is static partition-map data, so a dead shard
//! can still be named). Degraded mode skips shards that are unreachable or
//! out of deadline budget and lists their slices in [`Partial::missing`],
//! so a degraded answer is never silently wrong. Strict mode is the same
//! walk plus one rule: the first such failure ends the query with that
//! shard's error unchanged, so a strict answer is bit-identical to a single
//! index or it is an error. Non-availability errors (corrupt replies,
//! invalid requests) fail the query in either mode: degradation covers
//! *absence*, not *disagreement*.

use std::ops::Range;

use coconut_series::index::Answer;
use coconut_series::Value;
use coconut_storage::{Deadline, Error, Result};

use crate::lsm::LsmCoconut;
use crate::shard::shard_ranges;
use coconut_series::dataset::Dataset;

/// One shard's identity and progress, as reported by [`ShardBackend::info`]
/// (the wire `SHARD-INFO` verb serializes exactly these fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// First raw-file position of the shard's assigned slice.
    pub start: u64,
    /// One past the last position of the assigned slice.
    pub end: u64,
    /// Ingest progress: the slice is indexed up to (exclusive) here;
    /// equals `start` before the first build and `end` when fully built.
    pub covered_end: u64,
    /// The shard index's manifest sequence number.
    pub seq: u64,
    /// Live run count (the shard's read amplification).
    pub runs: u64,
}

/// One shard of the fabric: a key-range slice that can build itself and
/// answer exact queries over whatever prefix of the slice it has indexed.
///
/// All query methods take a pruning `bound` where the global merge can
/// supply one (`f64::INFINITY` disables it) and a cooperative [`Deadline`].
pub trait ShardBackend {
    /// The shard's assigned slice, known statically from the partition
    /// map — available without a round trip even when the shard is down,
    /// which is what lets degraded answers *name* the missing slices.
    fn slice(&self) -> Range<u64>;

    /// The shard's assigned range and ingest progress.
    fn info(&self) -> Result<ShardInfo>;

    /// Index the shard's slice up to `upto` (clamped to the assigned
    /// range); returns the post-build [`ShardInfo`].
    fn build(&self, upto: u64) -> Result<ShardInfo>;

    /// Exact k-NN over the shard's indexed prefix; only candidates with
    /// distance below `bound` are returned.
    fn knn(&self, query: &[Value], k: usize, bound: f64, deadline: Deadline)
        -> Result<Vec<Answer>>;

    /// All series within Euclidean distance `epsilon`, sorted by distance.
    fn range(&self, query: &[Value], epsilon: f64, deadline: Deadline) -> Result<Vec<Answer>>;
}

/// The in-process [`ShardBackend`]: an [`LsmCoconut`] created with
/// [`LsmCoconut::new_based`] at the slice start, querying through the same
/// snapshot merge paths as a whole-dataset index — the correctness oracle
/// the remote fabric is checked against.
pub struct LocalShard {
    lsm: std::sync::Arc<LsmCoconut>,
    dataset: Dataset,
    range: Range<u64>,
}

impl LocalShard {
    /// Wrap an open shard index assigned `range`. The index's base must
    /// match the slice start.
    pub fn new(
        lsm: std::sync::Arc<LsmCoconut>,
        dataset: Dataset,
        range: Range<u64>,
    ) -> Result<Self> {
        if lsm.base() != range.start {
            return Err(Error::invalid(format!(
                "shard index base {} does not match the assigned slice start {}",
                lsm.base(),
                range.start
            )));
        }
        Ok(LocalShard {
            lsm,
            dataset,
            range,
        })
    }

    /// The underlying index (tests use it to inspect runs).
    pub fn lsm(&self) -> &std::sync::Arc<LsmCoconut> {
        &self.lsm
    }
}

impl ShardBackend for LocalShard {
    fn slice(&self) -> Range<u64> {
        self.range.clone()
    }

    fn info(&self) -> Result<ShardInfo> {
        let snap = self.lsm.snapshot();
        Ok(ShardInfo {
            start: self.range.start,
            end: self.range.end,
            covered_end: snap.covered_end(),
            seq: snap.seq(),
            runs: snap.run_count() as u64,
        })
    }

    fn build(&self, upto: u64) -> Result<ShardInfo> {
        let upto = upto.clamp(self.range.start, self.range.end);
        self.lsm.ingest_upto(&self.dataset, upto)?;
        self.info()
    }

    fn knn(
        &self,
        query: &[Value],
        k: usize,
        bound: f64,
        deadline: Deadline,
    ) -> Result<Vec<Answer>> {
        Ok(self
            .lsm
            .snapshot()
            .exact_knn_bounded(query, k, bound, deadline)?
            .0)
    }

    fn range(&self, query: &[Value], epsilon: f64, deadline: Deadline) -> Result<Vec<Answer>> {
        Ok(self.lsm.snapshot().exact_range(query, epsilon, deadline)?.0)
    }
}

/// A scatter-gather answer: the exact result over every shard that
/// answered, plus the slices that could not be consulted (always empty in
/// strict mode). When [`Partial::missing`] is empty the value is the full
/// answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Partial<T> {
    /// The exact answer over the shards that responded.
    pub value: T,
    /// Slices of unreachable / timed-out shards, in ascending position
    /// order. Positions in these ranges were *not* considered.
    pub missing: Vec<Range<u64>>,
}

impl<T> Partial<T> {
    /// True when every shard answered (the value is the strict answer).
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }
}

/// The key-space partition map plus the scatter-gather merge over a set of
/// [`ShardBackend`]s (in-process or remote). Shards must be supplied in
/// ascending position order — [`ShardSet::new`] enforces contiguity lazily
/// via [`ShardSet::infos`]; [`partition`] produces conforming ranges.
pub struct ShardSet<B> {
    shards: Vec<B>,
}

/// Split `0..n` into `k` contiguous near-equal slices — the canonical
/// partition map (re-exported from [`crate::shard::shard_ranges`]).
pub fn partition(n: u64, k: usize) -> Vec<Range<u64>> {
    shard_ranges(0..n, k)
}

impl<B: ShardBackend> ShardSet<B> {
    /// Build a set over shards listed in ascending position order.
    pub fn new(shards: Vec<B>) -> Result<Self> {
        if shards.is_empty() {
            return Err(Error::invalid("a shard set needs at least one shard"));
        }
        Ok(ShardSet { shards })
    }

    /// The shards, in partition order.
    pub fn shards(&self) -> &[B] {
        &self.shards
    }

    /// Every shard's [`ShardInfo`], validated to form one contiguous
    /// gap-free partition of `0..end`.
    pub fn infos(&self) -> Result<Vec<ShardInfo>> {
        let mut infos = Vec::with_capacity(self.shards.len());
        let mut expected = 0u64;
        for shard in &self.shards {
            let info = shard.info()?;
            if info.start != expected || info.end < info.start {
                return Err(Error::corrupt(format!(
                    "shard partition map has a gap: shard covers {}..{} but the \
                     previous shard ended at {expected}",
                    info.start, info.end
                )));
            }
            expected = info.end;
            infos.push(info);
        }
        Ok(infos)
    }

    /// The contiguously-covered global prefix: positions `0..covered` are
    /// indexed by the fabric (the first shard with an unfinished slice caps
    /// it, exactly like a single index's `covered_end`).
    pub fn covered_end(&self) -> Result<u64> {
        let mut covered = 0u64;
        for info in self.infos()? {
            covered = info.covered_end;
            if info.covered_end < info.end {
                break;
            }
        }
        Ok(covered)
    }

    /// Dispatch builds so the whole fabric is indexed up to `upto`
    /// (each shard clamps to its slice); returns the per-shard infos.
    pub fn build(&self, upto: u64) -> Result<Vec<ShardInfo>>
    where
        B: Sync,
    {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| scope.spawn(move || shard.build(upto)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| Error::invalid("shard build worker panicked"))?
                })
                .collect()
        })
    }

    /// Exact k-NN (k = 1 is exact search): query shards in ascending
    /// position order, each pruned by the k-th best distance merged so far
    /// (infinity until the merged set fills). With every shard answering,
    /// the value is bit-identical to a single whole-dataset index's
    /// answer; `degraded` decides what a missing shard does (see the
    /// module docs).
    pub fn knn(
        &self,
        query: &[Value],
        k: usize,
        degraded: bool,
        deadline: Deadline,
    ) -> Result<Partial<Vec<Answer>>> {
        let mut all: Vec<Answer> = Vec::new();
        let mut missing = Vec::new();
        if k == 0 {
            return Ok(Partial {
                value: all,
                missing,
            });
        }
        for shard in &self.shards {
            let bound = if all.len() == k {
                all[k - 1].dist
            } else {
                f64::INFINITY
            };
            match shard.knn(query, k, bound, deadline) {
                Ok(answers) => {
                    all.extend(answers);
                    all.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.pos.cmp(&b.pos)));
                    all.truncate(k);
                }
                Err(e) => skip_or_fail(shard, e, degraded, &mut missing)?,
            }
        }
        Ok(Partial {
            value: all,
            missing,
        })
    }

    /// Range query: no bound to share, so scatter to every shard
    /// concurrently and merge-sort the hits by `(dist, pos)`; `degraded`
    /// as for [`ShardSet::knn`].
    pub fn range(
        &self,
        query: &[Value],
        epsilon: f64,
        degraded: bool,
        deadline: Deadline,
    ) -> Result<Partial<Vec<Answer>>>
    where
        B: Sync,
    {
        let per_shard: Vec<Result<Vec<Answer>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| scope.spawn(move || shard.range(query, epsilon, deadline)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(Error::invalid("shard range worker panicked")))
                })
                .collect()
        });
        let mut all: Vec<Answer> = Vec::new();
        let mut missing = Vec::new();
        for (shard, result) in self.shards.iter().zip(per_shard) {
            match result {
                Ok(hits) => all.extend(hits),
                Err(e) => skip_or_fail(shard, e, degraded, &mut missing)?,
            }
        }
        all.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.pos.cmp(&b.pos)));
        Ok(Partial {
            value: all,
            missing,
        })
    }
}

/// The one rule that separates strict from degraded serving: in degraded
/// mode a shard that is absent (unreachable or out of deadline budget)
/// becomes a named missing slice; every other failure, and in strict mode
/// any failure, ends the query with the shard's error unchanged.
fn skip_or_fail<B: ShardBackend>(
    shard: &B,
    e: Error,
    degraded: bool,
    missing: &mut Vec<Range<u64>>,
) -> Result<()> {
    if degraded && (e.is_unavailable() || e.is_deadline()) {
        missing.push(shard.slice());
        Ok(())
    } else {
        Err(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BuildOptions, IndexConfig};
    use coconut_series::dataset::write_dataset;
    use coconut_series::distance::znormalize;
    use coconut_series::gen::{Generator, RandomWalkGen};
    use coconut_storage::{IoStats, TempDir};
    use std::sync::Arc;

    const LEN: usize = 64;

    fn small_config() -> IndexConfig {
        let mut c = IndexConfig::default_for_len(LEN);
        c.leaf_capacity = 32;
        c
    }

    fn setup(dir: &TempDir, n: u64) -> Dataset {
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        write_dataset(&path, &mut RandomWalkGen::new(11), n, LEN, &stats).unwrap();
        Dataset::open(&path, stats).unwrap()
    }

    fn local_set(dir: &TempDir, ds: &Dataset, k: usize) -> ShardSet<LocalShard> {
        local_set_with(dir, ds, k, BuildOptions::default())
    }

    fn local_set_with(
        dir: &TempDir,
        ds: &Dataset,
        k: usize,
        opts: BuildOptions,
    ) -> ShardSet<LocalShard> {
        let mut shards = Vec::new();
        for (i, range) in partition(ds.len(), k).into_iter().enumerate() {
            let lsm = Arc::new(
                LsmCoconut::new_based(
                    small_config(),
                    opts.clone(),
                    dir.path().join(format!("shard-{i}")),
                    range.start,
                )
                .unwrap(),
            );
            shards.push(LocalShard::new(lsm, ds.clone(), range).unwrap());
        }
        let set = ShardSet::new(shards).unwrap();
        set.build(ds.len()).unwrap();
        set
    }

    fn query(seed: u64) -> Vec<Value> {
        let mut q = RandomWalkGen::new(seed).generate(LEN);
        znormalize(&mut q);
        q
    }

    #[test]
    fn partition_map_is_contiguous_and_validated() {
        let ranges = partition(10, 3);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        let dir = TempDir::new("backend").unwrap();
        let ds = setup(&dir, 90);
        let set = local_set(&dir, &ds, 3);
        let infos = set.infos().unwrap();
        assert_eq!(infos.len(), 3);
        assert_eq!(infos[0].start, 0);
        assert_eq!(infos[2].end, 90);
        assert_eq!(set.covered_end().unwrap(), 90);
    }

    #[test]
    fn sharded_answers_match_single_index_bit_for_bit() {
        let dir = TempDir::new("backend").unwrap();
        let ds = setup(&dir, 600);
        // The single whole-dataset reference.
        let single = Arc::new(
            LsmCoconut::new(
                small_config(),
                BuildOptions::default(),
                dir.path().join("single"),
            )
            .unwrap(),
        );
        single.ingest(&ds).unwrap();
        for k in [1usize, 2, 4] {
            let sub = TempDir::new("backend-k").unwrap();
            let set = local_set(&sub, &ds, k);
            for seed in 0..8u64 {
                let q = query(100 + seed);
                let snap = single.snapshot();
                let (want, _) = snap
                    .exact_bounded(&q, f64::INFINITY, Deadline::NONE)
                    .unwrap();
                let got = set.knn(&q, 1, false, Deadline::NONE).unwrap().value[0];
                assert_eq!(
                    (got.pos, got.dist.to_bits()),
                    (want.pos, want.dist.to_bits())
                );

                let (want_k, _) = snap.exact_knn(&q, 5, Deadline::NONE).unwrap();
                let got_k = set.knn(&q, 5, false, Deadline::NONE).unwrap().value;
                assert_eq!(got_k.len(), want_k.len(), "k={k}");
                for (g, w) in got_k.iter().zip(want_k.iter()) {
                    assert_eq!((g.pos, g.dist.to_bits()), (w.pos, w.dist.to_bits()));
                }

                let eps = want_k.last().unwrap().dist;
                let (want_r, _) = snap.exact_range(&q, eps, Deadline::NONE).unwrap();
                let got_r = set.range(&q, eps, false, Deadline::NONE).unwrap().value;
                assert_eq!(got_r.len(), want_r.len(), "k={k}");
                for (g, w) in got_r.iter().zip(want_r.iter()) {
                    assert_eq!((g.pos, g.dist.to_bits()), (w.pos, w.dist.to_bits()));
                }
            }
        }
    }

    #[test]
    fn bounded_queries_recover_unbounded_answers() {
        let bits = |hits: &[Answer]| -> Vec<(u64, u64)> {
            hits.iter().map(|a| (a.pos, a.dist.to_bits())).collect()
        };
        for opts in [
            BuildOptions::default(),
            BuildOptions::default().materialized(),
        ] {
            let dir = TempDir::new("backend").unwrap();
            let ds = setup(&dir, 300);
            let set = local_set_with(&dir, &ds, 2, opts);
            let q = query(9);
            let shard = &set.shards()[0];
            for k in [1usize, 3] {
                let unbounded = shard.knn(&q, k, f64::INFINITY, Deadline::NONE).unwrap();
                assert_eq!(unbounded.len(), k);
                // A bound at or below the shard's best suppresses every
                // candidate, the approximate seed included.
                for bound in [unbounded[0].dist / 2.0, unbounded[0].dist] {
                    let suppressed = shard.knn(&q, k, bound, Deadline::NONE).unwrap();
                    assert!(suppressed.is_empty(), "k={k} bound={bound}: {suppressed:?}");
                }
                // A bound at the k-th best returns exactly the hits below it.
                let kth = unbounded[k - 1].dist;
                let below = shard.knn(&q, k, kth, Deadline::NONE).unwrap();
                assert_eq!(bits(&below), bits(&unbounded[..k - 1]), "k={k}");
                // A bound above it returns the identical answer.
                let loose = shard.knn(&q, k, kth * 2.0, Deadline::NONE).unwrap();
                assert_eq!(bits(&loose), bits(&unbounded), "k={k}");
            }
        }
    }

    #[test]
    fn partial_build_caps_covered_prefix() {
        let dir = TempDir::new("backend").unwrap();
        let ds = setup(&dir, 100);
        let mut shards = Vec::new();
        for (i, range) in partition(ds.len(), 2).into_iter().enumerate() {
            let lsm = Arc::new(
                LsmCoconut::new_based(
                    small_config(),
                    BuildOptions::default(),
                    dir.path().join(format!("s{i}")),
                    range.start,
                )
                .unwrap(),
            );
            shards.push(LocalShard::new(lsm, ds.clone(), range).unwrap());
        }
        let set = ShardSet::new(shards).unwrap();
        // Build only the first 30 positions: shard 0 partially covered,
        // shard 1 untouched (its slice starts at 50).
        set.build(30).unwrap();
        assert_eq!(set.covered_end().unwrap(), 30);
        set.build(100).unwrap();
        assert_eq!(set.covered_end().unwrap(), 100);
    }

    /// A [`LocalShard`] that can be "killed": while dead every request
    /// fails with a typed Unavailable, like a crashed worker process.
    struct FlakyShard {
        inner: LocalShard,
        dead: std::sync::atomic::AtomicBool,
    }

    impl FlakyShard {
        fn check(&self) -> Result<()> {
            if self.dead.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(Error::unavailable("shard is down (test)"));
            }
            Ok(())
        }
    }

    impl ShardBackend for FlakyShard {
        fn slice(&self) -> Range<u64> {
            self.inner.slice()
        }
        fn info(&self) -> Result<ShardInfo> {
            self.check()?;
            self.inner.info()
        }
        fn build(&self, upto: u64) -> Result<ShardInfo> {
            self.check()?;
            self.inner.build(upto)
        }
        fn knn(
            &self,
            query: &[Value],
            k: usize,
            bound: f64,
            deadline: Deadline,
        ) -> Result<Vec<Answer>> {
            self.check()?;
            self.inner.knn(query, k, bound, deadline)
        }
        fn range(&self, query: &[Value], epsilon: f64, deadline: Deadline) -> Result<Vec<Answer>> {
            self.check()?;
            self.inner.range(query, epsilon, deadline)
        }
    }

    fn flaky_set(dir: &TempDir, ds: &Dataset, k: usize) -> ShardSet<FlakyShard> {
        let mut shards = Vec::new();
        for (i, range) in partition(ds.len(), k).into_iter().enumerate() {
            let lsm = Arc::new(
                LsmCoconut::new_based(
                    small_config(),
                    BuildOptions::default(),
                    dir.path().join(format!("flaky-{i}")),
                    range.start,
                )
                .unwrap(),
            );
            shards.push(FlakyShard {
                inner: LocalShard::new(lsm, ds.clone(), range).unwrap(),
                dead: std::sync::atomic::AtomicBool::new(false),
            });
        }
        let set = ShardSet::new(shards).unwrap();
        set.build(ds.len()).unwrap();
        set
    }

    /// Brute-force 1-NN over every position outside `missing`.
    fn oracle_excluding(ds: &Dataset, q: &[Value], missing: &[Range<u64>]) -> Answer {
        let mut best = Answer::none();
        for pos in 0..ds.len() {
            if missing.iter().any(|r| r.contains(&pos)) {
                continue;
            }
            let s = ds.get(pos).unwrap();
            let d = coconut_series::distance::euclidean(q, &s);
            if d < best.dist || (d == best.dist && pos < best.pos) {
                best.merge(Answer { pos, dist: d });
            }
        }
        best
    }

    #[test]
    fn degraded_equals_strict_when_every_shard_answers() {
        let dir = TempDir::new("backend-deg").unwrap();
        let ds = setup(&dir, 200);
        let set = flaky_set(&dir, &ds, 3);
        let q = query(31);
        for k in [1usize, 5] {
            let strict = set.knn(&q, k, false, Deadline::NONE).unwrap();
            let partial = set.knn(&q, k, true, Deadline::NONE).unwrap();
            assert!(strict.is_complete() && partial.is_complete());
            assert_eq!(partial.value.len(), strict.value.len());
            for (g, w) in partial.value.iter().zip(strict.value.iter()) {
                assert_eq!((g.pos, g.dist.to_bits()), (w.pos, w.dist.to_bits()));
            }
        }
        let strict_r = set.range(&q, 3.0, false, Deadline::NONE).unwrap();
        let partial_r = set.range(&q, 3.0, true, Deadline::NONE).unwrap();
        assert!(partial_r.is_complete());
        assert_eq!(partial_r.value.len(), strict_r.value.len());
        for (g, w) in partial_r.value.iter().zip(strict_r.value.iter()) {
            assert_eq!((g.pos, g.dist.to_bits()), (w.pos, w.dist.to_bits()));
        }
    }

    #[test]
    fn dead_shard_yields_named_missing_slice_not_wrong_answer() {
        let dir = TempDir::new("backend-deg").unwrap();
        let ds = setup(&dir, 300);
        let set = flaky_set(&dir, &ds, 3);
        let victim = 1usize;
        let victim_slice = set.shards()[victim].slice();
        set.shards()[victim]
            .dead
            .store(true, std::sync::atomic::Ordering::Relaxed);

        for seed in 0..4u64 {
            let q = query(200 + seed);
            // Strict mode refuses rather than answering over a hole.
            let err = set.knn(&q, 1, false, Deadline::NONE).unwrap_err();
            assert!(err.is_unavailable(), "{err}");
            let err = set.range(&q, 1.0, false, Deadline::NONE).unwrap_err();
            assert!(err.is_unavailable(), "{err}");

            // Degraded mode answers over the live slices and names the hole.
            let partial = set.knn(&q, 1, true, Deadline::NONE).unwrap();
            assert_eq!(partial.missing, vec![victim_slice.clone()]);
            let want = oracle_excluding(&ds, &q, &partial.missing);
            let got = partial.value[0];
            assert_eq!(
                (got.pos, got.dist.to_bits()),
                (want.pos, want.dist.to_bits())
            );

            let partial_k = set.knn(&q, 3, true, Deadline::NONE).unwrap();
            assert_eq!(partial_k.missing, vec![victim_slice.clone()]);
            for hit in &partial_k.value {
                assert!(!victim_slice.contains(&hit.pos), "hit from a dead slice");
            }

            let eps = got.dist * 2.0;
            let partial_r = set.range(&q, eps, true, Deadline::NONE).unwrap();
            assert_eq!(partial_r.missing, vec![victim_slice.clone()]);
            for hit in &partial_r.value {
                assert!(!victim_slice.contains(&hit.pos), "hit from a dead slice");
            }
        }

        // Recovery: the shard comes back and degraded answers are complete
        // (and bit-identical to strict) again.
        set.shards()[victim]
            .dead
            .store(false, std::sync::atomic::Ordering::Relaxed);
        let q = query(207);
        let partial = set.knn(&q, 1, true, Deadline::NONE).unwrap();
        assert!(partial.is_complete());
        let strict = set.knn(&q, 1, false, Deadline::NONE).unwrap().value[0];
        assert_eq!(
            (partial.value[0].pos, partial.value[0].dist.to_bits()),
            (strict.pos, strict.dist.to_bits())
        );
    }

    #[test]
    fn mismatched_base_is_rejected() {
        let dir = TempDir::new("backend").unwrap();
        let ds = setup(&dir, 40);
        let lsm = Arc::new(
            LsmCoconut::new(
                small_config(),
                BuildOptions::default(),
                dir.path().join("x"),
            )
            .unwrap(),
        );
        assert!(LocalShard::new(lsm, ds, 20..40).is_err());
    }
}
