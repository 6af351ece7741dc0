//! Seeded inputs and the brute-force oracle that checks every answer.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use coconut_series::dataset::{write_dataset, Dataset};
use coconut_series::distance::{euclidean, znormalize};
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::index::Answer;
use coconut_series::Value;
use coconut_storage::IoStats;

use crate::Fail;

/// Per-request deadline sent with every query: generous, so hitting it
/// means a real hang.
pub const DEADLINE_MS: u64 = 30_000;

/// Mix the run seed with a stream tag and an index, so datasets and query
/// pools from one seed never share a random-walk stream.
pub fn mix(seed: u64, tag: u64, i: u64) -> u64 {
    let mut z =
        seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Write the workload's random-walk file (z-normalized, as the paper's
/// generator does) and flush it to disk, so its write-back never runs
/// inside a timed phase.
pub fn generate_dataset(path: &Path, seed: u64, n: u64, len: usize) -> Result<(), Fail> {
    let fail = |e: &dyn std::fmt::Display| Fail::setup(format!("generate {}: {e}", path.display()));
    let stats = Arc::new(IoStats::new());
    write_dataset(
        path,
        &mut RandomWalkGen::new(mix(seed, 1, 0)),
        n,
        len,
        &stats,
    )
    .map_err(|e| fail(&e))?;
    std::fs::File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| fail(&e))
}

pub fn open_dataset(path: &Path) -> Result<Dataset, Fail> {
    Dataset::open(path, Arc::new(IoStats::new()))
        .map_err(|e| Fail::setup(format!("open {}: {e}", path.display())))
}

/// Out-of-sample query vectors and their `q=v:` request lines.
pub struct QueryPool {
    pub queries: Vec<Vec<Value>>,
    vectors: Vec<String>,
}

/// kNN size used by every workload.
pub const K: usize = 10;

impl QueryPool {
    pub fn new(seed: u64, count: usize, len: usize) -> Self {
        let queries: Vec<Vec<Value>> = (0..count)
            .map(|i| {
                let mut q = RandomWalkGen::new(mix(seed, 2, i as u64)).generate(len);
                znormalize(&mut q);
                q
            })
            .collect();
        // Shortest round-trip formatting: the server parses back exactly
        // these f32 values.
        let vectors = queries
            .iter()
            .map(|q| {
                let mut s = String::with_capacity(q.len() * 12);
                for (j, v) in q.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{v}");
                }
                s
            })
            .collect();
        QueryPool { queries, vectors }
    }

    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// The first `n` queries (the traced run's in-process probes time a
    /// sample of the pool, not all of it).
    pub fn head(&self, n: usize) -> QueryPool {
        let n = n.min(self.len());
        QueryPool {
            queries: self.queries[..n].to_vec(),
            vectors: self.vectors[..n].to_vec(),
        }
    }

    pub fn exact_line(&self, q: usize) -> String {
        format!("EXACT q=v:{} deadline_ms={DEADLINE_MS}", self.vectors[q])
    }

    pub fn knn_line(&self, q: usize) -> String {
        format!(
            "KNN k={K} q=v:{} deadline_ms={DEADLINE_MS}",
            self.vectors[q]
        )
    }
}

/// The request kinds the serving workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Exact,
    Knn,
}

/// The answer a reply carried, parsed from the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    pub covered: u64,
    pub hits: Vec<Answer>,
}

fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}

/// Parse an `OK exact ...` or `OK knn ...` reply.
pub fn parse_reply(kind: Kind, reply: &str) -> Result<Parsed, String> {
    let covered = field(reply, "covered")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no covered= in {reply:?}"))?;
    let hits = match kind {
        Kind::Exact => {
            let pos = field(reply, "pos").ok_or("no pos=")?;
            if pos == "none" {
                Vec::new()
            } else {
                vec![Answer {
                    pos: pos.parse().map_err(|_| "bad pos=")?,
                    dist: field(reply, "dist")
                        .and_then(|v| v.parse().ok())
                        .ok_or("bad dist=")?,
                }]
            }
        }
        Kind::Knn => {
            let hits = field(reply, "hits").ok_or("no hits=")?;
            if hits == "none" {
                Vec::new()
            } else {
                hits.split(',')
                    .map(|h| {
                        let (p, d) = h.split_once(':').ok_or("bad hit")?;
                        Ok(Answer {
                            pos: p.parse().map_err(|_| "bad hit pos")?,
                            dist: d.parse().map_err(|_| "bad hit dist")?,
                        })
                    })
                    .collect::<Result<Vec<_>, &str>>()?
            }
        }
    };
    Ok(Parsed { covered, hits })
}

/// A brute-force oracle that can answer any pool query over any prefix of
/// the dataset, so each reply is checked against exactly the prefix its
/// `covered=` names.
///
/// One scan keeps, per query, every series that enters the `K` nearest of
/// the prefix ending at it. The `k <= K` nearest of any prefix are all
/// among those candidates, so a prefix answer is a pass over a few hundred
/// candidates instead of the whole dataset.
pub struct DistTable {
    n: u64,
    candidates: Vec<Vec<Answer>>,
}

/// Insert `a` into `best` (ordered by `(dist, pos)`, at most `k` long);
/// true when it entered.
fn offer(best: &mut Vec<Answer>, a: Answer, k: usize) -> bool {
    if best.len() == k && (a.dist, a.pos) >= (best[k - 1].dist, best[k - 1].pos) {
        return false;
    }
    let at = best.partition_point(|b| (b.dist, b.pos) <= (a.dist, a.pos));
    best.insert(at, a);
    best.truncate(k);
    true
}

impl DistTable {
    /// Scan `dataset` once per worker thread (each owns a share of the
    /// queries).
    pub fn compute(dataset: &Dataset, pool: &QueryPool, threads: usize) -> Result<Self, Fail> {
        let per = pool.len().div_ceil(threads.max(1)).max(1);
        let mut candidates = Vec::with_capacity(pool.len());
        std::thread::scope(|s| -> Result<(), Fail> {
            let handles: Vec<_> = pool
                .queries
                .chunks(per)
                .map(|queries| {
                    s.spawn(move || -> Result<Vec<Vec<Answer>>, Fail> {
                        let mut best = vec![Vec::with_capacity(K + 1); queries.len()];
                        let mut cand = vec![Vec::new(); queries.len()];
                        let mut scan = dataset.scan();
                        while let Some((pos, series)) = scan
                            .next_series()
                            .map_err(|e| Fail::setup(format!("oracle scan: {e}")))?
                        {
                            for (qi, q) in queries.iter().enumerate() {
                                let a = Answer {
                                    pos,
                                    dist: euclidean(q, series),
                                };
                                if offer(&mut best[qi], a, K) {
                                    cand[qi].push(a);
                                }
                            }
                        }
                        Ok(cand)
                    })
                })
                .collect();
            for h in handles {
                candidates.extend(
                    h.join()
                        .map_err(|_| Fail::setup("oracle thread panicked"))??,
                );
            }
            Ok(())
        })?;
        Ok(DistTable {
            n: dataset.len(),
            candidates,
        })
    }

    /// Corrupt the oracle on purpose (the smoke test's negative check):
    /// query 0's nearest series looks farther than it is.
    pub fn corrupt(&mut self) {
        let best = self.knn(0, self.n, 1);
        for c in &mut self.candidates[0] {
            if best.first().is_some_and(|b| b.pos == c.pos) {
                c.dist += 1.0;
            }
        }
    }

    /// The `k` nearest of query `q` over positions `0..covered`, ordered by
    /// `(dist, pos)` as the index orders them.
    pub fn knn(&self, q: usize, covered: u64, k: usize) -> Vec<Answer> {
        let mut best = Vec::with_capacity(k + 1);
        for a in self.candidates[q].iter().take_while(|a| a.pos < covered) {
            offer(&mut best, *a, k);
        }
        best
    }

    /// Check `got` (a reply's hits for query `q` over `covered`) against the
    /// brute-force answer. Distances must match to within float rounding,
    /// and so must positions: a hit at another position than the oracle's
    /// passes only when that series is a candidate of the prefix at the
    /// same distance (a tie). The `K` nearest of every prefix are among the
    /// candidates, so a tie can only be missed when more than `K` series
    /// share one distance.
    pub fn check(&self, q: usize, covered: u64, k: usize, got: &[Answer]) -> Result<(), String> {
        if covered > self.n {
            return Err(format!("covered={covered} beyond the dataset ({})", self.n));
        }
        let want = self.knn(q, covered, k.min(K));
        let fail = |why: &str| {
            Err(format!(
                "query {q} over {covered}: {why}: server {got:?} vs oracle {want:?}"
            ))
        };
        if want.len() != got.len() {
            return fail("hit counts differ");
        }
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            if !close(w.dist, g.dist) {
                return fail("distances differ");
            }
            if got[..i].iter().any(|h| h.pos == g.pos) {
                return fail("a position repeats");
            }
            let tie = || {
                self.candidates[q]
                    .iter()
                    .any(|c| c.pos == g.pos && c.pos < covered && close(c.dist, g.dist))
            };
            if g.pos != w.pos && !tie() {
                return fail("positions differ");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_reply_shapes() {
        let e = parse_reply(
            Kind::Exact,
            "OK exact pos=7 dist=1.5 covered=10 seq=1 fetched=3",
        )
        .unwrap();
        assert_eq!(e.covered, 10);
        assert_eq!(e.hits, vec![Answer { pos: 7, dist: 1.5 }]);
        let none = parse_reply(
            Kind::Exact,
            "OK exact pos=none dist=inf covered=0 seq=0 fetched=0",
        )
        .unwrap();
        assert!(none.hits.is_empty());
        let k = parse_reply(Kind::Knn, "OK knn k=2 covered=9 seq=1 hits=3:0.5,1:0.75").unwrap();
        assert_eq!(k.hits.len(), 2);
        assert_eq!(k.hits[1].pos, 1);
        assert!(parse_reply(Kind::Knn, "OK knn k=2 seq=1 hits=3:0.5").is_err());
    }

    #[test]
    fn table_answers_every_prefix_and_orders_ties_by_position() {
        let dists = [3.0, 1.0, 1.0, 0.5, 2.0];
        let mut best = Vec::new();
        let mut cand = Vec::new();
        for (pos, &dist) in dists.iter().enumerate() {
            let a = Answer {
                pos: pos as u64,
                dist,
            };
            if offer(&mut best, a, 2) {
                cand.push(a);
            }
        }
        assert_eq!(cand.len(), 4, "the last series never enters the top 2");
        let t = DistTable {
            n: 5,
            candidates: vec![cand],
        };
        let k2 = t.knn(0, 3, 2);
        assert_eq!((k2[0].pos, k2[1].pos), (1, 2));
        assert_eq!(t.knn(0, 1, 2)[0].pos, 0);
        assert!(
            t.check(0, 3, 1, &[Answer { pos: 2, dist: 1.0 }]).is_ok(),
            "a tie"
        );
        assert!(t.check(0, 4, 1, &[Answer { pos: 1, dist: 1.0 }]).is_err());
        assert!(t.check(0, 0, 1, &[]).is_ok());
        assert!(t.check(0, 3, 1, &[]).is_err(), "a missing answer");
    }

    #[test]
    fn right_distance_at_the_wrong_position_fails() {
        let t = DistTable {
            n: 4,
            candidates: vec![vec![
                Answer { pos: 0, dist: 2.0 },
                Answer { pos: 1, dist: 1.0 },
                Answer { pos: 3, dist: 0.5 },
            ]],
        };
        // Position 2 is no candidate; position 0 is one, at another distance.
        assert!(t.check(0, 4, 1, &[Answer { pos: 2, dist: 0.5 }]).is_err());
        assert!(t.check(0, 4, 1, &[Answer { pos: 0, dist: 0.5 }]).is_err());
        // A candidate past `covered` is no answer for the prefix.
        assert!(t.check(0, 3, 1, &[Answer { pos: 3, dist: 1.0 }]).is_err());
        // The same series twice.
        let twice = [Answer { pos: 3, dist: 0.5 }, Answer { pos: 3, dist: 1.0 }];
        assert!(t.check(0, 4, 2, &twice).is_err());
        let right = [Answer { pos: 3, dist: 0.5 }, Answer { pos: 1, dist: 1.0 }];
        assert!(t.check(0, 4, 2, &right).is_ok());
    }
}
