//! The coordinator: one process that owns the key-space partition map and
//! scatter-gathers queries across `serve --shard` workers.
//!
//! [`CoordinatorEngine`] wraps a `coconut_core::ShardSet` of
//! [`RemoteShard`] clients — the *same* merge logic the in-process oracle
//! uses, so a distributed answer differs from a single-node one only if
//! the wire round trip loses information (it does not: distances travel
//! as shortest-roundtrip decimals).
//!
//! Scatter-gather rounds:
//!
//! * `KNN` visits shards in ascending slice order, keeps the merged top-k
//!   and forwards the current k-th distance as each shard's pruning
//!   `bound=` — a shard whose slice cannot beat the bound does almost no
//!   work and returns `hits=none`. The final merge sorts by
//!   `(distance, position)` so ties break identically to a single index.
//! * `EXACT` is the same walk with k = 1 (the shards see `KNN k=1`),
//!   replied to in the single-node `pos= dist=` form.
//! * `RANGE` has a fixed radius (no bound tightening), so all shards are
//!   queried in parallel and the hit lists are merged sorted.
//!
//! `mode=strict` and `mode=degraded` take the same walk; strict mode only
//! turns the first unreachable or timed-out shard into the query's error
//! (see `coconut_core::backend`).
//!
//! It implements [`Handler`], so the ordinary [`crate::Server`] listener
//! serves it: clients speak the exact same line protocol to a coordinator
//! as to a single node.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coconut_core::backend::partition;
use coconut_core::ShardSet;
use coconut_series::dataset::Dataset;
use coconut_series::index::Answer;
use coconut_storage::{Deadline, Error, Result};

use crate::client::{ClientConfig, RemoteShard};
use crate::engine::{
    err_reply, fmt_answer, fmt_hits, fmt_shard_info, parse_err_reply, resolve_query, Handler,
    Outcome,
};
use crate::metrics::CoordinatorMetrics;
use crate::protocol::{parse, Request};

/// The distributed query engine: partition map + scatter-gather over
/// remote shards, behind the same [`Handler`] surface as a single node.
pub struct CoordinatorEngine {
    set: ShardSet<RemoteShard>,
    dataset: Dataset,
    metrics: Arc<CoordinatorMetrics>,
    default_deadline: Option<Duration>,
    /// Covered prefix and manifest-sequence sum, cached after the
    /// operations that can change them (BUILD / INGEST / SHARD-INFO) so
    /// query replies don't pay an extra info round per shard.
    covered: AtomicU64,
    seq_sum: AtomicU64,
}

impl CoordinatorEngine {
    /// Build a coordinator over the shard workers at `shard_addrs`. The
    /// dataset's key space is partitioned into `shard_addrs.len()`
    /// near-equal contiguous slices, assigned in address order.
    pub fn new(
        shard_addrs: &[String],
        dataset: Dataset,
        client_config: ClientConfig,
        default_deadline: Option<Duration>,
    ) -> Result<Self> {
        if shard_addrs.is_empty() {
            return Err(Error::invalid("a coordinator needs at least one shard"));
        }
        let metrics = Arc::new(CoordinatorMetrics::new(shard_addrs.len()));
        let ranges = partition(dataset.len(), shard_addrs.len());
        let shards = shard_addrs
            .iter()
            .zip(ranges)
            .enumerate()
            .map(|(i, (addr, range))| {
                RemoteShard::new(
                    addr.clone(),
                    range,
                    client_config.clone(),
                    Some(Arc::clone(&metrics.shards[i])),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(CoordinatorEngine {
            set: ShardSet::new(shards)?,
            dataset,
            metrics,
            default_deadline,
            covered: AtomicU64::new(0),
            seq_sum: AtomicU64::new(0),
        })
    }

    /// The coordinator's metric set.
    pub fn metrics(&self) -> &Arc<CoordinatorMetrics> {
        &self.metrics
    }

    /// The shard set (tests use it to inspect the partition map).
    pub fn set(&self) -> &ShardSet<RemoteShard> {
        &self.set
    }

    /// Ask every shard for its info and refresh the cached coverage.
    /// Returns the per-shard infos in slice order.
    fn refresh(&self) -> Result<Vec<coconut_core::ShardInfo>> {
        let infos = self.set.infos()?;
        let covered = self.set.covered_end()?;
        self.covered.store(covered, Ordering::Relaxed);
        self.seq_sum
            .store(infos.iter().map(|i| i.seq).sum(), Ordering::Relaxed);
        Ok(infos)
    }

    fn deadline(&self, requested_ms: Option<u64>) -> Deadline {
        match requested_ms {
            Some(ms) => Deadline::after(Duration::from_millis(ms)),
            None => self
                .default_deadline
                .map_or(Deadline::NONE, Deadline::after),
        }
    }

    /// Execute one request line and format the reply.
    pub fn execute_line(&self, line: &str) -> Outcome {
        let request = match parse(line) {
            Ok(r) => r,
            Err(e) => {
                self.metrics.errors.inc();
                return Outcome {
                    reply: parse_err_reply(&e),
                    close: false,
                };
            }
        };
        if matches!(request, Request::Quit) {
            return Outcome {
                reply: "OK bye".into(),
                close: true,
            };
        }
        let reply = match self.execute(&request) {
            Ok(reply) => reply,
            Err(e) => {
                self.metrics.record_failure(&e);
                err_reply(&e)
            }
        };
        Outcome {
            reply,
            close: false,
        }
    }

    fn execute(&self, request: &Request) -> Result<String> {
        let covered = || self.covered.load(Ordering::Relaxed);
        let seq = || self.seq_sum.load(Ordering::Relaxed);
        match request {
            Request::Ping => Ok("OK pong".into()),
            Request::Health => Ok(self.health_line()),
            Request::Stats => Ok(format!("{}# EOF", self.metrics.render())),
            Request::Exact {
                query,
                deadline_ms,
                bound: _,
                degraded,
            } => {
                // An incoming bound= is ignored: the coordinator derives
                // per-shard bounds from its own scatter-gather rounds.
                let deadline = self.deadline(*deadline_ms);
                let q = resolve_query(&self.dataset, query)?;
                let started = Instant::now();
                let partial = self.set.knn(&q, 1, *degraded, deadline)?;
                self.metrics.record_query(started.elapsed().as_secs_f64());
                self.note_degraded(&partial.missing);
                let answer = partial.value.first().copied().unwrap_or(Answer::none());
                Ok(format!(
                    "OK exact {} covered={} seq={}{}",
                    fmt_answer(&answer),
                    covered(),
                    seq(),
                    fmt_missing(&partial.missing)
                ))
            }
            Request::Knn {
                k,
                query,
                deadline_ms,
                bound: _,
                degraded,
            } => {
                let deadline = self.deadline(*deadline_ms);
                let q = resolve_query(&self.dataset, query)?;
                let started = Instant::now();
                let partial = self.set.knn(&q, *k, *degraded, deadline)?;
                self.metrics.record_query(started.elapsed().as_secs_f64());
                self.note_degraded(&partial.missing);
                Ok(format!(
                    "OK knn k={} covered={} seq={} hits={}{}",
                    k,
                    covered(),
                    seq(),
                    fmt_hits(&partial.value),
                    fmt_missing(&partial.missing)
                ))
            }
            Request::Range {
                epsilon,
                query,
                deadline_ms,
                degraded,
            } => {
                let deadline = self.deadline(*deadline_ms);
                let q = resolve_query(&self.dataset, query)?;
                let started = Instant::now();
                let partial = self.set.range(&q, *epsilon, *degraded, deadline)?;
                self.metrics.record_query(started.elapsed().as_secs_f64());
                self.note_degraded(&partial.missing);
                Ok(format!(
                    "OK range eps={} covered={} seq={} hits={}{}",
                    epsilon,
                    covered(),
                    seq(),
                    fmt_hits(&partial.value),
                    fmt_missing(&partial.missing)
                ))
            }
            Request::Ingest { upto } => {
                let before = self.covered.load(Ordering::Relaxed);
                let upto = upto.unwrap_or_else(|| self.dataset.len());
                let infos = self.set.build(upto)?;
                let runs: u64 = infos.iter().map(|i| i.runs).sum();
                self.refresh()?;
                let after = self.covered.load(Ordering::Relaxed);
                Ok(format!(
                    "OK ingest covered={} added={} runs={runs}",
                    after,
                    after.saturating_sub(before)
                ))
            }
            Request::Build { start, end, upto } => {
                // The coordinator owns the partition map; a BUILD request
                // must span the whole key space it manages.
                if *start != 0 {
                    return Err(Error::invalid(
                        "the coordinator owns the partition map; BUILD must use start=0",
                    ));
                }
                let upto = upto.unwrap_or(*end).min(*end).min(self.dataset.len());
                self.set.build(upto)?;
                let infos = self.refresh()?;
                let runs: u64 = infos.iter().map(|i| i.runs).sum();
                Ok(format!(
                    "OK build start=0 end={} covered={} seq={} runs={runs}",
                    self.dataset.len(),
                    covered(),
                    seq()
                ))
            }
            Request::ShardInfo => {
                let infos = self.refresh()?;
                let per_shard = infos
                    .iter()
                    .map(|i| fmt_shard_info(i).replace(' ', ","))
                    .collect::<Vec<_>>()
                    .join(" ");
                Ok(format!(
                    "OK shard-info shards={} covered={} seq={} {per_shard}",
                    infos.len(),
                    covered(),
                    seq()
                ))
            }
            Request::Compact | Request::Gc => Err(Error::invalid(
                "COMPACT and GC are not supported by the coordinator; \
                 send them to the shard workers",
            )),
            Request::Quit => Ok("OK bye".into()),
        }
    }

    /// Count a degraded (shards lost) answer in the metrics.
    fn note_degraded(&self, missing: &[std::ops::Range<u64>]) {
        if !missing.is_empty() {
            self.metrics.degraded.inc();
        }
    }

    /// One-line health summary: reachable shard count and coverage.
    pub fn health_line(&self) -> String {
        match self.refresh() {
            Ok(infos) => format!(
                "OK healthy shards={} covered={}",
                infos.len(),
                self.covered.load(Ordering::Relaxed)
            ),
            Err(e) => err_reply(&e),
        }
    }
}

/// The ` degraded=1 missing=a..b,...` reply suffix — empty when nothing is
/// missing, so complete degraded-mode replies stay byte-identical to
/// strict ones.
fn fmt_missing(missing: &[std::ops::Range<u64>]) -> String {
    if missing.is_empty() {
        return String::new();
    }
    let slices = missing
        .iter()
        .map(|r| format!("{}..{}", r.start, r.end))
        .collect::<Vec<_>>()
        .join(",");
    format!(" degraded=1 missing={slices}")
}

impl Handler for CoordinatorEngine {
    fn execute_line(&self, line: &str) -> Outcome {
        CoordinatorEngine::execute_line(self, line)
    }

    fn metrics_text(&self) -> String {
        self.metrics.render()
    }

    fn health_line(&self) -> String {
        CoordinatorEngine::health_line(self)
    }

    fn on_rejected(&self) {
        self.metrics.rejected.inc();
    }

    fn on_idle_disconnect(&self) {
        self.metrics.idle_disconnects.inc();
    }
}
