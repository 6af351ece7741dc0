//! `serve_exact`: the real server (`coconut serve`) over a static
//! single-run, non-materialized index, driven by two closed-loop clients on
//! persistent connections with a 4:1 mix of `EXACT` and `KNN k=10`
//! out-of-sample queries sent as `q=v:` vectors.
//!
//! The file is written once. Each set-up starts the server on an empty
//! index and waits until it answers `PING` (`setup_s`); one `INGEST` then
//! indexes the whole file (`build_s`). Every reply must cover the whole
//! file and match a brute-force scan of it.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coconut_series::dataset::Dataset;
use coconut_series::index::Answer;
use coconut_server::Engine;
use coconut_storage::Deadline;

use super::{bytes_ratio, lib, query_metrics, Checked, SetupTimes};
use crate::loadgen::{closed_loop, pick};
use crate::oracle::{generate_dataset, open_dataset, parse_reply, DistTable, Kind, QueryPool, K};
use crate::probes::{engine_probe, index_config, replica, sims_probe, span_median, zkeys, LsmPath};
use crate::proc::{clear_dir, single_node_args, timed, Conn, ServerProc, WorkDir};
use crate::report::{mean, quantile, Metrics};
use crate::{Ctx, Fail, Outcome, Scale};

/// Closed-loop clients.
const CLIENTS: usize = 2;

/// Every fifth request is a `KNN`.
const KNN_EVERY: u64 = 5;

/// Start the server on an empty index and wait until it answers.
fn start(ctx: &Ctx, data: &Path, idx: &Path) -> Result<ServerProc, Fail> {
    let proc = ServerProc::spawn(&ctx.coconut, &single_node_args(data, idx))?;
    Conn::connect(&proc.addr)?.must("PING")?;
    Ok(proc)
}

/// Start a server on an empty index in `idx` and index the whole file.
/// Returns the server, its start-up time and the `INGEST` latency.
fn set_up(ctx: &Ctx, data: &Path, idx: &Path, n: u64) -> Result<(ServerProc, f64, f64), Fail> {
    clear_dir(idx)?;
    let (proc, setup_s) = timed(|| start(ctx, data, idx));
    let proc = proc?;
    let build_s = ingest_all(&proc, n)?;
    Ok((proc, setup_s, build_s))
}

/// Index the whole file with one `INGEST`; returns its latency.
fn ingest_all(server: &ServerProc, n: u64) -> Result<f64, Fail> {
    let mut conn = Conn::connect(&server.addr)?;
    let (reply, secs) = timed(|| conn.must("INGEST"));
    let reply = reply?;
    if !reply.contains(&format!("covered={n} ")) || !reply.ends_with("runs=1") {
        return Err(Fail::wrong(format!(
            "INGEST of the whole file replied {reply:?}"
        )));
    }
    Ok(secs)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, Fail> {
    let (n, len) = (ctx.scale.serve_series(), ctx.scale.series_len());
    let work = WorkDir::create(&ctx.work, "serve_exact")?;
    let data = work.join("data.ds");
    let idx = work.join("index");
    let pool = QueryPool::new(ctx.seed, ctx.scale.serve_pool(), len);
    let mut out = Outcome {
        inputs: format!(
            "{{\"series\": {n}, \"series_len\": {len}, \"query_pool\": {}, \"clients\": {CLIENTS}, \
             \"mix\": \"4 EXACT : 1 KNN k=10\", \"loop\": \"closed\", \"warmup_s\": {}}}",
            pool.len(),
            ctx.scale.warmup().as_secs_f64()
        ),
        ..Outcome::default()
    };

    generate_dataset(&data, ctx.seed, n, len)?;
    let mut times = SetupTimes::default();
    let mut server = None;
    for _ in 0..SetupTimes::before_window(ctx) {
        drop(server.take());
        let (proc, setup_s, build_s) = set_up(ctx, &data, &idx, n)?;
        times.push(setup_s, build_s);
        server = Some(proc);
    }
    let server = server.ok_or_else(|| Fail::setup("no set-up ran"))?;

    let ds = open_dataset(&data)?;
    let mut table = DistTable::compute(&ds, &pool, 2)?;
    if ctx.corrupt_oracle {
        table.corrupt();
    }

    let samples = closed_loop(
        &server.addr,
        CLIENTS,
        ctx.seed,
        &pool,
        KNN_EVERY,
        ctx.scale.warmup(),
        ctx.window(),
        &ctx.tracer,
    )?;
    out.e2e.set("rss_mb", server.peak_rss_mb()?, 1);
    out.e2e.set(
        "index_bytes_per_raw_byte",
        bytes_ratio(&[&idx], ds.payload_bytes()),
        1,
    );
    query_metrics(&samples, &mut out.e2e);
    // The index is static and covers the whole file, so every reply must
    // say so.
    let checked = Checked::run(&samples, |s, r| {
        let parsed = parse_reply(s.kind, r)?;
        if parsed.covered != n {
            return Err(format!(
                "covered={} of a {n}-series index: {r}",
                parsed.covered
            ));
        }
        let k = if s.kind == Kind::Knn { K } else { 1 };
        table.check(s.q, n, k, &parsed.hits)
    });
    out.attempted = samples.len() as u64;
    out.failed = checked.failed;
    out.e2e.set(
        "ok_frac",
        checked.ok as f64 / out.attempted.max(1) as f64,
        samples.len(),
    );
    out.wrong = checked.wrong;

    if ctx.trace {
        replay(
            ctx,
            &ds,
            &work.join("replay"),
            &pool,
            &table,
            &mut out.layers,
        )?;
        // A replica of the server's index, built in process through the
        // same ingest call, so the engine and SIMS stages can be timed
        // on the very index the server answers from.
        let lsm = Arc::new(replica(&ds, &work.join("replica"), n)?);
        let engine = Engine::new(Arc::clone(&lsm), ds.clone(), None);
        let probe = pool.head(ctx.scale.probe_queries());
        let lines: Vec<String> = (0..probe.len()).map(|q| probe.exact_line(q)).collect();
        let mut conn = Conn::connect(&server.addr)?;
        engine_probe(&engine, &mut conn, &lines, &ctx.tracer, &mut out.layers)?;
        let keys = zkeys(&ds, 0..n, &index_config(len).sax)?;
        sims_probe(
            &LsmPath(&lsm),
            &keys,
            &index_config(len).sax,
            &probe,
            &ctx.tracer,
            &mut out.layers,
        )?;
    }
    drop(server);
    for _ in 0..SetupTimes::after_window(ctx) {
        let (proc, setup_s, build_s) = set_up(ctx, &data, &idx, n)?;
        drop(proc);
        times.push(setup_s, build_s);
    }
    times.report(&mut out.e2e);
    Ok(out)
}

/// Series per replayed ingest batch, and the interval between batches.
fn write_schedule(scale: Scale) -> (u64, Duration) {
    match scale {
        Scale::Full => (2_000, Duration::from_millis(200)),
        Scale::Tiny => (100, Duration::from_millis(20)),
    }
}

/// Interval between replayed queries.
fn query_interval(scale: Scale) -> Duration {
    match scale {
        Scale::Full => Duration::from_millis(50),
        Scale::Tiny => Duration::from_millis(10),
    }
}

/// Writes beside reads, in process, for half the window: an empty LSM
/// index (tiered compaction, the default) over the file; one writer thread
/// commits a batch through `IngestWriter::ingest_next_upto` on an open-loop
/// schedule while this thread pins a snapshot and runs the 4:1 mix on
/// another; then `LsmCoconut::wait_for_compactions`. Both schedules time
/// from their due times. Fills the `lsm.*`, `manifest.*`, `compaction.*`,
/// acknowledgment, write-amplification and generator-lateness metrics.
/// Every answer is checked against the oracle over its snapshot's covered
/// prefix.
fn replay(
    ctx: &Ctx,
    ds: &Dataset,
    dir: &Path,
    pool: &QueryPool,
    table: &DistTable,
    m: &mut Metrics,
) -> Result<(), Fail> {
    let (batch, write_every) = write_schedule(ctx.scale);
    let query_every = query_interval(ctx.scale);
    let n = ds.len();
    let lsm = replica(ds, dir, 0)?;
    let tracer = &ctx.tracer;
    let start = Instant::now();
    let end = start + ctx.window() / 2;
    let mut runs = Vec::new();
    let mut late = Vec::new();
    let mut answers = Vec::new();
    let (mut acks, writer_late) = std::thread::scope(|s| -> Result<_, Fail> {
        let lsm = &lsm;
        let writer = s.spawn(move || -> Result<(Vec<f64>, Vec<f64>), Fail> {
            let w = lsm.writer();
            let (mut acks, mut late) = (Vec::new(), Vec::new());
            for i in 0u64.. {
                let due = start + write_every.mul_f64(i as f64);
                let upto = (i + 1) * batch;
                if due >= end || upto > n {
                    break;
                }
                late.push(sleep_until(due));
                let (r, _) = tracer.span("IngestWriter::ingest_next_upto", None, Some(i), |_| {
                    w.ingest_next_upto(ds, upto, batch)
                });
                r.map_err(lib("replay ingest"))?;
                acks.push(due.elapsed().as_secs_f64() * 1e3);
            }
            Ok((acks, late))
        });
        for i in 0u64.. {
            let due = start + query_every.mul_f64(i as f64);
            if due >= end {
                break;
            }
            late.push(sleep_until(due));
            let (q, kind) = pick(ctx.seed, 0, i, pool.len(), KNN_EVERY);
            let query = &pool.queries[q];
            let (snap, _) = tracer.span("LsmCoconut::snapshot", None, Some(i), |_| lsm.snapshot());
            runs.push(snap.run_count() as f64);
            let hits = match kind {
                Kind::Exact => tracer
                    .span("Snapshot::exact_bounded", None, Some(i), |_| {
                        snap.exact_bounded(query, f64::INFINITY, Deadline::NONE)
                    })
                    .0
                    .map(|(a, _)| {
                        if a.pos == u64::MAX {
                            Vec::new()
                        } else {
                            vec![a]
                        }
                    }),
                Kind::Knn => tracer
                    .span("Snapshot::exact_knn_bounded", None, Some(i), |_| {
                        snap.exact_knn_bounded(query, K, f64::INFINITY, Deadline::NONE)
                    })
                    .0
                    .map(|(a, _)| a),
            };
            let hits: Vec<Answer> = hits.map_err(lib("replay query"))?;
            answers.push((q, kind, snap.covered_end(), hits));
        }
        writer
            .join()
            .map_err(|_| Fail::setup("replay writer panicked"))?
    })?;
    late.extend(writer_late);
    let (drain, _) = tracer.span("LsmCoconut::wait_for_compactions", None, None, |_| {
        lsm.wait_for_compactions()
    });
    drain.map_err(lib("drain compactions"))?;
    for (q, kind, covered, hits) in &answers {
        let k = if *kind == Kind::Knn { K } else { 1 };
        table
            .check(*q, *covered, k, hits)
            .map_err(|e| Fail::wrong(format!("replay: {e}")))?;
    }

    let ws = lsm.write_stats();
    let (commit_ms, commits) = span_median(tracer, "IngestWriter::ingest_next_upto", 1e3);
    let (snap_us, ns) = span_median(tracer, "LsmCoconut::snapshot", 1e6);
    let (drain_s, _) = span_median(tracer, "LsmCoconut::wait_for_compactions", 1.0);
    m.set("lsm.commit_ms", commit_ms, commits);
    m.set("manifest.commits", ws.ingest_commits as f64, 1);
    m.set(
        "compaction.bytes_rewritten",
        (ws.entries_rewritten * 24) as f64,
        1,
    );
    m.set("compaction.drain_s", drain_s, 1);
    m.set("lsm.snapshot_us", snap_us, ns);
    m.set("lsm.runs_per_query", mean(&runs), runs.len());
    let na = acks.len();
    m.set("ingest_ack_p50_ms", quantile(&mut acks, 0.5), na);
    m.set("ingest_ack_p90_ms", quantile(&mut acks, 0.9), na);
    m.set("write_amp", lsm.write_amplification(), 1);
    let nl = late.len();
    m.set("loadgen.late_p90_ms", quantile(&mut late, 0.9), nl);
    Ok(())
}

/// Sleep until `t`; returns how late the caller woke, in milliseconds.
fn sleep_until(t: Instant) -> f64 {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
    Instant::now().saturating_duration_since(t).as_secs_f64() * 1e3
}
