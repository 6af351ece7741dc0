//! `fabric_knn`: a coordinator (`coconut serve --coordinator`) over two
//! shard workers (`coconut serve --shard`), each a separate process,
//! driven by two closed-loop clients sending `KNN k=10` to the
//! coordinator. Each shard's slice is small, below the parallel-MINDIST
//! cutover, so socket round trips, the coordinator's serial walk over the
//! shards and its one connection per shard dominate.
//!
//! The file is written once. Each set-up starts the three processes and
//! waits until the coordinator answers `PING` (`setup_s`); one `INGEST` to
//! the coordinator then builds both slices (`build_s`). Every reply must
//! be bit-identical to the same query on a single-node index over the
//! whole file.

use std::path::Path;

use coconut_core::backend::partition;
use coconut_series::index::Answer;
use coconut_server::Engine;
use coconut_storage::Deadline;

use super::{bytes_ratio, lib, query_metrics, Checked, SetupTimes};
use crate::loadgen::closed_loop;
use crate::oracle::{generate_dataset, open_dataset, parse_reply, Kind, QueryPool, K};
use crate::probes::{engine_probe, index_config, replica, serve_opts, sims_probe, zkeys, LsmPath};
use crate::proc::{clear_dir, path_arg, timed, Conn, ServerProc, WorkDir};
use crate::report::median;
use crate::{Ctx, Fail, Outcome};

const CLIENTS: usize = 2;
const SHARDS: usize = 2;

/// The fabric's processes: shard workers first, then the coordinator.
struct Fabric {
    shards: Vec<ServerProc>,
    coordinator: ServerProc,
}

/// Start the shard workers and the coordinator on empty indexes and wait
/// until the coordinator answers.
fn start(ctx: &Ctx, data: &Path, work: &WorkDir) -> Result<Fabric, Fail> {
    let shards = (0..SHARDS)
        .map(|i| {
            let dir = work.join(&format!("shard{i}"));
            clear_dir(&dir)?;
            let args = [
                "--shard",
                "--data",
                &path_arg(data),
                "--index-dir",
                &path_arg(&dir),
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "4",
            ];
            ServerProc::spawn(&ctx.coconut, &args.map(String::from))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let addrs: Vec<&str> = shards.iter().map(|s| s.addr.as_str()).collect();
    let args = [
        "--coordinator",
        "--data",
        &path_arg(data),
        "--shards",
        &addrs.join(","),
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "4",
    ];
    let coordinator = ServerProc::spawn(&ctx.coconut, &args.map(String::from))?;
    Conn::connect(&coordinator.addr)?.must("PING")?;
    Ok(Fabric {
        shards,
        coordinator,
    })
}

/// Start the fabric on empty indexes and index the whole file. Returns the
/// fabric, its start-up time and the `INGEST` latency.
fn set_up(ctx: &Ctx, data: &Path, work: &WorkDir, n: u64) -> Result<(Fabric, f64, f64), Fail> {
    let (fabric, setup_s) = timed(|| start(ctx, data, work));
    let fabric = fabric?;
    let build_s = ingest_all(&fabric, n)?;
    Ok((fabric, setup_s, build_s))
}

/// Index the whole file with one `INGEST` to the coordinator; returns its
/// latency.
fn ingest_all(fabric: &Fabric, n: u64) -> Result<f64, Fail> {
    let mut conn = Conn::connect(&fabric.coordinator.addr)?;
    let (reply, secs) = timed(|| conn.must("INGEST"));
    let reply = reply?;
    if !reply.contains(&format!("covered={n} ")) {
        return Err(Fail::wrong(format!("coordinator INGEST replied {reply:?}")));
    }
    Ok(secs)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, Fail> {
    let (n, len) = (ctx.scale.fabric_series(), ctx.scale.series_len());
    let work = WorkDir::create(&ctx.work, "fabric_knn")?;
    let data = work.join("data.ds");
    let pool = QueryPool::new(ctx.seed, ctx.scale.fabric_pool(), len);
    let mut out = Outcome {
        inputs: format!(
            "{{\"series\": {n}, \"series_len\": {len}, \"shards\": {SHARDS}, \"query_pool\": {}, \
             \"clients\": {CLIENTS}, \"mix\": \"KNN k=10\", \"loop\": \"closed\", \"warmup_s\": {}}}",
            pool.len(),
            ctx.scale.warmup().as_secs_f64()
        ),
        ..Outcome::default()
    };

    generate_dataset(&data, ctx.seed, n, len)?;
    let mut times = SetupTimes::default();
    let mut fabric = None;
    for _ in 0..SetupTimes::before_window(ctx) {
        drop(fabric.take());
        let (f, setup_s, build_s) = set_up(ctx, &data, &work, n)?;
        times.push(setup_s, build_s);
        fabric = Some(f);
    }
    let fabric = fabric.ok_or_else(|| Fail::setup("no set-up ran"))?;

    // The oracle: the same queries on one whole-file index in process.
    let ds = open_dataset(&data)?;
    let single = replica(&ds, &work.join("single"), n)?;
    let snap = single.snapshot();
    let mut want: Vec<Vec<Answer>> = pool
        .queries
        .iter()
        .map(|q| snap.exact_knn(q, K, Deadline::NONE).map(|(a, _)| a))
        .collect::<Result<_, _>>()
        .map_err(lib("single-node kNN"))?;
    drop(snap);
    if ctx.corrupt_oracle {
        if let Some(a) = want[0].first_mut() {
            a.dist += 1.0;
        }
    }

    let samples = closed_loop(
        &fabric.coordinator.addr,
        CLIENTS,
        ctx.seed,
        &pool,
        1,
        ctx.scale.warmup(),
        ctx.window(),
        &ctx.tracer,
    )?;
    let mut rss = fabric.coordinator.peak_rss_mb()?;
    for s in &fabric.shards {
        rss += s.peak_rss_mb()?;
    }
    out.e2e.set("rss_mb", rss, 1 + SHARDS);
    let shard_dirs: Vec<_> = (0..SHARDS)
        .map(|i| work.join(&format!("shard{i}")))
        .collect();
    let dirs: Vec<&Path> = shard_dirs.iter().map(|d| d.as_path()).collect();
    out.e2e.set(
        "index_bytes_per_raw_byte",
        bytes_ratio(&dirs, ds.payload_bytes()),
        1,
    );
    query_metrics(&samples, &mut out.e2e);
    let checked = Checked::run(&samples, |s, r| {
        let got = parse_reply(Kind::Knn, r)?;
        let same = got.covered == n
            && got.hits.len() == want[s.q].len()
            && got
                .hits
                .iter()
                .zip(&want[s.q])
                .all(|(g, w)| g.pos == w.pos && g.dist.to_bits() == w.dist.to_bits());
        if same {
            Ok(())
        } else {
            Err(format!(
                "query {}: coordinator {r:?} vs single node {:?}",
                s.q, want[s.q]
            ))
        }
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
        let m = &mut out.layers;
        let probe = pool.head(ctx.scale.probe_queries());
        let lines: Vec<String> = (0..probe.len()).map(|q| probe.knn_line(q)).collect();
        // Round trips with no other load: the coordinator, then each shard
        // asked directly.
        let mut coord = Conn::connect(&fabric.coordinator.addr)?;
        let mut shard_conns = fabric
            .shards
            .iter()
            .map(|s| Conn::connect(&s.addr))
            .collect::<Result<Vec<_>, _>>()?;
        let mut slowest = Vec::new();
        let mut overhead = Vec::new();
        for (i, l) in lines.iter().enumerate() {
            let req = Some(i as u64);
            let (r, dc) = ctx
                .tracer
                .span("coordinator.round_trip", None, req, |_| coord.must(l));
            r?;
            let mut worst = 0.0f64;
            for c in shard_conns.iter_mut() {
                let (r, ds) = ctx
                    .tracer
                    .span("RemoteShard.round_trip", None, req, |_| c.must(l));
                r?;
                worst = worst.max(ds.as_secs_f64());
            }
            slowest.push(worst * 1e3);
            overhead.push((dc.as_secs_f64() - worst) * 1e3);
        }
        m.set("client.shard_rtt_ms", median(&mut slowest), lines.len());
        m.set(
            "coordinator.overhead_ms",
            median(&mut overhead),
            lines.len(),
        );

        // Shard 0 replicated in process: the same slice through the same
        // BUILD verb, so its engine time sits beside its socket time.
        let slice = partition(n, SHARDS)[0].clone();
        let engine = Engine::new_shard(
            ds.clone(),
            work.join("shard0-replica"),
            index_config(len),
            serve_opts(),
            None,
            None,
        );
        let built = engine.execute_line(&format!("BUILD start={} end={}", slice.start, slice.end));
        if !built.reply.starts_with("OK") {
            return Err(Fail::setup(format!("replica BUILD: {}", built.reply)));
        }
        engine_probe(&engine, &mut shard_conns[0], &lines, &ctx.tracer, m)?;
        let keys = zkeys(&ds, 0..n, &index_config(len).sax)?;
        sims_probe(
            &LsmPath(&single),
            &keys,
            &index_config(len).sax,
            &probe,
            &ctx.tracer,
            m,
        )?;
    }
    drop(fabric);
    for _ in 0..SetupTimes::after_window(ctx) {
        let (f, setup_s, build_s) = set_up(ctx, &data, &work, n)?;
        drop(f);
        times.push(setup_s, build_s);
    }
    times.report(&mut out.e2e);
    Ok(out)
}
