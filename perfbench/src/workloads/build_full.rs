//! `build_full`: bulk-load a materialized Coconut-Tree-Full over a
//! random-walk file far larger than the external sort's memory budget,
//! through the library's single-sorter path (`shards = 1`).
//!
//! The single sorter is pinned on purpose: with two sorters the split
//! between sequential and random I/O operations depends on thread timing,
//! so the modeled I/O time would not repeat. Here every I/O counter must
//! be identical across the builds of a run; a difference fails the run.
//!
//! After the builds, the last tree is verified (`CoconutTree::verify`) and
//! answers a pool of approximate 1-NN queries in process, one at a time;
//! those give the workload its `qps` and latency figures. Exact answers
//! for a sample of queries are checked against a brute-force scan.

use std::sync::Arc;
use std::time::Instant;

use coconut_core::{BuildOptions, CoconutTree};
use coconut_series::dataset::Dataset;
use coconut_series::index::SeriesIndex;
use coconut_storage::IoStats;

use super::{lib, set_median};
use crate::oracle::{generate_dataset, open_dataset, DistTable, QueryPool};
use crate::probes::{
    build_counters, build_layers, build_metrics, index_config, sims_probe, zkeys, TreePath,
};
use crate::proc::{clear_dir, peak_rss_mb, reset_own_peak_rss, timed, WorkDir};
use crate::report::Metrics;
use crate::{Ctx, Fail, Outcome};

/// Builds per run at least, however short the window.
const MIN_BUILDS: usize = 2;

pub fn run(ctx: &Ctx) -> Result<Outcome, Fail> {
    let (n, len, budget) = (
        ctx.scale.build_series(),
        ctx.scale.series_len(),
        ctx.scale.build_budget(),
    );
    let work = WorkDir::create(&ctx.work, "build_full")?;
    let data = work.join("data.ds");
    let mut out = Outcome {
        inputs: format!(
            "{{\"series\": {n}, \"series_len\": {len}, \"raw_mib\": {:.1}, \"sort_budget_mib\": {}, \
             \"materialized\": true, \"shards\": 1, \"approximate_queries\": {}, \"exact_checked\": {}}}",
            (n * len as u64 * 4) as f64 / (1 << 20) as f64,
            budget as f64 / (1 << 20) as f64,
            ctx.scale.serve_pool() / 4,
            ctx.scale.build_queries()
        ),
        ..Outcome::default()
    };

    // Set-up: write the input file.
    let mut setup_s = Vec::new();
    for _ in 0..if ctx.trace { 1 } else { ctx.scale.setups(true) } {
        let _ = std::fs::remove_file(&data);
        let (r, t) = timed(|| generate_dataset(&data, ctx.seed, n, len));
        r?;
        setup_s.push(t);
    }
    set_median(&mut out.e2e, "setup_s", &mut setup_s);

    let config = index_config(len);
    let opts = BuildOptions {
        memory_bytes: budget,
        materialized: true,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        shards: 1,
    };
    let raw_bytes = open_dataset(&data)?.payload_bytes();

    // Builds: as many as fit in the window, at least MIN_BUILDS.
    let mut build_s = Vec::new();
    let mut rss = Vec::new();
    let mut first_io = None;
    let mut last: Option<(CoconutTree, std::path::PathBuf)> = None;
    let mut keys = Vec::new();
    let window = Instant::now();
    while build_s.len() < MIN_BUILDS || window.elapsed() < ctx.window() {
        if let Some((tree, dir)) = last.take() {
            drop(tree);
            clear_dir(&dir)?;
        }
        let dir = work.join(&format!("idx{}", build_s.len()));
        std::fs::create_dir_all(&dir).map_err(lib("mkdir"))?;
        reset_own_peak_rss();
        let (tree, io, secs) = if ctx.trace {
            let (r, _) = timed(|| build_layers(&data, &config, &opts, &dir, &ctx.tracer));
            let (tree, k) = r?;
            keys = k;
            let secs = *ctx.tracer.durations("build").last().unwrap_or(&0.0);
            let io = tree.io_stats().snapshot();
            (tree, io, secs)
        } else {
            let stats = Arc::new(IoStats::new());
            let ds = Dataset::open(&data, Arc::clone(&stats)).map_err(lib("open"))?;
            let (tree, secs) = timed(|| CoconutTree::build(&ds, &config, &dir, opts.clone()));
            let tree = tree.map_err(lib("build"))?;
            (tree, stats.snapshot(), secs)
        };
        rss.push(peak_rss_mb("/proc/self/status")?);
        build_s.push(secs);
        out.attempted += 1;
        match &first_io {
            None => first_io = Some(io),
            Some(f) if *f == io => {}
            Some(f) => {
                return Err(Fail::wrong(format!(
                    "build I/O counters differ between builds of one run: {f:?} vs {io:?}"
                )))
            }
        }
        last = Some((tree, dir));
    }
    let Some((tree, _dir)) = last else {
        return Err(Fail::setup("no build ran"));
    };
    let io = first_io.unwrap_or_default();
    set_median(&mut out.e2e, "build_s", &mut build_s);
    set_median(&mut out.e2e, "rss_mb", &mut rss);
    out.e2e.set(
        "index_bytes_per_raw_byte",
        tree.disk_bytes() as f64 / raw_bytes as f64,
        1,
    );

    // Checks outside the timed builds: leaf CRCs, then exact answers.
    let scrub = tree
        .verify()
        .map_err(|e| Fail::wrong(format!("verify: {e}")))?;
    if scrub.checked != tree.leaf_count() {
        return Err(Fail::wrong(format!(
            "verify checked {} of {} leaves",
            scrub.checked,
            tree.leaf_count()
        )));
    }
    // Queries: approximate 1-NN (one leaf read, what the materialized
    // tree answers fastest) over the pool, timed one at a time after one
    // untimed warm-up; each answer must be a real series at its reported
    // distance, no nearer than the true nearest neighbour. A sample of
    // exact searches is checked against the brute-force answer.
    let ds = open_dataset(&data)?;
    let pool = QueryPool::new(ctx.seed, ctx.scale.serve_pool() / 4, len);
    let checked = QueryPool::new(!ctx.seed, ctx.scale.build_queries(), len);
    let mut table = DistTable::compute(&ds, &checked, 2)?;
    if ctx.corrupt_oracle {
        table.corrupt();
    }
    tree.approximate_search(&checked.queries[0], 1)
        .map_err(lib("approximate search"))?;
    let mut lat = Vec::new();
    let mut wrong = Vec::new();
    for q in &pool.queries {
        let (r, secs) = timed(|| tree.approximate_search(q, 1));
        out.attempted += 1;
        let a = r.map_err(lib("approximate search"))?;
        lat.push(secs * 1e3);
        let series = ds.get(a.pos).map_err(lib("read series"))?;
        let true_dist = coconut_series::distance::euclidean(q, &series);
        if (true_dist - a.dist).abs() > 1e-9 * true_dist.max(1.0) {
            wrong.push(format!(
                "approximate answer {}:{} is {true_dist} away",
                a.pos, a.dist
            ));
        }
    }
    for (qi, q) in checked.queries.iter().enumerate() {
        out.attempted += 1;
        let (a, _) = tree.exact_search(q).map_err(lib("exact search"))?;
        if let Err(e) = table.check(qi, n, 1, &[a]) {
            wrong.push(e);
        }
        let approx = tree
            .approximate_search(q, 1)
            .map_err(lib("approximate search"))?;
        if approx.dist < a.dist {
            wrong.push(format!(
                "approximate {} beats exact {}",
                approx.dist, a.dist
            ));
        }
    }
    let total_s: f64 = lat.iter().sum::<f64>() / 1e3;
    let nq = lat.len();
    out.e2e.set("qps", nq as f64 / total_s, nq);
    out.e2e
        .set("query_p50_ms", crate::report::quantile(&mut lat, 0.5), nq);
    out.e2e
        .set("query_p90_ms", crate::report::quantile(&mut lat, 0.9), nq);
    out.e2e.set("ok_frac", 1.0, out.attempted as usize);
    out.wrong = wrong;

    if ctx.trace {
        build_metrics(&ctx.tracer, &tree, &io, &mut out.layers);
        if keys.is_empty() {
            keys = zkeys(&ds, 0..n, &config.sax)?;
        }
        sims_probe(
            &TreePath(&tree),
            &keys,
            &config.sax,
            &checked,
            &ctx.tracer,
            &mut out.layers,
        )?;
    } else {
        // The exact counters are cheap: record them untraced as well.
        let mut counters = Metrics::default();
        build_counters(&tree, &io, &mut counters);
        out.layers = counters;
    }
    Ok(out)
}
