//! In-process layer probes for the traced run. Each probe calls one
//! layer's public functions under a span named after the function, and
//! the per-layer metrics are read back from those spans.

use std::path::Path;
use std::sync::Arc;

use coconut_core::builder::{sorted_key_pos, sorted_key_series};
use coconut_core::sims::parallel_mindists;
use coconut_core::{BuildOptions, CoconutTree, CompactionPolicyKind, IndexConfig, LsmCoconut};
use coconut_series::dataset::Dataset;
use coconut_series::index::{Answer, QueryStats, SeriesIndex};
use coconut_series::Value;
use coconut_server::Engine;
use coconut_storage::{Deadline, DiskProfile, IoStats, RecordStream};
use coconut_summary::paa::paa;
use coconut_summary::sax::Summarizer;
use coconut_summary::{SaxConfig, ZKey};

use crate::oracle::QueryPool;
use crate::proc::{Conn, Reply};
use crate::report::{mean, median, Metrics};
use crate::trace::Tracer;
use crate::workloads::{lib, without_seq};
use crate::Fail;

/// Median duration of the spans named `name`, scaled by `scale`.
pub fn span_median(tracer: &Tracer, name: &str, scale: f64) -> (f64, usize) {
    let mut d = tracer.durations(name);
    let n = d.len();
    (median(&mut d) * scale, n)
}

/// The z-order key of every series in `range`, by position.
pub fn zkeys(
    dataset: &Dataset,
    range: std::ops::Range<u64>,
    sax: &SaxConfig,
) -> Result<Vec<ZKey>, Fail> {
    let mut summarizer = Summarizer::new(*sax);
    let mut keys = Vec::with_capacity((range.end - range.start) as usize);
    let mut scan = dataset.scan_range(range);
    while let Some((_, s)) = scan.next_series().map_err(lib("scan"))? {
        keys.push(summarizer.zkey(s));
    }
    Ok(keys)
}

/// The bottom-up build split into its layers: a raw scan, a scan that
/// also computes z-keys, the sort (`builder::sorted_key_series` or
/// `sorted_key_pos`, whose run generation includes its own scan and
/// z-keys), and the leaf loader (`CoconutTree::build_range_from_stream`)
/// fed the sorted stream. Sort plus load is exactly the library's
/// single-sorter build. Returns the tree and the z-keys by position.
pub fn build_layers(
    data: &Path,
    config: &IndexConfig,
    opts: &BuildOptions,
    dir: &Path,
    tracer: &Tracer,
) -> Result<(CoconutTree, Vec<ZKey>), Fail> {
    let probe_ds = crate::oracle::open_dataset(data)?;
    let n = probe_ds.len();
    let (scan, _) = tracer.span(
        "Dataset::scan_range",
        None,
        None,
        |_| -> Result<f64, Fail> {
            let mut acc = 0.0f64;
            let mut scan = probe_ds.scan_range(0..n);
            while let Some((_, s)) = scan.next_series().map_err(lib("scan"))? {
                acc += s[0] as f64;
            }
            Ok(acc)
        },
    );
    std::hint::black_box(scan?);
    let (keys, _) = tracer.span("Summarizer::zkey", None, None, |_| {
        zkeys(&probe_ds, 0..n, &config.sax)
    });
    let keys = keys?;

    // The build itself reads through a dataset handle of its own, so its
    // I/O counters hold the build and nothing else.
    let stats = Arc::new(IoStats::new());
    let ds = Dataset::open(data, Arc::clone(&stats)).map_err(lib("open"))?;
    let (tree, _) = tracer.span(
        "build",
        None,
        None,
        |build_id| -> Result<CoconutTree, Fail> {
            if opts.materialized {
                let (stream, _) =
                    tracer.span("builder::sorted_key_series", Some(build_id), None, |_| {
                        sorted_key_series(&ds, 0..n, &config.sax, opts.memory_bytes, dir, &stats)
                    });
                let mut stream = stream.map_err(lib("sort"))?;
                load(&ds, n, config, dir, opts, &mut stream, tracer, build_id)
            } else {
                let (stream, _) =
                    tracer.span("builder::sorted_key_pos", Some(build_id), None, |_| {
                        sorted_key_pos(&ds, 0..n, &config.sax, opts.memory_bytes, dir, &stats)
                    });
                let mut stream = stream.map_err(lib("sort"))?;
                load(&ds, n, config, dir, opts, &mut stream, tracer, build_id)
            }
        },
    );
    Ok((tree?, keys))
}

#[allow(clippy::too_many_arguments)]
fn load<R: coconut_core::records::SortedRecord>(
    ds: &Dataset,
    n: u64,
    config: &IndexConfig,
    dir: &Path,
    opts: &BuildOptions,
    stream: &mut dyn RecordStream<Item = R>,
    tracer: &Tracer,
    parent: u64,
) -> Result<CoconutTree, Fail> {
    let (tree, _) = tracer.span(
        "CoconutTree::build_range_from_stream",
        Some(parent),
        None,
        |_| CoconutTree::build_range_from_stream(ds, 0..n, config, dir, opts.clone(), stream),
    );
    tree.map_err(lib("load"))
}

/// Per-layer build metrics from the spans and the tree of the last
/// [`build_layers`] call.
pub fn build_metrics(
    tracer: &Tracer,
    tree: &CoconutTree,
    io: &coconut_storage::IoSnapshot,
    m: &mut Metrics,
) {
    let (scan, n) = span_median(tracer, "Dataset::scan_range", 1.0);
    let (zkey, _) = span_median(tracer, "Summarizer::zkey", 1.0);
    let sort_name = if tree.is_materialized() {
        "builder::sorted_key_series"
    } else {
        "builder::sorted_key_pos"
    };
    let (sort, _) = span_median(tracer, sort_name, 1.0);
    let (load, _) = span_median(tracer, "CoconutTree::build_range_from_stream", 1.0);
    m.set("dataset.scan_s", scan, n);
    m.set("summary.zkey_s", (zkey - scan).max(0.0), n);
    m.set("extsort.run_gen_s", (sort - zkey).max(0.0), n);
    m.set("tree.load_s", load, n);
    build_counters(tree, io, m);
}

/// The exact counters of a build: sort runs and passes, I/O, leaves.
pub fn build_counters(tree: &CoconutTree, io: &coconut_storage::IoSnapshot, m: &mut Metrics) {
    let report = tree.build_report();
    m.set("extsort.runs", report.sort.runs as f64, 1);
    m.set("extsort.merge_passes", report.sort.merge_passes as f64, 1);
    m.set("io.bytes_read", io.bytes_read as f64, 1);
    m.set("io.bytes_written", io.bytes_written as f64, 1);
    m.set("io.seq_ops", (io.seq_reads + io.seq_writes) as f64, 1);
    m.set("io.rand_ops", (io.rand_reads + io.rand_writes) as f64, 1);
    m.set(
        "build_modeled_io_s",
        io.modeled_seconds(&DiskProfile::default()),
        1,
    );
    m.set("tree.leaves", tree.leaf_count() as f64, 1);
    m.set("tree.avg_fill", tree.avg_fill(), 1);
}

/// The query path of one index, as the SIMS probe calls it.
pub trait QueryPath {
    /// Pin whatever the queries run against (a snapshot, or nothing).
    type Pinned;
    fn pin(&self) -> (Self::Pinned, usize);
    fn approximate(&self, p: &Self::Pinned, q: &[Value]) -> coconut_storage::Result<Answer>;
    fn exact(&self, p: &Self::Pinned, q: &[Value])
        -> coconut_storage::Result<(Answer, QueryStats)>;
    const PIN: &'static str;
    const APPROX: &'static str;
    const EXACT: &'static str;
}

/// A materialized tree's own query methods (build_full).
pub struct TreePath<'a>(pub &'a CoconutTree);

impl QueryPath for TreePath<'_> {
    type Pinned = ();
    fn pin(&self) -> ((), usize) {
        ((), 1)
    }
    fn approximate(&self, _: &(), q: &[Value]) -> coconut_storage::Result<Answer> {
        self.0.approximate_search(q, 1)
    }
    fn exact(&self, _: &(), q: &[Value]) -> coconut_storage::Result<(Answer, QueryStats)> {
        self.0.exact_search(q)
    }
    const PIN: &'static str = "none";
    const APPROX: &'static str = "CoconutTree::approximate_search";
    const EXACT: &'static str = "CoconutTree::exact_search";
}

/// An LSM snapshot's query methods (the server's path).
pub struct LsmPath<'a>(pub &'a LsmCoconut);

impl QueryPath for LsmPath<'_> {
    type Pinned = coconut_core::Snapshot;
    fn pin(&self) -> (coconut_core::Snapshot, usize) {
        let s = self.0.snapshot();
        let runs = s.run_count();
        (s, runs)
    }
    fn approximate(
        &self,
        s: &coconut_core::Snapshot,
        q: &[Value],
    ) -> coconut_storage::Result<Answer> {
        s.approximate(q)
    }
    fn exact(
        &self,
        s: &coconut_core::Snapshot,
        q: &[Value],
    ) -> coconut_storage::Result<(Answer, QueryStats)> {
        s.exact_bounded(q, f64::INFINITY, Deadline::NONE)
    }
    const PIN: &'static str = "LsmCoconut::snapshot";
    const APPROX: &'static str = "Snapshot::approximate";
    const EXACT: &'static str = "Snapshot::exact_bounded";
}

/// SIMS split into its stages for every pool query: approximate search
/// (the seed), the MINDIST scan over `keys` (`sims::parallel_mindists`,
/// with the thread count the index itself uses), and the full exact
/// search; fetch-and-refine is exact minus the other two. Fills the
/// `sims.*` metrics, plus `lsm.snapshot_us` and `lsm.runs_per_query` when
/// the path pins snapshots.
pub fn sims_probe<P: QueryPath>(
    path: &P,
    keys: &[ZKey],
    sax: &SaxConfig,
    pool: &QueryPool,
    tracer: &Tracer,
    m: &mut Metrics,
) -> Result<(), Fail> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut refine = Vec::new();
    let mut runs = Vec::new();
    let mut total = QueryStats::default();
    for (i, q) in pool.queries.iter().enumerate() {
        let req = Some(i as u64);
        let (r, _) = tracer.span("sims.query", None, req, |parent| -> Result<(), Fail> {
            let ((pinned, pinned_runs), _) = tracer.span(P::PIN, Some(parent), req, |_| path.pin());
            runs.push(pinned_runs as f64);
            let (a, da) = tracer.span(P::APPROX, Some(parent), req, |_| {
                path.approximate(&pinned, q)
            });
            a.map_err(lib("approximate search"))?;
            let query_paa = paa(q, sax.segments);
            let (lbs, dm) = tracer.span("sims::parallel_mindists", Some(parent), req, |_| {
                parallel_mindists(&query_paa, keys, sax, threads)
            });
            std::hint::black_box(lbs);
            let (e, de) = tracer.span(P::EXACT, Some(parent), req, |_| path.exact(&pinned, q));
            total.add(&e.map_err(lib("exact search"))?.1);
            refine.push((de.as_secs_f64() - da.as_secs_f64() - dm.as_secs_f64()) * 1e3);
            Ok(())
        });
        r?;
    }
    let n = pool.len();
    let (approx, _) = span_median(tracer, P::APPROX, 1e3);
    let (mindist, _) = span_median(tracer, "sims::parallel_mindists", 1e3);
    m.set("sims.approx_ms", approx, n);
    m.set("sims.mindist_ms", mindist, n);
    m.set("sims.fetch_refine_ms", median(&mut refine).max(0.0), n);
    m.set("sims.lower_bounds", total.lower_bounds as f64 / n as f64, n);
    m.set(
        "sims.records_fetched",
        total.records_fetched as f64 / n as f64,
        n,
    );
    m.set(
        "sims.pruned_frac",
        total.pruned as f64 / (total.lower_bounds.max(1)) as f64,
        n,
    );
    // The replay under churn may already have measured the snapshot path;
    // its figures are the meaningful ones there.
    if P::PIN != "none" && m.get("lsm.snapshot_us").is_none() {
        let (pin, _) = span_median(tracer, P::PIN, 1e6);
        m.set("lsm.snapshot_us", pin, n);
        m.set("lsm.runs_per_query", mean(&runs), n);
    }
    Ok(())
}

/// Protocol parse, in-process engine execution, and the same requests over
/// one socket with no other load: `protocol.parse_us`, `engine.execute_ms`
/// and `server.overhead_ms` (socket latency minus engine time, per
/// request). `lines` must be requests the `engine` and the server behind
/// `conn` answer identically.
pub fn engine_probe(
    engine: &Engine,
    conn: &mut Conn,
    lines: &[String],
    tracer: &Tracer,
    m: &mut Metrics,
) -> Result<(), Fail> {
    let mut overhead = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let req = Some(i as u64);
        for _ in 0..5 {
            let (parsed, _) = tracer.span("protocol::parse", None, req, |_| {
                coconut_server::parse(line)
            });
            parsed.map_err(|e| Fail::setup(format!("parse: {e}")))?;
        }
        let (out, de) = tracer.span("Engine::execute_line", None, req, |_| {
            engine.execute_line(line)
        });
        let (reply, ds) = tracer.span("socket.round_trip", None, req, |_| conn.request(line));
        match reply {
            Reply::Ok(r) if without_seq(&r) == without_seq(&out.reply) => {}
            Reply::Ok(r) | Reply::Err(r) | Reply::Lost(r) => {
                return Err(Fail::wrong(format!(
                    "engine probe: server replied {r:?}, in-process engine {:?}",
                    out.reply
                )))
            }
        }
        overhead.push((ds.as_secs_f64() - de.as_secs_f64()) * 1e3);
    }
    let n = lines.len();
    let (parse_us, pn) = span_median(tracer, "protocol::parse", 1e6);
    let (exec_ms, _) = span_median(tracer, "Engine::execute_line", 1e3);
    m.set("protocol.parse_us", parse_us, pn);
    m.set("engine.execute_ms", exec_ms, n);
    m.set("server.overhead_ms", median(&mut overhead), n);
    Ok(())
}

/// Index configuration every workload uses (the server's defaults).
pub fn index_config(series_len: usize) -> IndexConfig {
    IndexConfig {
        sax: SaxConfig::default_for_len(series_len),
        leaf_capacity: 2000,
        fill_factor: 1.0,
        internal_fanout: 64,
        split_policy: coconut_core::SplitPolicyKind::Fixed,
    }
}

/// An in-process index as `coconut serve` keeps it (same configuration,
/// tiered compaction), in `dir`, covering the first `upto` series of `ds`.
pub fn replica(ds: &Dataset, dir: &Path, upto: u64) -> Result<LsmCoconut, Fail> {
    let lsm = LsmCoconut::create(
        index_config(ds.series_len()),
        serve_opts(),
        dir,
        0,
        CompactionPolicyKind::default(),
    )
    .map_err(lib("create in-process index"))?;
    if upto > 0 {
        lsm.ingest_upto(ds, upto)
            .map_err(lib("in-process ingest"))?;
    }
    Ok(lsm)
}

/// Build options matching `coconut serve`'s defaults (256 MiB sort
/// budget, one sorter, every core for queries).
pub fn serve_opts() -> BuildOptions {
    BuildOptions {
        memory_bytes: 256 << 20,
        materialized: false,
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        shards: 1,
    }
}
