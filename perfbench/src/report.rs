//! Metric names, the result line, the run record and small statistics
//! helpers. There is no serde in the offline workspace, so JSON is written
//! by hand.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics: every untraced run of every workload prints all of
/// them. Must match `end_to_end` in `BENCHMARK.json` (the smoke test
/// checks it).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("build_s", "s"),
    ("index_bytes_per_raw_byte", "ratio"),
    ("qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics: every traced run prints all of them. A layer the
/// workload does not exercise reads 0. Must match `per_layer` in
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dataset.scan_s", "s"),
    ("summary.zkey_s", "s"),
    ("extsort.run_gen_s", "s"),
    ("tree.load_s", "s"),
    ("extsort.runs", "count"),
    ("extsort.merge_passes", "count"),
    ("io.bytes_read", "bytes"),
    ("io.bytes_written", "bytes"),
    ("io.seq_ops", "count"),
    ("io.rand_ops", "count"),
    ("build_modeled_io_s", "modeled_s"),
    ("tree.leaves", "count"),
    ("tree.avg_fill", "ratio"),
    ("protocol.parse_us", "us"),
    ("server.overhead_ms", "ms"),
    ("engine.execute_ms", "ms"),
    ("sims.approx_ms", "ms"),
    ("sims.mindist_ms", "ms"),
    ("sims.fetch_refine_ms", "ms"),
    ("sims.lower_bounds", "count"),
    ("sims.records_fetched", "count"),
    ("sims.pruned_frac", "ratio"),
    ("lsm.snapshot_us", "us"),
    ("lsm.runs_per_query", "count"),
    ("lsm.commit_ms", "ms"),
    ("manifest.commits", "count"),
    ("compaction.bytes_rewritten", "bytes"),
    ("compaction.drain_s", "s"),
    ("client.shard_rtt_ms", "ms"),
    ("coordinator.overhead_ms", "ms"),
    ("loadgen.late_p90_ms", "ms"),
    ("ingest_ack_p50_ms", "ms"),
    ("ingest_ack_p90_ms", "ms"),
    ("write_amp", "ratio"),
];

/// Counters that must repeat exactly from run to run on `build_full`.
pub const DETERMINISTIC: &[&str] = &[
    "extsort.runs",
    "extsort.merge_passes",
    "io.bytes_read",
    "io.bytes_written",
    "io.seq_ops",
    "io.rand_ops",
    "build_modeled_io_s",
    "tree.leaves",
    "tree.avg_fill",
];

/// One reported value with its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub samples: usize,
}

/// The metrics of one run, keyed by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<&'static str, Metric>);

impl Metrics {
    /// Record `value` (aggregated from `samples` observations) under `name`,
    /// which must be one of the declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.0.insert(name, Metric { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }

    /// JSON object `{name: {"value": v, "unit": u, "samples": n}}` over
    /// `names` (missing names are skipped).
    pub fn to_json(&self, names: &[(&str, &str)], with_samples: bool) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, unit) in names {
            let Some(m) = self.0.get(name) else { continue };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"",
                json_num(m.value)
            );
            if with_samples {
                let _ = write!(out, ", \"samples\": {}", m.samples);
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A finite number in full precision (shortest round-trip form).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `v` (sorts in place); NaN when empty.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank-interpolated quantile of `v` (sorts in place); NaN when
/// empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    v[lo] + (v[hi] - v[lo]) * frac
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Where the run happened and on what: recorded with every result.
pub struct Host {
    pub nproc: usize,
    pub simd: &'static str,
    pub force_scalar: bool,
    pub source_rev: String,
}

impl Host {
    pub fn detect(source_rev: &str) -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: coconut_series::simd::active().name(),
            force_scalar: coconut_series::simd::force_scalar(),
            source_rev: source_rev.to_string(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"simd\": {}, \"COCONUT_FORCE_SCALAR\": {}, \"source_rev\": {}}}",
            self.nproc,
            json_str(self.simd),
            self.force_scalar,
            json_str(&self.source_rev)
        )
    }
}

/// Merge `section` (`"untraced"` or `"traced"`) into the run record at
/// `path`, keeping the other section if an earlier run with the same
/// workload and seed wrote it, so traced and untraced numbers sit side by
/// side.
pub fn write_record(path: &Path, header: &str, section: &str, body: &str) -> std::io::Result<()> {
    let other = if section == "traced" {
        "untraced"
    } else {
        "traced"
    };
    let previous = std::fs::read_to_string(path).unwrap_or_default();
    let kept = previous
        .lines()
        .find_map(|l| l.strip_prefix(&format!("  \"{other}\": ")))
        .map(|l| l.trim_end_matches(',').to_string());
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"run\": {header},");
    if let Some(k) = kept {
        let _ = writeln!(out, "  \"{other}\": {k},");
    }
    let _ = writeln!(out, "  \"{section}\": {body}");
    out.push_str("}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn declared_names_are_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*n), "{n} declared twice");
            assert!(n.len() <= 64 && u.len() <= 16);
        }
        for d in DETERMINISTIC {
            assert!(unit_of(d).is_some());
        }
    }

    #[test]
    fn record_keeps_the_other_section() {
        let dir = std::env::temp_dir().join(format!("perfbench-rec-{}", std::process::id()));
        let path = dir.join("r.json");
        write_record(&path, "{}", "untraced", "{\"a\": 1}").unwrap();
        write_record(&path, "{}", "traced", "{\"b\": 2}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"untraced\": {\"a\": 1}"));
        assert!(text.contains("\"traced\": {\"b\": 2}"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
