//! Leaf-occupancy comparison: fixed binary vs adaptive node splitting.
//!
//! Not a figure of the paper — it quantifies the workspace's Dumpy-style
//! extension of the Coconut-Trie bulk loader (`coconut_core::split`): the
//! adaptive policy widens a node's fanout only where measured child
//! occupancy earns it and packs undersized siblings together, so clustered
//! (skewed) key distributions fill leaves instead of fragmenting them.
//!
//! For a uniform random-walk dataset and a skewed clustered one, the
//! experiment builds one trie per policy and reports the leaf-fill
//! histogram, mean and 10th-percentile fill, leaf and oversized-leaf
//! counts, and the leaf-depth distribution. Before reporting anything it
//! **hard-fails** unless every exact, k-NN, and range answer is
//! bit-identical across policies and exact answers match a brute-force
//! scan — the refactor's no-semantic-change contract.
//!
//! `results/BENCH_occupancy.json` is the committed baseline; when a
//! previous baseline exists, the run also fails if the skewed dataset's
//! adaptive p10 fill regresses by more than [`P10_TOLERANCE`].

use std::fmt::Write as _;
use std::sync::Arc;

use coconut_core::{BuildOptions, CoconutTrie, IndexConfig, SplitPolicyKind};
use coconut_series::dataset::{Dataset, DatasetWriter};
use coconut_series::distance::{euclidean, znormalize};
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::index::SeriesIndex;
use coconut_series::Value;
use coconut_storage::{Deadline, Error, IoStats, Result};
use coconut_summary::SaxConfig;

use crate::data::{prepare, DataKind};
use crate::experiments::Env;
use crate::harness::Table;

/// Clusters in the skewed dataset (each becomes a dense key neighborhood).
const CLUSTERS: usize = 6;

/// Relative noise scale around each cluster base shape: wide enough that
/// keys stay distinct (clustered prefixes, not duplicate keys), narrow
/// enough that binary splitting fragments the cluster neighborhoods.
const NOISE: f64 = 0.12;

/// Allowed drop in the skewed dataset's adaptive p10 fill vs the committed
/// baseline before the run fails (absolute fill fraction).
pub const P10_TOLERANCE: f64 = 0.05;

/// Occupancy stats of one built trie.
struct Occupancy {
    leaves: usize,
    avg_fill: f64,
    p10_fill: f64,
    oversized: u64,
    depth_avg: f64,
    depth_max: u32,
    /// Ten counts over fill deciles `[0,0.1) .. [0.9,1.0]`; over-capacity
    /// leaves clamp into the last bucket.
    histogram: [u64; 10],
}

fn occupancy_of(trie: &CoconutTrie) -> Occupancy {
    let cap = trie.config().leaf_capacity.max(1) as f64;
    let mut fills: Vec<f64> = trie
        .leaf_entry_counts()
        .iter()
        .map(|&n| n as f64 / cap)
        .collect();
    fills.sort_by(|a, b| a.total_cmp(b));
    let leaves = fills.len();
    let avg_fill = if leaves == 0 {
        0.0
    } else {
        fills.iter().sum::<f64>() / leaves as f64
    };
    let p10_fill = if leaves == 0 { 0.0 } else { fills[leaves / 10] };
    let mut histogram = [0u64; 10];
    for &f in &fills {
        histogram[((f * 10.0) as usize).min(9)] += 1;
    }
    let depths = trie.leaf_depths();
    let depth_max = depths.iter().copied().max().unwrap_or(0);
    let depth_avg = if depths.is_empty() {
        0.0
    } else {
        depths.iter().map(|&d| d as f64).sum::<f64>() / depths.len() as f64
    };
    Occupancy {
        leaves,
        avg_fill,
        p10_fill,
        oversized: trie.oversized_leaf_count(),
        depth_avg,
        depth_max,
        histogram,
    }
}

/// Write (or reuse) the clustered dataset: `CLUSTERS` random-walk base
/// shapes, each series a noisy copy of one of them.
fn skewed_dataset(env: &Env, stats: &Arc<IoStats>) -> Result<Dataset> {
    let len = env.scale.series_len;
    let path = env
        .work_dir
        .join(format!("clustered-{}x{len}-13.ds", env.scale.n));
    if !path.exists() {
        let bases: Vec<Vec<Value>> = (0..CLUSTERS)
            .map(|c| {
                let mut b = RandomWalkGen::new(13 * 31 + c as u64).generate(len);
                znormalize(&mut b);
                b
            })
            .collect();
        let mut state = 13u64 | 1;
        let mut w = DatasetWriter::create(&path, len, true, Arc::clone(stats))?;
        for i in 0..env.scale.n {
            let base = &bases[i as usize % CLUSTERS];
            let mut s: Vec<Value> = base
                .iter()
                .map(|&v| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let u = ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * NOISE;
                    v + u as Value
                })
                .collect();
            znormalize(&mut s);
            w.append(&s)?;
        }
        w.finish()?;
    }
    Dataset::open(&path, Arc::clone(stats))
}

fn brute_force_nn(ds: &Dataset, q: &[Value]) -> Result<u64> {
    let mut best = (0u64, f64::INFINITY);
    let mut scan = ds.scan();
    while let Some((pos, s)) = scan.next_series()? {
        let d = euclidean(q, s);
        if d < best.1 {
            best = (pos, d);
        }
    }
    Ok(best.0)
}

/// Every query answer from the adaptive trie must be bit-identical to the
/// fixed trie's, and exact answers must match a brute-force scan.
fn check_answers(
    dataset_name: &str,
    ds: &Dataset,
    fixed: &CoconutTrie,
    adaptive: &CoconutTrie,
    queries: &[Vec<Value>],
) -> Result<()> {
    for (qi, q) in queries.iter().enumerate() {
        let (af, _) = fixed.exact(q)?;
        let (aa, _) = adaptive.exact(q)?;
        if aa.pos != af.pos || aa.dist.to_bits() != af.dist.to_bits() {
            return Err(Error::corrupt(format!(
                "{dataset_name} query {qi}: exact answer diverged across \
                 policies (fixed pos {} vs adaptive pos {})",
                af.pos, aa.pos
            )));
        }
        if aa.pos != brute_force_nn(ds, q)? {
            return Err(Error::corrupt(format!(
                "{dataset_name} query {qi}: exact answer diverged from the \
                 brute-force oracle"
            )));
        }
        let (kf, _) = fixed.exact_knn(q, 5, None, f64::INFINITY, Deadline::NONE)?;
        let (ka, _) = adaptive.exact_knn(q, 5, None, f64::INFINITY, Deadline::NONE)?;
        let same_knn = kf.len() == ka.len()
            && kf
                .iter()
                .zip(ka.iter())
                .all(|(x, y)| x.pos == y.pos && x.dist.to_bits() == y.dist.to_bits());
        if !same_knn {
            return Err(Error::corrupt(format!(
                "{dataset_name} query {qi}: 5-NN answers diverged across policies"
            )));
        }
        let eps = af.dist * 1.5;
        let (rf, _) = fixed.exact_range(q, eps, Deadline::NONE)?;
        let (ra, _) = adaptive.exact_range(q, eps, Deadline::NONE)?;
        let mut pf: Vec<u64> = rf.iter().map(|a| a.pos).collect();
        let mut pa: Vec<u64> = ra.iter().map(|a| a.pos).collect();
        pf.sort_unstable();
        pa.sort_unstable();
        if pf != pa {
            return Err(Error::corrupt(format!(
                "{dataset_name} query {qi}: range hit sets diverged across \
                 policies ({} vs {} hits)",
                pf.len(),
                pa.len()
            )));
        }
    }
    Ok(())
}

/// Pull the previous `skewed_adaptive_p10` out of a committed baseline (a
/// hand-rolled parse: the workspace has no JSON reader).
fn baseline_p10(json: &str) -> Option<f64> {
    let tail = json.split("\"skewed_adaptive_p10\":").nth(1)?;
    tail.trim_start()
        .split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .next()?
        .parse()
        .ok()
}

/// Run the experiment: build fixed and adaptive tries over a uniform and a
/// skewed dataset, verify answer identity, report occupancy, and gate on
/// the committed baseline.
pub fn run(env: &Env) -> Result<()> {
    let mut table = Table::new(
        "occupancy",
        "leaf occupancy: fixed binary vs adaptive splitting",
        &[
            "dataset",
            "policy",
            "leaves",
            "avg_fill",
            "p10_fill",
            "oversized",
            "depth_avg",
            "depth_max",
            "identical",
        ],
    );
    // Read the committed baseline before this run overwrites it.
    let baseline_path = env.results_dir.join("BENCH_occupancy.json");
    let prior_p10 = std::fs::read_to_string(&baseline_path)
        .ok()
        .as_deref()
        .and_then(baseline_p10);

    let w = prepare(
        &env.work_dir,
        DataKind::RandomWalk,
        env.scale.n,
        env.scale.series_len,
        env.scale.queries,
        7,
    )?;
    let skewed = skewed_dataset(env, &w.stats)?;
    let config = |policy| IndexConfig {
        sax: SaxConfig::default_for_len(env.scale.series_len),
        leaf_capacity: env.scale.leaf_capacity,
        fill_factor: 1.0,
        internal_fanout: 64,
        split_policy: policy,
    };

    let mut json_sections = String::new();
    let mut skewed_p10 = (0.0f64, 0.0f64); // (fixed, adaptive)
    for (dataset_name, ds) in [("uniform", &w.dataset), ("skewed", &skewed)] {
        let build_dir = coconut_storage::TempDir::new("occupancy-build")?;
        let opts = BuildOptions {
            memory_bytes: (ds.payload_bytes() / 2).max(1 << 20),
            materialized: false,
            threads: env.scale.threads,
            shards: 1,
        };
        let fixed = CoconutTrie::build(
            ds,
            &config(SplitPolicyKind::Fixed),
            build_dir.path(),
            opts.clone(),
        )?;
        let adaptive = CoconutTrie::build(
            ds,
            &config(SplitPolicyKind::Adaptive),
            build_dir.path(),
            opts,
        )?;
        check_answers(dataset_name, ds, &fixed, &adaptive, &w.queries)?;
        for (policy, trie) in [("fixed", &fixed), ("adaptive", &adaptive)] {
            let occ = occupancy_of(trie);
            if dataset_name == "skewed" {
                if policy == "fixed" {
                    skewed_p10.0 = occ.p10_fill;
                } else {
                    skewed_p10.1 = occ.p10_fill;
                }
            }
            table.push_row(vec![
                dataset_name.to_string(),
                policy.to_string(),
                occ.leaves.to_string(),
                format!("{:.3}", occ.avg_fill),
                format!("{:.3}", occ.p10_fill),
                occ.oversized.to_string(),
                format!("{:.1}", occ.depth_avg),
                occ.depth_max.to_string(),
                "yes".to_string(),
            ]);
            let buckets: Vec<String> = occ.histogram.iter().map(|c| c.to_string()).collect();
            let _ = writeln!(
                json_sections,
                "    {{\"dataset\": \"{dataset_name}\", \"policy\": \"{policy}\", \
                 \"leaves\": {}, \"avg_fill\": {:.4}, \"p10_fill\": {:.4}, \
                 \"oversized_leaves\": {}, \"depth_avg\": {:.2}, \"depth_max\": {}, \
                 \"fill_histogram\": [{}]}},",
                occ.leaves,
                occ.avg_fill,
                occ.p10_fill,
                occ.oversized,
                occ.depth_avg,
                occ.depth_max,
                buckets.join(", ")
            );
        }
    }

    // The refactor's payoff must actually materialize: on clustered keys
    // the adaptive trie may not fill leaves worse than binary splitting.
    if skewed_p10.1 < skewed_p10.0 {
        return Err(Error::corrupt(format!(
            "adaptive p10 fill {:.3} fell below fixed {:.3} on the skewed \
             dataset",
            skewed_p10.1, skewed_p10.0
        )));
    }
    // Regression gate vs the committed baseline (CI runs from the repo
    // root, so the committed results/BENCH_occupancy.json is the baseline).
    if let Some(prior) = prior_p10 {
        if skewed_p10.1 < prior - P10_TOLERANCE {
            return Err(Error::corrupt(format!(
                "skewed adaptive p10 fill regressed: {:.3} vs committed \
                 baseline {:.3} (tolerance {P10_TOLERANCE})",
                skewed_p10.1, prior
            )));
        }
    }

    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"occupancy\",\n");
    let _ = writeln!(json, "  \"series\": {},", env.scale.n);
    let _ = writeln!(json, "  \"series_len\": {},", env.scale.series_len);
    let _ = writeln!(json, "  \"leaf_capacity\": {},", env.scale.leaf_capacity);
    let _ = writeln!(json, "  \"queries\": {},", w.queries.len());
    let _ = writeln!(json, "  \"answers_identical\": true,");
    let _ = writeln!(
        json,
        "  \"gate\": {{\"skewed_adaptive_p10\": {:.4}, \"tolerance\": {P10_TOLERANCE}}},",
        skewed_p10.1
    );
    json.push_str("  \"tries\": [\n");
    // Strip the trailing comma of the last section.
    json.push_str(json_sections.trim_end().trim_end_matches(','));
    json.push_str("\n  ]\n}\n");
    std::fs::create_dir_all(&env.results_dir)?;
    std::fs::write(&baseline_path, json)?;
    println!(
        "   answers bit-identical across policies; skewed p10 fill {:.3} \
         (fixed) -> {:.3} (adaptive)\n   wrote {}\n",
        skewed_p10.0,
        skewed_p10.1,
        baseline_path.display()
    );
    table.emit(&env.results_dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_storage::TempDir;

    #[test]
    fn occupancy_runs_verifies_and_writes_outputs() {
        let (w, r) = (
            TempDir::new("occupancy-w").unwrap(),
            TempDir::new("occupancy-r").unwrap(),
        );
        let env = Env {
            work_dir: w.path().to_path_buf(),
            results_dir: r.path().to_path_buf(),
            scale: crate::experiments::Scale {
                n: 900,
                series_len: 64,
                queries: 4,
                leaf_capacity: 32,
                threads: 2,
            },
        };
        run(&env).unwrap();
        let csv = std::fs::read_to_string(r.path().join("occupancy.csv")).unwrap();
        assert!(csv.starts_with("dataset,policy,leaves"));
        // Two datasets x two policies.
        assert_eq!(csv.lines().count(), 1 + 4, "{csv}");
        let json = std::fs::read_to_string(r.path().join("BENCH_occupancy.json")).unwrap();
        assert!(json.contains("\"answers_identical\": true"), "{json}");
        assert!(json.contains("\"skewed_adaptive_p10\""), "{json}");
        // The file parses as our own baseline format.
        assert!(baseline_p10(&json).is_some());
        // A second run gates against the baseline it just wrote — and
        // passes, because nothing changed.
        run(&env).unwrap();
    }

    #[test]
    fn baseline_parse_extracts_p10() {
        let j = "{\n  \"gate\": {\"skewed_adaptive_p10\": 0.8125, \"tolerance\": 0.05}\n}";
        assert_eq!(baseline_p10(j), Some(0.8125));
        assert_eq!(baseline_p10("{}"), None);
    }
}
