//! Seismic monitoring scenario: index heavily overlapping sliding windows
//! of a continuous seismic signal, then search for windows similar to a
//! "template" event — the paper's motivating IRIS use case, at laptop
//! scale.
//!
//! Demonstrates: dense (hard) data, materialized vs non-materialized query
//! cost, and the occupancy difference between prefix and median splitting.
//!
//! ```sh
//! cargo run --release --example seismic_monitor
//! ```

use std::sync::Arc;
use std::time::Instant;

use coconut::index::{BuildOptions, CoconutTree, CoconutTrie, IndexConfig};
use coconut::prelude::*;

fn main() -> coconut::storage::Result<()> {
    let dir = TempDir::new("seismic")?;
    let stats = Arc::new(IoStats::new());
    let data_path = dir.path().join("seismic.bin");

    // A year of "sensor" data, 256-point windows sliding by 4 samples —
    // consecutive windows share 98% of their points, so the dataset is
    // dense and pruning is hard (the paper's observation on real data).
    let n = 30_000u64;
    let len = 256usize;
    let mut generator = SeismicGen::new(2024);
    write_dataset(&data_path, &mut generator, n, len, &stats)?;
    let dataset = Dataset::open(&data_path, Arc::clone(&stats))?;
    println!("seismic archive: {n} overlapping windows of {len} samples");

    let config = IndexConfig::default_for_len(len);

    // Build both Coconut variants to compare occupancy (the paper's
    // Figure 8c story).
    let tree = CoconutTree::build(&dataset, &config, dir.path(), BuildOptions::default())?;
    let trie = CoconutTrie::build(&dataset, &config, dir.path(), BuildOptions::default())?;
    println!(
        "Coconut-Tree: {:>5} leaves, fill {:>3.0}%   (median splits pack densely)",
        tree.leaf_count(),
        tree.avg_fill() * 100.0
    );
    println!(
        "Coconut-Trie: {:>5} leaves, fill {:>3.0}%   (prefix splits cannot balance)",
        trie.leaf_count(),
        trie.avg_fill() * 100.0
    );

    // The "template": a fresh event from the same process. An analyst asks:
    // did we record anything like this before?
    let template = {
        let mut g = SeismicGen::new(777);
        let mut q = g.generate(len);
        coconut::series::distance::znormalize(&mut q);
        q
    };

    let t0 = Instant::now();
    let (hit, qstats) = tree.exact_search(&template)?;
    let indexed = t0.elapsed();
    println!(
        "\nindexed search:  window #{} at distance {:.3} in {:.1} ms \
         ({} raw fetches, {} pruned)",
        hit.pos,
        hit.dist,
        indexed.as_secs_f64() * 1e3,
        qstats.records_fetched,
        qstats.pruned
    );

    // Brute force for comparison.
    let scan = SerialScan::new(&dataset);
    let t0 = Instant::now();
    let (truth, sstats) = scan.exact(&template)?;
    let brute = t0.elapsed();
    println!(
        "serial scan:     window #{} at distance {:.3} in {:.1} ms ({} fetches)",
        truth.pos,
        truth.dist,
        brute.as_secs_f64() * 1e3,
        sstats.records_fetched
    );
    assert_eq!(hit.pos, truth.pos, "index must agree with the scan");

    // Dense data: neighbors of the best hit are near-duplicates (the
    // overlapping windows). Show the top matches.
    let (matches, _) = tree.exact_knn(&template, 5, None, f64::INFINITY, Deadline::NONE)?;
    println!("\nclosest recorded windows (note the adjacent, overlapping positions):");
    for m in &matches {
        println!("  window #{:>6} at distance {:.3}", m.pos, m.dist);
    }
    Ok(())
}
