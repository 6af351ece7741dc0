//! Quickstart: build a Coconut-Tree over a synthetic dataset and run
//! approximate + exact nearest-neighbor queries.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use coconut::prelude::*;

fn main() -> coconut::storage::Result<()> {
    // 1. Generate a dataset: 20,000 random-walk series of 256 points,
    //    z-normalized and written to a binary dataset file.
    let dir = TempDir::new("quickstart")?;
    let stats = Arc::new(IoStats::new());
    let data_path = dir.path().join("data.bin");
    let n = 20_000u64;
    let mut generator = RandomWalkGen::new(42);
    write_dataset(&data_path, &mut generator, n, 256, &stats)?;
    let dataset = Dataset::open(&data_path, Arc::clone(&stats))?;
    println!(
        "dataset: {} series x {} points ({} MiB raw)",
        dataset.len(),
        dataset.series_len(),
        dataset.payload_bytes() >> 20
    );

    // 2. Bulk-load a (non-materialized) Coconut-Tree: summarize, sort the
    //    sortable summarizations, pack leaves bottom-up.
    let config = coconut::index::IndexConfig::default_for_len(256);
    let t0 = std::time::Instant::now();
    let tree = coconut::index::CoconutTree::build(
        &dataset,
        &config,
        dir.path(),
        coconut::index::BuildOptions::default(),
    )?;
    println!(
        "built Coconut-Tree in {:.0} ms: {} leaves, height {}, fill {:.0}%, contiguity {:.0}%",
        t0.elapsed().as_secs_f64() * 1e3,
        tree.leaf_count(),
        tree.height(),
        tree.avg_fill() * 100.0,
        tree.contiguity() * 100.0
    );

    // 3. Query: approximate first (one leaf neighborhood), then exact
    //    (CoconutTreeSIMS — a pruned skip-sequential scan).
    let query = {
        let mut q = RandomWalkGen::new(7).generate(256);
        coconut::series::distance::znormalize(&mut q);
        q
    };
    let approx = tree.approximate_search(&query, 1)?;
    println!(
        "approximate answer: series #{} at distance {:.3}",
        approx.pos, approx.dist
    );

    let (exact, qstats) = tree.exact_search(&query)?;
    println!(
        "exact answer:       series #{} at distance {:.3} \
         (fetched {} of {} records, pruned {})",
        exact.pos, exact.dist, qstats.records_fetched, n, qstats.pruned
    );
    assert!(exact.dist <= approx.dist);

    // 4. k-NN (an extension beyond the paper).
    let (top5, _) = tree.exact_knn(&query, 5, None, f64::INFINITY, Deadline::NONE)?;
    println!("top-5 neighbors:");
    for (rank, a) in top5.iter().enumerate() {
        println!(
            "  {}. series #{} at distance {:.3}",
            rank + 1,
            a.pos,
            a.dist
        );
    }
    Ok(())
}
