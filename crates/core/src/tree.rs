//! Coconut-Tree: a balanced, contiguous, densely packed data series index
//! (paper Section 4.3, Algorithm 3).
//!
//! Construction sorts the sortable summarizations externally and bulk-loads
//! a B+-tree bottom-up, UB-tree style: leaves are written left-to-right into
//! one contiguous file region, packed to the configured fill factor, and the
//! (tiny) internal levels are kept in memory — "the index's internal nodes
//! for most applications fit in main memory". Median-based splitting is
//! implicit in bulk loading: any node boundary may fall between any two
//! records, so no common-prefix constraint wastes space.
//!
//! Queries:
//! * [`CoconutTree::approximate_search`] (Algorithm 4) descends to the leaf
//!   where the query's key would be inserted and evaluates it plus `radius`
//!   neighboring leaves on each side — neighbors are physically adjacent,
//!   so this is one sequential read.
//! * [`CoconutTree::exact_search`] (Algorithm 5, *CoconutTreeSIMS*) seeds a
//!   best-so-far from approximate search, then runs the parallel
//!   skip-sequential SIMS scan.
//!
//! Post-build [`CoconutTree::insert`] implements classic B+-tree leaf
//! inserts with median splits; split-off leaves are appended at the end of
//! the file, so updates gradually trade away contiguity (measured by
//! [`CoconutTree::contiguity`]) — the effect the paper's update experiment
//! (Figure 10a) studies.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use coconut_series::dataset::Dataset;
use coconut_series::distance::euclidean_sq;
use coconut_series::index::{Answer, QueryStats, SeriesIndex};
use coconut_series::Value;
use coconut_storage::{CountedFile, Deadline, Error, IoStats, RecordStream, Result, SortReport};
use coconut_summary::paa::paa;
use coconut_summary::sax::Summarizer;
use coconut_summary::{SaxConfig, ZKey};

use crate::builder::{sorted_key_pos, sorted_key_series, BuildReport};
use crate::config::{BuildOptions, IndexConfig};
use crate::layout::{
    crc32, read_directory, write_directory, EntryLayout, IndexHeader, LeafMeta, LeafStore,
    CHECKSUM_VERSION,
};
use crate::records::SortedRecord;
use crate::shard::{sorted_key_pos_sharded, sorted_key_series_sharded};
use crate::sims::{sims_exact_dtw, sims_knn, sims_range, SeriesFetcher};

static TREE_ID: AtomicU64 = AtomicU64::new(0);

/// The Coconut-Tree index.
pub struct CoconutTree {
    config: IndexConfig,
    materialized: bool,
    threads: usize,
    dataset: Dataset,
    file: Arc<CountedFile>,
    store: LeafStore,
    leaves: Vec<LeafMeta>,
    /// Internal separator levels; `levels[0]` holds each leaf's first key,
    /// each higher level the first key of `internal_fanout`-sized groups.
    levels: Vec<Vec<ZKey>>,
    summaries: SummaryCache,
    entry_count: u64,
    next_block: u32,
    /// Positions covered: `range.start..range.end` of the dataset.
    range: std::ops::Range<u64>,
    build_report: BuildReport,
    default_radius: usize,
}

impl CoconutTree {
    /// Bulk-load a tree over all of `dataset` (Algorithm 3). Files are
    /// created in `dir`; sort scratch goes there too.
    pub fn build(
        dataset: &Dataset,
        config: &IndexConfig,
        dir: &Path,
        opts: BuildOptions,
    ) -> Result<Self> {
        Self::build_range(dataset, 0..dataset.len(), config, dir, opts)
    }

    /// Bulk-load a tree over the positions `range` of `dataset` (used by the
    /// LSM extension, whose runs cover contiguous position ranges).
    pub fn build_range(
        dataset: &Dataset,
        range: std::ops::Range<u64>,
        config: &IndexConfig,
        dir: &Path,
        opts: BuildOptions,
    ) -> Result<Self> {
        let mut tree = Self::new_empty(dataset, range, config, dir, &opts)?;
        tree.bulk_load(dir, &opts)?;
        Ok(tree)
    }

    /// Bulk-load a tree from an already-sorted record stream covering
    /// exactly the positions of `range` — the LSM compaction path, where
    /// `stream` is a K-way [`coconut_storage::MergedStream`] over the leaf
    /// streams of existing runs. The record type must match
    /// `opts.materialized` ([`crate::records::KeySeries`] when materialized,
    /// [`crate::records::KeyPos`] otherwise).
    ///
    /// Because the loader consumes the same `(key, pos)`-ordered sequence a
    /// from-scratch sort would produce, the resulting index file is
    /// bit-identical to [`CoconutTree::build_range`] over the same range.
    pub fn build_range_from_stream<R: SortedRecord>(
        dataset: &Dataset,
        range: std::ops::Range<u64>,
        config: &IndexConfig,
        dir: &Path,
        opts: BuildOptions,
        stream: &mut dyn RecordStream<Item = R>,
    ) -> Result<Self> {
        let mut tree = Self::new_empty(dataset, range, config, dir, &opts)?;
        tree.load_stream(stream)?;
        Ok(tree)
    }

    /// Validate inputs and create the (empty) index file in `dir`.
    fn new_empty(
        dataset: &Dataset,
        range: std::ops::Range<u64>,
        config: &IndexConfig,
        dir: &Path,
        opts: &BuildOptions,
    ) -> Result<Self> {
        config.validate()?;
        if dataset.series_len() != config.sax.series_len {
            return Err(Error::invalid(format!(
                "dataset series length {} != config series length {}",
                dataset.series_len(),
                config.sax.series_len
            )));
        }
        if range.end > dataset.len() || range.start > range.end {
            return Err(Error::invalid("build range out of dataset bounds"));
        }
        let id = TREE_ID.fetch_add(1, Ordering::Relaxed);
        let suffix = if opts.materialized { "full" } else { "ptr" };
        let path = dir.join(format!("ctree-{id}-{suffix}.idx"));
        let stats = Arc::clone(dataset.file().stats());
        let file = Arc::new(CountedFile::create(&path, stats)?);
        let entry = EntryLayout {
            series_len: config.sax.series_len,
            materialized: opts.materialized,
        };
        let store = LeafStore::new(Arc::clone(&file), entry, config.leaf_capacity);

        Ok(CoconutTree {
            config: *config,
            materialized: opts.materialized,
            threads: opts.threads.max(1),
            dataset: dataset.clone(),
            file,
            store,
            leaves: Vec::new(),
            levels: Vec::new(),
            summaries: RwLock::new(None),
            entry_count: 0,
            next_block: 0,
            range,
            build_report: BuildReport::default(),
            default_radius: 1,
        })
    }

    /// Sort the range's records and feed them to the loader. Sharded builds
    /// sort K subranges in parallel and K-way merge; the merged stream is
    /// record-for-record identical to one big sort, so either source feeds
    /// the same loader loop.
    fn bulk_load(&mut self, tmp_dir: &Path, opts: &BuildOptions) -> Result<()> {
        let stats = Arc::clone(self.dataset.file().stats());
        if opts.materialized {
            let mut stream: Box<dyn RecordStream<Item = crate::records::KeySeries>> =
                if opts.shards > 1 {
                    Box::new(sorted_key_series_sharded(
                        &self.dataset,
                        self.range.clone(),
                        &self.config.sax,
                        opts.memory_bytes,
                        tmp_dir,
                        &stats,
                        opts.shards,
                    )?)
                } else {
                    Box::new(sorted_key_series(
                        &self.dataset,
                        self.range.clone(),
                        &self.config.sax,
                        opts.memory_bytes,
                        tmp_dir,
                        &stats,
                    )?)
                };
            self.load_stream(stream.as_mut())
        } else {
            let mut stream: Box<dyn RecordStream<Item = crate::records::KeyPos>> =
                if opts.shards > 1 {
                    Box::new(sorted_key_pos_sharded(
                        &self.dataset,
                        self.range.clone(),
                        &self.config.sax,
                        opts.memory_bytes,
                        tmp_dir,
                        &stats,
                        opts.shards,
                    )?)
                } else {
                    Box::new(sorted_key_pos(
                        &self.dataset,
                        self.range.clone(),
                        &self.config.sax,
                        opts.memory_bytes,
                        tmp_dir,
                        &stats,
                    )?)
                };
            self.load_stream(stream.as_mut())
        }
    }

    /// The bottom-up loader loop (Algorithm 3, lines 13–20): pack sorted
    /// records into left-to-right leaves, then build the in-memory levels,
    /// persist the directory, and keep the summarization arrays.
    fn load_stream<R: SortedRecord>(
        &mut self,
        stream: &mut dyn RecordStream<Item = R>,
    ) -> Result<()> {
        let n = self.range.end - self.range.start;
        let entry = *self.store.entry();
        let eb = entry.entry_bytes();
        let per_leaf = self.config.bulk_leaf_entries();
        let mut block_buf: Vec<u8> = Vec::with_capacity(per_leaf * eb);
        let mut entry_buf = vec![0u8; eb];
        let mut first_key = ZKey::MIN;
        let mut in_leaf = 0usize;

        let mut keys_by_pos = vec![ZKey::MIN; n as usize];
        let mut keys_leaf_order = Vec::with_capacity(n as usize);
        let mut pos_leaf_order = Vec::with_capacity(n as usize);

        // A closure cannot borrow self mutably twice, so the leaf-flush is a
        // small macro over locals.
        macro_rules! flush_leaf {
            () => {
                if in_leaf > 0 {
                    let crc = crc32(&block_buf);
                    let blocks_used = self.store.write_leaf(self.next_block, &block_buf)?;
                    self.leaves.push(LeafMeta {
                        first_key,
                        count: in_leaf as u32,
                        block: self.next_block,
                        blocks_used,
                        crc,
                    });
                    self.next_block += blocks_used;
                    block_buf.clear();
                    in_leaf = 0;
                }
            };
        }

        while let Some(rec) = stream.next_item()? {
            if self.materialized && rec.series().is_none() {
                return Err(Error::invalid(
                    "materialized build fed a stream without payloads",
                ));
            }
            let (key, pos) = (rec.key(), rec.pos());
            if !self.range.contains(&pos) {
                return Err(Error::invalid(format!(
                    "record position {pos} outside build range {:?}",
                    self.range
                )));
            }
            entry.encode(key, pos, rec.series(), &mut entry_buf);
            if in_leaf == 0 {
                first_key = key;
            }
            block_buf.extend_from_slice(&entry_buf);
            keys_by_pos[(pos - self.range.start) as usize] = key;
            keys_leaf_order.push(key);
            pos_leaf_order.push(pos);
            in_leaf += 1;
            self.entry_count += 1;
            if in_leaf == per_leaf {
                flush_leaf!();
            }
        }
        self.build_report.sort = stream.report();
        flush_leaf!();
        debug_assert_eq!(in_leaf, 0);

        self.build_report.items = self.entry_count;
        self.build_report.leaves = self.leaves.len() as u64;
        self.rebuild_levels();
        self.persist_directory()?;
        *self.summaries.write() = Some(Arc::new(Summaries::new(
            keys_by_pos,
            keys_leaf_order,
            pos_leaf_order,
            &self.leaves,
        )));
        Ok(())
    }

    /// Open a previously built index file. `dataset` must be the raw file it
    /// was built over.
    pub fn open(path: &Path, dataset: &Dataset, threads: usize) -> Result<Self> {
        let range = 0..dataset.len();
        Self::open_impl(path, dataset, threads, range, false)
    }

    /// Open a previously built index file as a run covering exactly the
    /// positions `range` of `dataset` — the LSM recovery path, where the
    /// manifest records each run's covered range. Unlike
    /// [`CoconutTree::open`] (which assumes the whole dataset), this
    /// validates that the file's entry count matches the range, so a
    /// manifest/run mismatch is caught at open time rather than at query
    /// time.
    pub fn open_range(
        path: &Path,
        dataset: &Dataset,
        threads: usize,
        range: std::ops::Range<u64>,
    ) -> Result<Self> {
        Self::open_impl(path, dataset, threads, range, true)
    }

    fn open_impl(
        path: &Path,
        dataset: &Dataset,
        threads: usize,
        range: std::ops::Range<u64>,
        check_count: bool,
    ) -> Result<Self> {
        if range.start > range.end || range.end > dataset.len() {
            return Err(Error::invalid("open range out of dataset bounds"));
        }
        let stats = Arc::clone(dataset.file().stats());
        let file = Arc::new(CountedFile::open_rw(path, stats)?);
        let header = IndexHeader::read_from(&file)?;
        if header.kind != 0 {
            return Err(Error::corrupt("not a Coconut-Tree index file"));
        }
        if header.series_len as usize != dataset.series_len() {
            return Err(Error::corrupt("index/dataset series length mismatch"));
        }
        if check_count && header.entry_count != range.end - range.start {
            return Err(Error::corrupt(format!(
                "index holds {} entries but its recorded range {range:?} spans {}",
                header.entry_count,
                range.end - range.start
            )));
        }
        let config = IndexConfig {
            sax: coconut_summary::SaxConfig {
                series_len: header.series_len as usize,
                segments: header.segments as usize,
                card_bits: header.card_bits,
            },
            leaf_capacity: header.leaf_capacity as usize,
            fill_factor: 1.0,
            internal_fanout: 64,
            split_policy: crate::split::SplitPolicyKind::from_u8(header.split_policy)?,
        };
        config.validate()?;
        let (leaves, _) = read_directory(&file, header.dir_offset)?;
        let entry = EntryLayout {
            series_len: config.sax.series_len,
            materialized: header.materialized,
        };
        let store = LeafStore::new(Arc::clone(&file), entry, config.leaf_capacity);
        let mut tree = CoconutTree {
            config,
            materialized: header.materialized,
            threads: threads.max(1),
            dataset: dataset.clone(),
            file,
            store,
            leaves,
            levels: Vec::new(),
            summaries: RwLock::new(None),
            entry_count: header.entry_count,
            next_block: header.num_blocks as u32,
            range,
            build_report: BuildReport::default(),
            default_radius: 1,
        };
        // The on-disk index does not record its own range; `open` assumes
        // the common whole-dataset case (`open_range` is told it by the LSM
        // manifest), and `Summaries::load` re-derives and cross-checks the
        // contiguous position range from the entries themselves.
        tree.rebuild_levels();
        Ok(tree)
    }

    /// Stream this tree's entries in leaf order — which, for a bulk-loaded
    /// run, is exactly `(key, pos)`-sorted order. LSM compaction feeds K of
    /// these into a [`coconut_storage::MergedStream`] and bulk-loads the
    /// merged run from the result, so a compaction is a K-way merge of
    /// sorted runs, never a re-sort of the raw range.
    ///
    /// `R` must match the tree's layout: [`crate::records::KeySeries`] for
    /// materialized trees, [`crate::records::KeyPos`] otherwise.
    pub fn leaf_entries<R: SortedRecord>(&self) -> LeafEntryStream<'_, R> {
        LeafEntryStream {
            store: &self.store,
            leaves: &self.leaves,
            entry_count: self.entry_count,
            leaf: 0,
            slot: 0,
            buf: Vec::new(),
            loaded: false,
            _record: std::marker::PhantomData,
        }
    }

    fn persist_directory(&mut self) -> Result<()> {
        let dir_offset = write_directory(&self.file, &self.leaves)?;
        let header = IndexHeader {
            kind: 0,
            materialized: self.materialized,
            series_len: self.config.sax.series_len as u32,
            segments: self.config.sax.segments as u16,
            card_bits: self.config.sax.card_bits,
            leaf_capacity: self.config.leaf_capacity as u32,
            entry_count: self.entry_count,
            num_blocks: self.next_block as u64,
            dir_offset,
            // The tree tail has no policy-dependent records; only the
            // policy byte is carried so reopen reconstructs the config.
            tail_version: 0,
            split_policy: self.config.split_policy.as_u8(),
            checksums: CHECKSUM_VERSION,
        };
        header.write_to(&self.file)?;
        self.file.sync()
    }

    /// Re-read every leaf block and verify it against its directory CRC
    /// (the `coconut scrub` primitive). Returns on the first corrupt leaf
    /// with a typed [`Error::Corrupt`]; legacy unchecked leaves are counted
    /// but not verifiable.
    pub fn verify(&self) -> Result<crate::layout::ScrubReport> {
        crate::layout::scrub_leaves(&self.store, &self.leaves)
    }

    fn rebuild_levels(&mut self) {
        self.levels.clear();
        if self.leaves.is_empty() {
            return;
        }
        let mut level: Vec<ZKey> = self.leaves.iter().map(|l| l.first_key).collect();
        let fanout = self.config.internal_fanout;
        loop {
            let next: Option<Vec<ZKey>> = if level.len() <= fanout {
                None
            } else {
                Some(level.chunks(fanout).map(|c| c[0]).collect())
            };
            self.levels.push(level);
            match next {
                Some(n) => level = n,
                None => break,
            }
        }
    }

    /// Descend the internal levels to the leaf whose key range contains
    /// `key` (the leaf the key would be inserted into). Returns the leaf
    /// index and the number of internal nodes visited.
    fn descend(&self, key: ZKey) -> Option<(usize, u64)> {
        if self.leaves.is_empty() {
            return None;
        }
        let fanout = self.config.internal_fanout;
        let mut visited = 0u64;
        // Non-empty leaves imply at least one level (`rebuild_levels`).
        let top = self.levels.last()?;
        let mut idx = top.partition_point(|&k| k <= key).saturating_sub(1);
        visited += 1;
        for level in self.levels.iter().rev().skip(1) {
            let lo = idx * fanout;
            let hi = ((idx + 1) * fanout).min(level.len());
            let window = &level[lo..hi];
            idx = lo + window.partition_point(|&k| k <= key).saturating_sub(1);
            visited += 1;
        }
        Some((idx, visited))
    }

    /// Height of the tree (internal levels above the leaves).
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// The build report (sort runs / merge passes / leaf count).
    pub fn build_report(&self) -> BuildReport {
        self.build_report
    }

    /// The index configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Entry count of every leaf, in leaf order. Divide by
    /// `config().leaf_capacity` for fill fractions.
    pub fn leaf_entry_counts(&self) -> Vec<usize> {
        self.leaves.iter().map(|l| l.count as usize).collect()
    }

    /// Leaves beyond `leaf_capacity`: always zero for Coconut-Tree, whose
    /// median-based packing never overfills — exposed so LSM occupancy
    /// aggregation treats both index kinds uniformly.
    pub fn oversized_leaf_count(&self) -> u64 {
        self.leaves
            .iter()
            .filter(|l| l.count as usize > self.config.leaf_capacity)
            .count() as u64
    }

    /// Whether leaves embed raw series.
    pub fn is_materialized(&self) -> bool {
        self.materialized
    }

    /// Entries in the index.
    pub fn len(&self) -> u64 {
        self.entry_count
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// The position range of the dataset this index covers.
    pub fn covered_range(&self) -> std::ops::Range<u64> {
        self.range.clone()
    }

    /// Set the leaf radius used by the `SeriesIndex` trait entry points.
    pub fn set_default_radius(&mut self, radius: usize) {
        self.default_radius = radius;
    }

    /// Route leaf reads through a shared buffer pool (`file_id` must be
    /// unique per index within the pool). Models "RAM available to queries".
    pub fn attach_cache(
        &mut self,
        cache: std::sync::Arc<coconut_storage::PageCache>,
        file_id: u32,
    ) {
        self.store.attach_cache(cache, file_id);
    }

    /// Fraction of logically adjacent leaves that are physically adjacent
    /// on disk (1.0 right after bulk loading; decays as inserts split).
    pub fn contiguity(&self) -> f64 {
        if self.leaves.len() < 2 {
            return 1.0;
        }
        let adjacent = self
            .leaves
            .windows(2)
            .filter(|w| w[1].block == w[0].block + w[0].blocks_used)
            .count();
        adjacent as f64 / (self.leaves.len() - 1) as f64
    }

    fn query_key(&self, query: &[Value]) -> Result<ZKey> {
        if query.len() != self.config.sax.series_len {
            return Err(Error::invalid(format!(
                "query length {} != series length {}",
                query.len(),
                self.config.sax.series_len
            )));
        }
        let mut summarizer = Summarizer::new(self.config.sax);
        Ok(summarizer.zkey(query))
    }

    /// The SIMS view of this tree's leaves and summaries.
    fn leaf_scan(&self) -> LeafScan<'_> {
        LeafScan {
            store: &self.store,
            leaves: &self.leaves,
            summaries: &self.summaries,
            entry_count: self.entry_count,
            dataset: &self.dataset,
            start: self.range.start,
            materialized: self.materialized,
            sax: &self.config.sax,
            threads: self.threads,
        }
    }

    /// The leaf the query's key descends to (`None` on an empty tree).
    fn target_leaf(&self, query: &[Value]) -> Result<Option<usize>> {
        Ok(self.descend(self.query_key(query)?).map(|(li, _)| li))
    }

    /// Approximate search (Algorithm 4): evaluate the target leaf plus
    /// `radius` leaves on each side.
    pub fn approximate_search(&self, query: &[Value], radius: usize) -> Result<Answer> {
        let target = self.target_leaf(query)?;
        Ok(self.leaf_scan().approximate(query, target, radius)?.0)
    }

    /// Exact 1-NN (Algorithm 5, *CoconutTreeSIMS*): [`Self::exact_knn`]
    /// with k = 1, the default seed radius, no bound and no deadline.
    pub fn exact_search(&self, query: &[Value]) -> Result<(Answer, QueryStats)> {
        let (top, stats) = self.exact_knn(query, 1, None, f64::INFINITY, Deadline::NONE)?;
        Ok((top.first().copied().unwrap_or(Answer::none()), stats))
    }

    /// Exact k-NN via SIMS (Algorithm 5; k = 1 is the paper's exact
    /// search): seed a best-so-far by approximate search over `radius`
    /// leaves on each side of the target leaf (`None`: the default radius;
    /// the paper's CTree(1) / CTree(10) variants pass 1 / 10), then run the
    /// skip-sequential scan. Only candidates with distance below `bound`
    /// are returned (see [`crate::sims::sims_knn`]); `f64::INFINITY`
    /// disables the bound. The scan checks `deadline` at its early-abandon
    /// checkpoints and aborts with [`coconut_storage::Error::Deadline`].
    pub fn exact_knn(
        &self,
        query: &[Value],
        k: usize,
        radius: Option<usize>,
        bound: f64,
        deadline: Deadline,
    ) -> Result<(Vec<Answer>, QueryStats)> {
        let target = self.target_leaf(query)?;
        let radius = radius.unwrap_or(self.default_radius);
        self.leaf_scan()
            .knn(query, target, radius, k, bound, deadline)
    }

    /// Exact range query (extension): all series within Euclidean distance
    /// `epsilon` of the query, sorted by distance, under a cooperative
    /// [`Deadline`].
    pub fn exact_range(
        &self,
        query: &[Value],
        epsilon: f64,
        deadline: Deadline,
    ) -> Result<(Vec<Answer>, QueryStats)> {
        self.query_key(query)?; // validates the length
        self.leaf_scan().range(query, epsilon, deadline)
    }

    /// Exact 1-NN under Dynamic Time Warping with a Sakoe–Chiba band of
    /// radius `band` (extension; Section 2 of the paper notes DTW
    /// compatibility). The best-so-far is seeded by computing true DTW
    /// distances to the contents of the query's target leaf.
    pub fn exact_search_dtw(&self, query: &[Value], band: usize) -> Result<(Answer, QueryStats)> {
        let key = self.query_key(query)?;
        let mut stats = QueryStats::default();
        let mut seed = Answer::none();
        if let Some((li, _)) = self.descend(key) {
            // Seed bsf with true DTW over the target leaf's members.
            let entry = self.store.entry();
            let mut leaf_buf = Vec::new();
            let mut series_buf = vec![0.0 as Value; self.config.sax.series_len];
            let leaf = &self.leaves[li];
            self.store.read_leaf(leaf, &mut leaf_buf)?;
            stats.leaves_visited += 1;
            for slot in 0..leaf.count as usize {
                let e = self.store.entry_slice(&leaf_buf, slot);
                let pos = entry.pos(e);
                if self.materialized {
                    entry.series_into(e, &mut series_buf);
                } else {
                    self.dataset.read_into(pos, &mut series_buf)?;
                }
                stats.records_fetched += 1;
                let cutoff = seed.dist * seed.dist;
                if let Some(d_sq) =
                    coconut_series::dtw::dtw_sq_early_abandon(query, &series_buf, band, cutoff)
                {
                    if d_sq < cutoff {
                        seed = Answer {
                            pos,
                            dist: d_sq.sqrt(),
                        };
                    }
                }
            }
        }
        let (answer, sims_stats) = self.leaf_scan().scan(|keys, fetcher| {
            sims_exact_dtw(
                query,
                band,
                keys,
                &self.config.sax,
                self.threads,
                seed,
                fetcher,
                Deadline::NONE,
            )
        })?;
        stats.add(&sims_stats);
        Ok((answer, stats))
    }

    /// Insert one new series that was appended to the dataset at `pos`
    /// (must extend the covered range contiguously). Classic B+-tree leaf
    /// insert with a median split on overflow; the split-off leaf goes to
    /// the end of the file, degrading contiguity — this is the cost the
    /// paper's Figure 10a measures against bulk-loaded batches.
    pub fn insert(&mut self, pos: u64, series: &[Value]) -> Result<()> {
        if pos != self.range.end {
            return Err(Error::invalid(format!(
                "insert position {pos} must extend the covered range (expected {})",
                self.range.end
            )));
        }
        let key = self.query_key(series)?;
        let entry = *self.store.entry();
        let eb = entry.entry_bytes();
        let mut entry_buf = vec![0u8; eb];
        let payload = if self.materialized {
            Some(series)
        } else {
            None
        };
        entry.encode(key, pos, payload, &mut entry_buf);

        if self.leaves.is_empty() {
            self.store.write_leaf(self.next_block, &entry_buf)?;
            self.leaves.push(LeafMeta {
                first_key: key,
                count: 1,
                block: self.next_block,
                blocks_used: 1,
                crc: crc32(&entry_buf),
            });
            self.next_block += 1;
        } else {
            let (li, _) = self
                .descend(key)
                .ok_or_else(|| Error::corrupt("a non-empty tree failed to descend"))?;
            let mut leaf_buf = Vec::new();
            self.store.read_leaf(&self.leaves[li], &mut leaf_buf)?;
            // Insert position within the leaf (keep sorted by (key, pos)).
            let count = self.leaves[li].count as usize;
            let mut slot = count;
            for s in 0..count {
                let e = self.store.entry_slice(&leaf_buf, s);
                if entry.key(e) > key || (entry.key(e) == key && entry.pos(e) > pos) {
                    slot = s;
                    break;
                }
            }
            let at = slot * eb;
            leaf_buf.splice(at..at, entry_buf.iter().copied());
            if count < self.config.leaf_capacity {
                self.store.write_leaf(self.leaves[li].block, &leaf_buf)?;
                self.leaves[li].count += 1;
                self.leaves[li].crc = crc32(&leaf_buf);
                if slot == 0 {
                    self.leaves[li].first_key = key;
                    self.rebuild_levels();
                }
            } else {
                // Median split: left half stays in place, right half goes to
                // a fresh block at the end of the file.
                let total = count + 1;
                let left = total / 2;
                let right = total - left;
                self.store
                    .write_leaf(self.leaves[li].block, &leaf_buf[..left * eb])?;
                self.store
                    .write_leaf(self.next_block, &leaf_buf[left * eb..])?;
                let right_first = entry.key(self.store.entry_slice(&leaf_buf, left));
                self.leaves[li].count = left as u32;
                self.leaves[li].first_key = entry.key(self.store.entry_slice(&leaf_buf, 0));
                self.leaves[li].crc = crc32(&leaf_buf[..left * eb]);
                self.leaves.insert(
                    li + 1,
                    LeafMeta {
                        first_key: right_first,
                        count: right as u32,
                        block: self.next_block,
                        blocks_used: 1,
                        crc: crc32(&leaf_buf[left * eb..]),
                    },
                );
                self.next_block += 1;
                self.rebuild_levels();
            }
        }
        self.entry_count += 1;
        self.range.end = pos + 1;
        *self.summaries.write() = None; // rebuilt lazily
        Ok(())
    }

    /// Insert a batch of series appended to the dataset starting at
    /// `first_pos` — the workload of the paper's Figure 10a.
    ///
    /// Unlike repeated [`CoconutTree::insert`] calls, the batch is sorted by
    /// key and grouped by target leaf, so every touched leaf is read and
    /// rewritten exactly once ("our bulk loading algorithm has to perform
    /// less splits when larger pieces of data are loaded"). Overflowing
    /// leaves split into evenly sized pieces (median splitting, ≥ half
    /// full), with new blocks appended at the end of the file.
    pub fn insert_batch(&mut self, first_pos: u64, batch: &[Vec<Value>]) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if first_pos != self.range.end {
            return Err(Error::invalid(format!(
                "batch start {first_pos} must extend the covered range (expected {})",
                self.range.end
            )));
        }
        let mut summarizer = Summarizer::new(self.config.sax);
        let mut items: Vec<(ZKey, u64, &[Value])> = Vec::with_capacity(batch.len());
        for (i, s) in batch.iter().enumerate() {
            if s.len() != self.config.sax.series_len {
                return Err(Error::invalid("series length mismatch in batch"));
            }
            items.push((summarizer.zkey(s), first_pos + i as u64, s.as_slice()));
        }
        items.sort_unstable_by_key(|&(k, p, _)| (k, p));

        let entry = *self.store.entry();
        let eb = entry.entry_bytes();

        if self.leaves.is_empty() {
            // Degenerate case: bulk-load the batch as the initial contents.
            let per_leaf = self.config.bulk_leaf_entries();
            let mut entry_buf = vec![0u8; eb];
            for chunk in items.chunks(per_leaf) {
                let mut block_buf = Vec::with_capacity(chunk.len() * eb);
                for &(k, p, s) in chunk {
                    let payload = self.materialized.then_some(s);
                    entry.encode(k, p, payload, &mut entry_buf);
                    block_buf.extend_from_slice(&entry_buf);
                }
                let blocks_used = self.store.write_leaf(self.next_block, &block_buf)?;
                self.leaves.push(LeafMeta {
                    first_key: chunk[0].0,
                    count: chunk.len() as u32,
                    block: self.next_block,
                    blocks_used,
                    crc: crc32(&block_buf),
                });
                self.next_block += blocks_used;
            }
        } else {
            // Group items by their target leaf under the *current*
            // directory, then process groups from the highest leaf index
            // down: splits insert new leaves after the touched one, which
            // cannot disturb lower indices.
            let first_keys: Vec<ZKey> = self.leaves.iter().map(|l| l.first_key).collect();
            let mut groups: Vec<(usize, usize, usize)> = Vec::new(); // (leaf, lo, hi)
            let mut i = 0usize;
            while i < items.len() {
                let li = first_keys
                    .partition_point(|&k| k <= items[i].0)
                    .saturating_sub(1);
                let mut j = i + 1;
                while j < items.len()
                    && first_keys
                        .partition_point(|&k| k <= items[j].0)
                        .saturating_sub(1)
                        == li
                {
                    j += 1;
                }
                groups.push((li, i, j));
                i = j;
            }
            let mut leaf_buf = Vec::new();
            let mut entry_buf = vec![0u8; eb];
            for &(li, lo, hi) in groups.iter().rev() {
                let group = &items[lo..hi];
                self.store.read_leaf(&self.leaves[li], &mut leaf_buf)?;
                let old_count = self.leaves[li].count as usize;
                // Merge existing entries with the (sorted) group.
                let total = old_count + group.len();
                let mut merged = Vec::with_capacity(total * eb);
                let mut a = 0usize; // existing slot
                let mut b = 0usize; // group index
                while a < old_count || b < group.len() {
                    let take_new = if a == old_count {
                        true
                    } else if b == group.len() {
                        false
                    } else {
                        let e = self.store.entry_slice(&leaf_buf, a);
                        (group[b].0, group[b].1) < (entry.key(e), entry.pos(e))
                    };
                    if take_new {
                        let (k, p, s) = group[b];
                        let payload = self.materialized.then_some(s);
                        entry.encode(k, p, payload, &mut entry_buf);
                        merged.extend_from_slice(&entry_buf);
                        b += 1;
                    } else {
                        merged.extend_from_slice(self.store.entry_slice(&leaf_buf, a));
                        a += 1;
                    }
                }
                // Split into evenly sized pieces of at most `capacity`.
                let pieces = total.div_ceil(self.config.leaf_capacity);
                let per_piece = total.div_ceil(pieces);
                let mut new_metas = Vec::with_capacity(pieces);
                for (pi, piece) in merged.chunks(per_piece * eb).enumerate() {
                    let count = (piece.len() / eb) as u32;
                    let first_key = entry.key(&piece[..eb]);
                    let block = if pi == 0 {
                        self.leaves[li].block
                    } else {
                        let block = self.next_block;
                        self.next_block += 1;
                        block
                    };
                    let blocks_used = self.store.write_leaf(block, piece)?;
                    debug_assert_eq!(blocks_used, 1);
                    new_metas.push(LeafMeta {
                        first_key,
                        count,
                        block,
                        blocks_used,
                        crc: crc32(piece),
                    });
                }
                self.leaves.splice(li..=li, new_metas);
            }
        }
        self.entry_count += items.len() as u64;
        self.range.end = first_pos + batch.len() as u64;
        self.rebuild_levels();
        self.update_summaries_after_batch(&items);
        self.persist_directory()
    }

    /// After a batch insert, extend the in-memory summaries instead of
    /// rebuilding them where possible. Non-materialized exact search only
    /// reads `keys_by_pos` (the raw-file-order scan), which extends in
    /// place; the leaf-order arrays are only consulted by materialized
    /// indexes, which fall back to a full lazy rebuild.
    fn update_summaries_after_batch(&mut self, items: &[(ZKey, u64, &[Value])]) {
        let mut guard = self.summaries.write();
        if self.materialized {
            *guard = None;
            return;
        }
        let Some(arc) = guard.take() else { return };
        match Arc::try_unwrap(arc) {
            Ok(mut s) => {
                let start = self.range.start;
                let new_len = (self.range.end - start) as usize;
                s.keys_by_pos.resize(new_len, ZKey::MIN);
                for &(k, p, _) in items {
                    s.keys_by_pos[(p - start) as usize] = k;
                }
                *guard = Some(Arc::new(s));
            }
            // A concurrent query still holds the snapshot: rebuild lazily.
            Err(_) => *guard = None,
        }
    }

    /// Mean leaf occupancy relative to `leaf_capacity`.
    pub fn avg_fill(&self) -> f64 {
        if self.leaves.is_empty() {
            return 0.0;
        }
        let total: u64 = self.leaves.iter().map(|l| l.count as u64).sum();
        total as f64 / (self.leaves.len() as u64 * self.config.leaf_capacity as u64) as f64
    }

    /// Shared I/O statistics (same sink as the dataset).
    pub fn io_stats(&self) -> &Arc<IoStats> {
        self.dataset.file().stats()
    }

    /// Path of the index file.
    pub fn index_path(&self) -> &Path {
        self.file.path()
    }
}

/// A forward scan over a tree's leaf entries in leaf (= sorted) order,
/// yielding decoded records; created by [`CoconutTree::leaf_entries`].
/// Reads each leaf block once, sequentially.
pub struct LeafEntryStream<'a, R> {
    store: &'a LeafStore,
    leaves: &'a [LeafMeta],
    entry_count: u64,
    leaf: usize,
    slot: usize,
    buf: Vec<u8>,
    loaded: bool,
    _record: std::marker::PhantomData<R>,
}

impl<R: SortedRecord> RecordStream for LeafEntryStream<'_, R> {
    type Item = R;

    fn next_item(&mut self) -> Result<Option<R>> {
        loop {
            let Some(meta) = self.leaves.get(self.leaf) else {
                return Ok(None);
            };
            if self.slot < meta.count as usize {
                if !self.loaded {
                    self.store.read_leaf(meta, &mut self.buf)?;
                    self.loaded = true;
                }
                let e = self.store.entry_slice(&self.buf, self.slot);
                self.slot += 1;
                return Ok(Some(R::from_entry(self.store.entry(), e)));
            }
            self.leaf += 1;
            self.slot = 0;
            self.loaded = false;
        }
    }

    fn report(&self) -> SortReport {
        SortReport {
            items: self.entry_count,
            runs: 0,
            merge_passes: 0,
        }
    }
}

/// SIMS fetcher for non-materialized indexes: scan index `i` is raw-file
/// position `start + i`, so fetches walk the raw file forward
/// (skip-sequential).
pub(crate) struct RawFileFetcher<'a> {
    pub dataset: &'a Dataset,
    pub start: u64,
}

impl SeriesFetcher for RawFileFetcher<'_> {
    fn fetch(&mut self, i: usize, out: &mut [Value]) -> Result<u64> {
        let pos = self.start + i as u64;
        self.dataset.read_into(pos, out)?;
        Ok(pos)
    }
}

/// SIMS fetcher for materialized indexes: scan order is leaf order, which is
/// the physical order of the (bulk-loaded) index file; reads each needed
/// leaf block once, forward.
pub(crate) struct LeafOrderFetcher<'a> {
    store: &'a LeafStore,
    leaves: &'a [LeafMeta],
    leaf_starts: &'a [u64],
    pos_leaf_order: &'a [u64],
    cur_leaf: usize,
    leaf_buf: Vec<u8>,
    loaded: bool,
}

impl<'a> LeafOrderFetcher<'a> {
    fn new(store: &'a LeafStore, leaves: &'a [LeafMeta], summaries: &'a Summaries) -> Self {
        LeafOrderFetcher {
            store,
            leaves,
            leaf_starts: &summaries.leaf_starts,
            pos_leaf_order: &summaries.pos_leaf_order,
            cur_leaf: 0,
            leaf_buf: Vec::new(),
            loaded: false,
        }
    }
}

impl SeriesFetcher for LeafOrderFetcher<'_> {
    fn fetch(&mut self, i: usize, out: &mut [Value]) -> Result<u64> {
        let i64 = i as u64;
        // Advance to the leaf containing scan index i (indexes arrive in
        // increasing order; binary search only on big skips).
        if !self.loaded || i64 >= self.leaf_starts[self.cur_leaf + 1] {
            while i64 >= self.leaf_starts[self.cur_leaf + 1] {
                self.cur_leaf += 1;
            }
            self.store
                .read_leaf(&self.leaves[self.cur_leaf], &mut self.leaf_buf)?;
            self.loaded = true;
        }
        let slot = (i64 - self.leaf_starts[self.cur_leaf]) as usize;
        let e = self.store.entry_slice(&self.leaf_buf, slot);
        self.store.entry().series_into(e, out);
        Ok(self.pos_leaf_order[i])
    }
}

/// In-memory summarization arrays for SIMS, shared by Coconut-Tree and
/// Coconut-Trie: a bulk load fills them; after an open or an update they
/// are loaded from the leaves by the next query.
pub(crate) struct Summaries {
    /// Keys in raw-file order; index `i` is position `range.start + i`.
    keys_by_pos: Vec<ZKey>,
    /// Keys in leaf (sorted) order.
    keys_leaf_order: Vec<ZKey>,
    /// Raw positions in leaf order (parallel to `keys_leaf_order`).
    pos_leaf_order: Vec<u64>,
    /// First scan index of each leaf (prefix sums; one extra final entry).
    leaf_starts: Vec<u64>,
}

/// An index's [`Summaries`] (`None` until built or loaded).
pub(crate) type SummaryCache = RwLock<Option<Arc<Summaries>>>;

impl Summaries {
    /// Assemble the arrays a bulk load produced for `leaves`.
    pub(crate) fn new(
        keys_by_pos: Vec<ZKey>,
        keys_leaf_order: Vec<ZKey>,
        pos_leaf_order: Vec<u64>,
        leaves: &[LeafMeta],
    ) -> Self {
        let mut leaf_starts = Vec::with_capacity(leaves.len() + 1);
        let mut acc = 0u64;
        for l in leaves {
            leaf_starts.push(acc);
            acc += l.count as u64;
        }
        leaf_starts.push(acc);
        Summaries {
            keys_by_pos,
            keys_leaf_order,
            pos_leaf_order,
            leaf_starts,
        }
    }

    /// "If SAX sums are not in memory, load them": scan the leaf region
    /// sequentially and rebuild every array, checking that the entries
    /// cover one contiguous position range.
    fn load(store: &LeafStore, leaves: &[LeafMeta], entry_count: u64) -> Result<Self> {
        let entry = store.entry();
        let mut keys_leaf_order = Vec::with_capacity(entry_count as usize);
        let mut pos_leaf_order = Vec::with_capacity(entry_count as usize);
        let mut leaf_buf = Vec::new();
        let mut min_pos = u64::MAX;
        let mut max_pos = 0u64;
        for leaf in leaves {
            store.read_leaf(leaf, &mut leaf_buf)?;
            for slot in 0..leaf.count as usize {
                let e = store.entry_slice(&leaf_buf, slot);
                let pos = entry.pos(e);
                keys_leaf_order.push(entry.key(e));
                pos_leaf_order.push(pos);
                min_pos = min_pos.min(pos);
                max_pos = max_pos.max(pos);
            }
        }
        let (start, end) = if pos_leaf_order.is_empty() {
            (0, 0)
        } else {
            (min_pos, max_pos + 1)
        };
        if end - start != entry_count {
            return Err(Error::corrupt(
                "index does not cover a contiguous position range",
            ));
        }
        let mut keys_by_pos = vec![ZKey::MIN; (end - start) as usize];
        for (k, p) in keys_leaf_order.iter().zip(pos_leaf_order.iter()) {
            keys_by_pos[(p - start) as usize] = *k;
        }
        Ok(Summaries::new(
            keys_by_pos,
            keys_leaf_order,
            pos_leaf_order,
            leaves,
        ))
    }
}

/// The SIMS view of a leaf-structured index (Coconut-Tree or -Trie): its
/// leaves, where the raw series live, and its summary cache. The scan
/// order and fetcher are chosen here, once, for every query kind:
/// materialized indexes scan in leaf order through [`LeafOrderFetcher`],
/// the others in raw-file order through [`RawFileFetcher`].
pub(crate) struct LeafScan<'a> {
    pub(crate) store: &'a LeafStore,
    pub(crate) leaves: &'a [LeafMeta],
    pub(crate) summaries: &'a SummaryCache,
    pub(crate) entry_count: u64,
    pub(crate) dataset: &'a Dataset,
    /// First raw-file position the index covers.
    pub(crate) start: u64,
    pub(crate) materialized: bool,
    pub(crate) sax: &'a SaxConfig,
    pub(crate) threads: usize,
}

impl LeafScan<'_> {
    /// Approximate search: the true distance of every entry in the
    /// `target` leaf and `radius` leaves on each side (one sequential read,
    /// because neighboring leaves are physically adjacent). Counts leaf
    /// I/O only.
    pub(crate) fn approximate(
        &self,
        query: &[Value],
        target: Option<usize>,
        radius: usize,
    ) -> Result<(Answer, QueryStats)> {
        let mut best = Answer::none();
        let mut stats = QueryStats::default();
        let Some(li) = target else {
            return Ok((best, stats));
        };
        let lo = li.saturating_sub(radius);
        let hi = (li + radius).min(self.leaves.len() - 1);
        let entry = self.store.entry();
        let mut leaf_buf = Vec::new();
        let mut series_buf = vec![0.0 as Value; self.sax.series_len];
        let mut best_sq = f64::INFINITY;
        for li in lo..=hi {
            let leaf = &self.leaves[li];
            self.store.read_leaf(leaf, &mut leaf_buf)?;
            stats.leaves_visited += 1;
            for slot in 0..leaf.count as usize {
                let e = self.store.entry_slice(&leaf_buf, slot);
                let pos = entry.pos(e);
                if self.materialized {
                    entry.series_into(e, &mut series_buf);
                } else {
                    self.dataset.read_into(pos, &mut series_buf)?;
                }
                stats.records_fetched += 1;
                let d_sq = euclidean_sq(query, &series_buf);
                if d_sq < best_sq {
                    best_sq = d_sq;
                    best = Answer {
                        pos,
                        dist: d_sq.sqrt(),
                    };
                }
            }
        }
        Ok((best, stats))
    }

    /// Run one SIMS scan `f` over the index's key array and the matching
    /// forward-only fetcher, loading the summaries on first use.
    pub(crate) fn scan<T>(
        &self,
        f: impl FnOnce(&[ZKey], &mut dyn SeriesFetcher) -> Result<T>,
    ) -> Result<T> {
        let cached = self.summaries.read().as_ref().map(Arc::clone);
        let summaries = match cached {
            Some(s) => s,
            None => {
                let mut write = self.summaries.write();
                match write.as_ref() {
                    Some(s) => Arc::clone(s),
                    None => {
                        let s =
                            Arc::new(Summaries::load(self.store, self.leaves, self.entry_count)?);
                        *write = Some(Arc::clone(&s));
                        s
                    }
                }
            }
        };
        if self.materialized {
            let mut fetcher = LeafOrderFetcher::new(self.store, self.leaves, &summaries);
            f(&summaries.keys_leaf_order, &mut fetcher)
        } else {
            let mut fetcher = RawFileFetcher {
                dataset: self.dataset,
                start: self.start,
            };
            f(&summaries.keys_by_pos, &mut fetcher)
        }
    }

    /// Exact k-NN: [`Self::approximate`] seeds [`sims_knn`]; the returned
    /// counters cover both steps.
    pub(crate) fn knn(
        &self,
        query: &[Value],
        target: Option<usize>,
        radius: usize,
        k: usize,
        bound: f64,
        deadline: Deadline,
    ) -> Result<(Vec<Answer>, QueryStats)> {
        let (seed, mut stats) = self.approximate(query, target, radius)?;
        let query_paa = paa(query, self.sax.segments);
        let (answers, sims_stats) = self.scan(|keys, fetcher| {
            sims_knn(
                query,
                &query_paa,
                keys,
                self.sax,
                self.threads,
                k,
                bound,
                seed,
                fetcher,
                deadline,
            )
        })?;
        stats.add(&sims_stats);
        Ok((answers, stats))
    }

    /// Every series within `epsilon` of the query ([`sims_range`]).
    pub(crate) fn range(
        &self,
        query: &[Value],
        epsilon: f64,
        deadline: Deadline,
    ) -> Result<(Vec<Answer>, QueryStats)> {
        let query_paa = paa(query, self.sax.segments);
        self.scan(|keys, fetcher| {
            sims_range(
                query,
                &query_paa,
                keys,
                self.sax,
                self.threads,
                epsilon,
                fetcher,
                deadline,
            )
        })
    }
}

impl SeriesIndex for CoconutTree {
    fn name(&self) -> String {
        if self.materialized {
            "CTreeFull".into()
        } else {
            "CTree".into()
        }
    }

    fn approximate(&self, query: &[Value]) -> Result<Answer> {
        self.approximate_search(query, self.default_radius)
    }

    fn exact(&self, query: &[Value]) -> Result<(Answer, QueryStats)> {
        self.exact_search(query)
    }

    fn disk_bytes(&self) -> u64 {
        self.file.len()
    }

    fn leaf_count(&self) -> u64 {
        self.leaves.len() as u64
    }

    fn avg_leaf_fill(&self) -> f64 {
        self.avg_fill()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::dataset::write_dataset;
    use coconut_series::distance::{euclidean, znormalize};
    use coconut_series::gen::{Generator, RandomWalkGen};
    use coconut_storage::TempDir;

    const LEN: usize = 64;

    fn small_config() -> IndexConfig {
        let mut c = IndexConfig::default_for_len(LEN);
        c.leaf_capacity = 32;
        c
    }

    fn make_dataset(dir: &TempDir, n: u64) -> Dataset {
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        write_dataset(&path, &mut RandomWalkGen::new(17), n, LEN, &stats).unwrap();
        Dataset::open(&path, stats).unwrap()
    }

    fn brute_force(ds: &Dataset, query: &[Value]) -> Answer {
        let mut best = Answer::none();
        let mut scan = ds.scan();
        while let Some((pos, s)) = scan.next_series().unwrap() {
            best.merge(Answer {
                pos,
                dist: euclidean(query, s),
            });
        }
        best
    }

    fn query(seed: u64) -> Vec<Value> {
        let mut q = RandomWalkGen::new(seed).generate(LEN);
        znormalize(&mut q);
        q
    }

    #[test]
    fn build_packs_leaves_and_is_contiguous() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 1000);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        assert_eq!(tree.len(), 1000);
        assert_eq!(tree.leaf_count(), 1000u64.div_ceil(32));
        assert_eq!(tree.contiguity(), 1.0);
        // All leaves except possibly the last are full.
        assert!(tree.avg_fill() > 0.9, "fill {}", tree.avg_fill());
        assert!(tree.height() >= 1);
    }

    #[test]
    fn exact_search_matches_brute_force() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 800);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        for seed in 100..110 {
            let q = query(seed);
            let (ans, stats) = tree.exact_search(&q).unwrap();
            let expect = brute_force(&ds, &q);
            assert_eq!(ans.pos, expect.pos, "seed {seed}");
            assert!((ans.dist - expect.dist).abs() < 1e-6);
            assert!(stats.lower_bounds >= 800);
        }
    }

    #[test]
    fn materialized_exact_matches_brute_force() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 500);
        let tree = CoconutTree::build(
            &ds,
            &small_config(),
            dir.path(),
            BuildOptions::default().materialized(),
        )
        .unwrap();
        assert!(tree.is_materialized());
        for seed in 200..208 {
            let q = query(seed);
            let (ans, _) = tree.exact_search(&q).unwrap();
            let expect = brute_force(&ds, &q);
            assert_eq!(ans.pos, expect.pos, "seed {seed}");
        }
    }

    #[test]
    fn approximate_is_lower_bounded_by_exact() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 600);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        for seed in 300..310 {
            let q = query(seed);
            let approx = tree.approximate_search(&q, 1).unwrap();
            let (exact, _) = tree.exact_search(&q).unwrap();
            assert!(approx.is_some());
            assert!(exact.dist <= approx.dist + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn larger_radius_never_worsens_approximate() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 600);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        for seed in 400..410 {
            let q = query(seed);
            let r0 = tree.approximate_search(&q, 0).unwrap();
            let r1 = tree.approximate_search(&q, 1).unwrap();
            let r5 = tree.approximate_search(&q, 5).unwrap();
            assert!(r1.dist <= r0.dist + 1e-9);
            assert!(r5.dist <= r1.dist + 1e-9);
        }
    }

    #[test]
    fn knn_is_sorted_and_consistent_with_exact() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 400);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let q = query(55);
        let (top, _) = tree
            .exact_knn(&q, 5, None, f64::INFINITY, Deadline::NONE)
            .unwrap();
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        let (one, _) = tree.exact_search(&q).unwrap();
        assert_eq!(top[0].pos, one.pos);
    }

    #[test]
    fn open_reloads_and_answers_identically() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 300);
        let built =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let path = built.index_path().to_path_buf();
        let reopened = CoconutTree::open(&path, &ds, 2).unwrap();
        assert_eq!(reopened.len(), built.len());
        assert_eq!(reopened.leaf_count(), built.leaf_count());
        for seed in 500..505 {
            let q = query(seed);
            let (a, _) = built.exact_search(&q).unwrap();
            let (b, _) = reopened.exact_search(&q).unwrap();
            assert_eq!(a.pos, b.pos);
        }
    }

    #[test]
    fn inserts_keep_exact_correct_and_degrade_contiguity() {
        let dir = TempDir::new("ctree").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        // Write 300 series, build over them, then append 100 more.
        let mut g = RandomWalkGen::new(17);
        {
            let mut w = coconut_series::dataset::DatasetWriter::create(
                &path,
                LEN,
                true,
                Arc::clone(&stats),
            )
            .unwrap();
            for _ in 0..400 {
                let mut s = g.generate(LEN);
                znormalize(&mut s);
                w.append(&s).unwrap();
            }
            w.finish().unwrap();
        }
        let ds = Dataset::open(&path, stats).unwrap();
        let mut tree = CoconutTree::build_range(
            &ds,
            0..300,
            &small_config(),
            dir.path(),
            BuildOptions::default(),
        )
        .unwrap();
        let batch: Vec<Vec<Value>> = (300..400).map(|p| ds.get(p).unwrap()).collect();
        tree.insert_batch(300, &batch).unwrap();
        assert_eq!(tree.len(), 400);
        assert!(tree.contiguity() < 1.0, "splits should break contiguity");
        for seed in 600..606 {
            let q = query(seed);
            let (ans, _) = tree.exact_search(&q).unwrap();
            let expect = brute_force(&ds, &q);
            assert_eq!(ans.pos, expect.pos, "seed {seed}");
        }
    }

    #[test]
    fn insert_rejects_non_contiguous_position() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 100);
        let mut tree = CoconutTree::build_range(
            &ds,
            0..50,
            &small_config(),
            dir.path(),
            BuildOptions::default(),
        )
        .unwrap();
        let q = query(1);
        assert!(tree.insert(60, &q).is_err());
        assert!(tree.insert(50, &ds.get(50).unwrap()).is_ok());
    }

    #[test]
    fn empty_dataset_yields_empty_tree() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 0);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        assert!(tree.is_empty());
        let q = query(2);
        assert!(!tree.approximate_search(&q, 1).unwrap().is_some());
        let (ans, _) = tree.exact_search(&q).unwrap();
        assert!(!ans.is_some());
    }

    #[test]
    fn wrong_query_length_rejected() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 50);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        assert!(tree.approximate_search(&[0.0; 10], 1).is_err());
    }

    #[test]
    fn fill_factor_controls_occupancy() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 320);
        let mut config = small_config();
        config.fill_factor = 0.5;
        let tree = CoconutTree::build(&ds, &config, dir.path(), BuildOptions::default()).unwrap();
        // Leaves hold 16 of 32 slots.
        assert!(
            (tree.avg_fill() - 0.5).abs() < 0.05,
            "fill {}",
            tree.avg_fill()
        );
        assert_eq!(tree.leaf_count(), 20);
    }

    #[test]
    fn sharded_build_is_bit_identical() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 1100);
        for materialized in [false, true] {
            let base_opts = BuildOptions {
                materialized,
                memory_bytes: 1 << 20, // small enough that shards spill
                ..BuildOptions::default()
            };
            let single =
                CoconutTree::build(&ds, &small_config(), dir.path(), base_opts.clone()).unwrap();
            let single_bytes = std::fs::read(single.index_path()).unwrap();
            for shards in [2usize, 4, 7] {
                let sharded = CoconutTree::build(
                    &ds,
                    &small_config(),
                    dir.path(),
                    base_opts.clone().with_shards(shards),
                )
                .unwrap();
                let sharded_bytes = std::fs::read(sharded.index_path()).unwrap();
                assert_eq!(
                    single_bytes, sharded_bytes,
                    "mat={materialized} shards={shards}: index files differ"
                );
                assert_eq!(sharded.len(), single.len());
                assert_eq!(sharded.leaf_count(), single.leaf_count());
                // The sharded index answers identically.
                for seed in 900..905 {
                    let q = query(seed);
                    let (a, _) = single.exact_search(&q).unwrap();
                    let (b, _) = sharded.exact_search(&q).unwrap();
                    assert_eq!(a.pos, b.pos, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn sharded_build_reads_one_pass() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 3000);
        let stats = Arc::clone(ds.file().stats());
        let before = stats.snapshot();
        let tree = CoconutTree::build(
            &ds,
            &small_config(),
            dir.path(),
            BuildOptions::default().with_shards(6),
        )
        .unwrap();
        assert_eq!(tree.len(), 3000);
        let delta = stats.snapshot().since(&before);
        // With ample memory no shard spills, so bytes read equal exactly
        // one pass over the raw payload.
        assert_eq!(delta.bytes_read, ds.payload_bytes());
    }

    #[test]
    fn build_io_is_sequential() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 2000);
        let stats = Arc::clone(ds.file().stats());
        let before = stats.snapshot();
        let _tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let delta = stats.snapshot().since(&before);
        // Bulk loading must be sequential-I/O dominated — the paper's core
        // claim for bottom-up construction.
        assert!(
            delta.random_ops() * 5 <= delta.total_ops(),
            "random {} of {}",
            delta.random_ops(),
            delta.total_ops()
        );
    }

    #[test]
    fn buffer_pool_serves_repeat_queries_without_changing_answers() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 600);
        let mut tree = CoconutTree::build(
            &ds,
            &small_config(),
            dir.path(),
            BuildOptions::default().materialized(),
        )
        .unwrap();
        let q = query(64);
        let (cold, _) = tree.exact_search(&q).unwrap();

        let cache = coconut_storage::PageCache::new(16 << 20);
        tree.attach_cache(Arc::clone(&cache), 1);
        let (warm1, _) = tree.exact_search(&q).unwrap();
        let (warm2, _) = tree.exact_search(&q).unwrap();
        assert_eq!(cold.pos, warm1.pos);
        assert_eq!(cold.pos, warm2.pos);
        let cs = cache.stats();
        assert!(cs.hits > 0, "second query should hit the pool ({cs:?})");
        assert!(cs.used_bytes <= cache.capacity_bytes());
    }

    #[test]
    fn buffer_pool_sees_fresh_data_after_inserts() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 400);
        let mut tree = CoconutTree::build_range(
            &ds,
            0..300,
            &small_config(),
            dir.path(),
            BuildOptions::default(),
        )
        .unwrap();
        let cache = coconut_storage::PageCache::new(16 << 20);
        tree.attach_cache(Arc::clone(&cache), 7);
        let member = ds.get(350).unwrap();
        // Warm the cache before the insert.
        let (before, _) = tree.exact_search(&member).unwrap();
        assert!(before.dist > 0.0, "series 350 not yet indexed");
        // Index the remaining series; cached leaf blocks must be refreshed.
        let batch: Vec<Vec<Value>> = (300..400).map(|p| ds.get(p).unwrap()).collect();
        tree.insert_batch(300, &batch).unwrap();
        let (after, _) = tree.exact_search(&member).unwrap();
        assert_eq!(after.pos, 350);
        assert!(after.dist < 1e-4);
    }

    #[test]
    fn range_query_matches_brute_force() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 500);
        for materialized in [false, true] {
            let opts = BuildOptions {
                materialized,
                ..BuildOptions::default()
            };
            let tree = CoconutTree::build(&ds, &small_config(), dir.path(), opts).unwrap();
            let q = query(42);
            // Pick epsilon around the 10th-nearest distance so the result
            // set is non-trivial.
            let mut dists: Vec<(u64, f64)> = (0..500)
                .map(|p| (p, euclidean(&q, &ds.get(p).unwrap())))
                .collect();
            dists.sort_by(|a, b| a.1.total_cmp(&b.1));
            let eps = dists[9].1;
            let (hits, _) = tree.exact_range(&q, eps, Deadline::NONE).unwrap();
            let expected: Vec<u64> = dists
                .iter()
                .take_while(|&&(_, d)| d <= eps)
                .map(|&(p, _)| p)
                .collect();
            assert_eq!(hits.len(), expected.len(), "mat={materialized}");
            let mut got: Vec<u64> = hits.iter().map(|a| a.pos).collect();
            got.sort_unstable();
            let mut want = expected;
            want.sort_unstable();
            assert_eq!(got, want, "mat={materialized}");
            // Sorted by distance.
            for w in hits.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
        }
    }

    #[test]
    fn range_query_epsilon_zero_finds_members_only() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 200);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let member = ds.get(77).unwrap();
        let (hits, _) = tree.exact_range(&member, 1e-6, Deadline::NONE).unwrap();
        assert!(hits.iter().any(|a| a.pos == 77));
        assert!(hits.iter().all(|a| a.dist <= 1e-6));
    }

    #[test]
    fn dtw_search_matches_brute_force() {
        use coconut_series::dtw::dtw;
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 300);
        for materialized in [false, true] {
            let opts = BuildOptions {
                materialized,
                ..BuildOptions::default()
            };
            let tree = CoconutTree::build(&ds, &small_config(), dir.path(), opts).unwrap();
            for seed in 800..805 {
                let q = query(seed);
                for band in [2usize, 6] {
                    let (ans, stats) = tree.exact_search_dtw(&q, band).unwrap();
                    // Brute force DTW.
                    let mut best = Answer::none();
                    for p in 0..300 {
                        let s = ds.get(p).unwrap();
                        best.merge(Answer {
                            pos: p,
                            dist: dtw(&q, &s, band),
                        });
                    }
                    assert_eq!(
                        ans.pos, best.pos,
                        "mat={materialized} seed={seed} band={band}"
                    );
                    assert!((ans.dist - best.dist).abs() < 1e-6);
                    assert!(stats.lower_bounds >= 300);
                }
            }
        }
    }

    #[test]
    fn dtw_answer_is_at_most_euclidean_answer() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 300);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let q = query(11);
        let (ed, _) = tree.exact_search(&q).unwrap();
        let (dt, _) = tree.exact_search_dtw(&q, 5).unwrap();
        assert!(dt.dist <= ed.dist + 1e-9);
    }

    #[test]
    fn descend_agrees_with_flat_binary_search() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 1500);
        let mut config = small_config();
        config.internal_fanout = 4; // force several levels
        let tree = CoconutTree::build(&ds, &config, dir.path(), BuildOptions::default()).unwrap();
        assert!(tree.height() >= 3);
        for seed in 700..720 {
            let q = query(seed);
            let key = tree.query_key(&q).unwrap();
            let (li, _) = tree.descend(key).unwrap();
            let flat = tree.levels[0]
                .partition_point(|&k| k <= key)
                .saturating_sub(1);
            assert_eq!(li, flat, "seed {seed}");
        }
    }
}
