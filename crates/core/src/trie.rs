//! Coconut-Trie: bottom-up bulk loading of a prefix-split index
//! (paper Section 4.2, Algorithm 2).
//!
//! Coconut-Trie keeps the state of the art's node shape — every node is an
//! iSAX prefix, here a prefix of the interleaved z-order key — but builds
//! the index *bottom-up* from the externally sorted summarizations and
//! compacts it, so that leaves end up contiguous on disk. Because the keys
//! are sorted, every prefix node covers a contiguous key range; the
//! recursive builder emits a leaf as soon as a subtree fits in one node,
//! which is exactly the fixpoint `CompactSubtree` reaches by repeatedly
//! merging sibling leaves that fit together.
//!
//! What Coconut-Trie does **not** fix (by design — it isolates the
//! contiguity variable) is occupancy: prefix boundaries cannot balance
//! entries, so most leaves stay nearly empty and the on-disk size is
//! inflated — the effect the paper measures in Figure 8c and the reason
//! Coconut-Tree wins overall.
//!
//! The *splitting decision* is therefore pluggable: a
//! [`crate::split::SplitPolicy`] chooses, at every oversized subtree, how
//! many interleaved bits the node consumes. The default
//! [`crate::split::FixedBinaryPolicy`] reproduces the paper's binary trie
//! byte-for-byte; [`crate::split::AdaptivePolicy`] builds Dumpy-style
//! variable-fanout nodes (`TrieNode::Multi` internally) whose undersized
//! sibling slots are greedily merged into shared leaves, recovering most of
//! the occupancy Coconut-Tree gets — without giving up prefix semantics.
//! Both policies produce bit-identical *query answers* (exact search runs
//! over the same sorted keys either way); only the leaf partitioning and
//! the approximate-search seed differ.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use coconut_series::dataset::Dataset;
use coconut_series::index::{Answer, QueryStats, SeriesIndex};
use coconut_series::Value;
use coconut_storage::{CountedFile, Deadline, Error, RecordStream, Result};
use coconut_summary::sax::Summarizer;
use coconut_summary::ZKey;

use crate::builder::{sorted_key_pos, sorted_key_series, BuildReport};
use crate::config::{BuildOptions, IndexConfig};
use crate::layout::{
    crc32, read_directory, write_directory, EntryLayout, IndexHeader, LeafMeta, LeafStore,
    CHECKSUM_VERSION,
};
use crate::records::{KeyPos, KeySeries};
use crate::shard::{sorted_key_pos_sharded, sorted_key_series_sharded};
use crate::split::{child_counts, merge_slots, SplitPolicy, SplitPolicyKind};
use crate::tree::{LeafScan, Summaries, SummaryCache};

static TRIE_ID: AtomicU64 = AtomicU64::new(0);

/// A node of the in-memory trie skeleton. Chains of one-child prefix nodes
/// are path-compressed: each node records its own bit depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrieNode {
    /// An internal binary split on interleaved-key bit `depth`.
    Internal { depth: u32, zero: u32, one: u32 },
    /// A leaf holding logical leaf `leaf` (index into the leaf directory).
    Leaf { leaf: u32 },
    /// A variable-fanout split consuming `bits` interleaved bits starting at
    /// bit `depth`: child for slot `v` is `children[start + v]` in the
    /// trie's slot arena. Merged sibling slots share a child, so the same
    /// node id may appear in consecutive slots. Adaptive-policy builds only.
    Multi { depth: u32, bits: u8, start: u32 },
}

/// The Coconut-Trie index.
pub struct CoconutTrie {
    config: IndexConfig,
    materialized: bool,
    threads: usize,
    dataset: Dataset,
    file: Arc<CountedFile>,
    store: LeafStore,
    leaves: Vec<LeafMeta>,
    nodes: Vec<TrieNode>,
    /// Slot arena for `TrieNode::Multi` nodes (empty on fixed builds).
    children: Vec<u32>,
    root: Option<u32>,
    summaries: SummaryCache,
    entry_count: u64,
    range: std::ops::Range<u64>,
    build_report: BuildReport,
    default_radius: usize,
}

impl CoconutTrie {
    /// Bulk-load a trie over all of `dataset` (Algorithm 2).
    pub fn build(
        dataset: &Dataset,
        config: &IndexConfig,
        dir: &Path,
        opts: BuildOptions,
    ) -> Result<Self> {
        Self::build_range(dataset, 0..dataset.len(), config, dir, opts)
    }

    /// Bulk-load a trie over the positions `range` of `dataset`.
    pub fn build_range(
        dataset: &Dataset,
        range: std::ops::Range<u64>,
        config: &IndexConfig,
        dir: &Path,
        opts: BuildOptions,
    ) -> Result<Self> {
        config.validate()?;
        if dataset.series_len() != config.sax.series_len {
            return Err(Error::invalid("dataset/config series length mismatch"));
        }
        if range.end > dataset.len() || range.start > range.end {
            return Err(Error::invalid("build range out of dataset bounds"));
        }
        let id = TRIE_ID.fetch_add(1, Ordering::Relaxed);
        let suffix = if opts.materialized { "full" } else { "ptr" };
        let path = dir.join(format!("ctrie-{id}-{suffix}.idx"));
        let stats = Arc::clone(dataset.file().stats());
        let file = Arc::new(CountedFile::create(&path, stats)?);
        let entry = EntryLayout {
            series_len: config.sax.series_len,
            materialized: opts.materialized,
        };
        let store = LeafStore::new(Arc::clone(&file), entry, config.leaf_capacity);
        let mut trie = CoconutTrie {
            config: *config,
            materialized: opts.materialized,
            threads: opts.threads.max(1),
            dataset: dataset.clone(),
            file,
            store,
            leaves: Vec::new(),
            nodes: Vec::new(),
            children: Vec::new(),
            root: None,
            summaries: RwLock::new(None),
            entry_count: 0,
            range: range.clone(),
            build_report: BuildReport::default(),
            default_radius: 1,
        };
        trie.bulk_load(dir, &opts)?;
        Ok(trie)
    }

    fn bulk_load(&mut self, tmp_dir: &Path, opts: &BuildOptions) -> Result<()> {
        // Phase 1: sort the (key, position) pairs. Like the paper, we rely
        // on the summarizations fitting in memory ("usually all the
        // summarizations and their offsets fit in main memory"); the raw
        // payloads of -Full builds are still sorted externally below.
        let stats = Arc::clone(self.dataset.file().stats());
        let mut sorted: Vec<KeyPos> =
            Vec::with_capacity((self.range.end - self.range.start) as usize);
        {
            let mut stream: Box<dyn RecordStream<Item = KeyPos>> = if opts.shards > 1 {
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
            self.build_report.sort = stream.report();
            while let Some(kp) = stream.next_item()? {
                sorted.push(kp);
            }
        }
        self.entry_count = sorted.len() as u64;

        // Phase 2: recursively carve the sorted order into prefix leaves
        // (insertBottomUp + CompactSubtree): a maximal subtree whose entries
        // fit one leaf becomes one leaf. How an oversized subtree splits is
        // the policy's call (fixed binary vs adaptive variable fanout).
        let total_bits = self.config.sax.word_bits();
        let policy = self.config.split_policy.policy();
        let keys: Vec<ZKey> = sorted.iter().map(|kp| kp.key).collect();
        let mut ranges: Vec<(usize, usize)> = Vec::new(); // leaf -> [lo, hi)
        if !keys.is_empty() {
            let root = self.carve(&keys, 0, keys.len(), 0, total_bits, &mut ranges, &*policy);
            self.root = Some(root);
        }

        // Phase 3: write the leaves contiguously, left to right.
        let entry = *self.store.entry();
        let eb = entry.entry_bytes();
        let mut next_block = 0u32;
        if opts.materialized {
            // The -Full variant re-sorts with payloads and streams them into
            // the leaf layout (the extra sort-merge passes the paper charges
            // Coconut-Trie-Full for).
            let mut stream: Box<dyn RecordStream<Item = KeySeries>> = if opts.shards > 1 {
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
            let mut entry_buf = vec![0u8; eb];
            let mut block_buf: Vec<u8> = Vec::new();
            for &(lo, hi) in &ranges {
                block_buf.clear();
                let mut first_key = ZKey::MIN;
                for (i, expected) in sorted[lo..hi].iter().enumerate() {
                    let rec = stream.next_item()?.ok_or_else(|| {
                        Error::corrupt("materialized stream shorter than key stream")
                    })?;
                    debug_assert_eq!(rec.key, expected.key);
                    if i == 0 {
                        first_key = rec.key;
                    }
                    entry.encode(rec.key, rec.pos, Some(&rec.series), &mut entry_buf);
                    block_buf.extend_from_slice(&entry_buf);
                }
                let blocks_used = self.store.write_leaf(next_block, &block_buf)?;
                self.leaves.push(LeafMeta {
                    first_key,
                    count: (hi - lo) as u32,
                    block: next_block,
                    blocks_used,
                    crc: crc32(&block_buf),
                });
                next_block += blocks_used;
            }
        } else {
            let mut entry_buf = vec![0u8; eb];
            let mut block_buf: Vec<u8> = Vec::new();
            for &(lo, hi) in &ranges {
                block_buf.clear();
                for kp in &sorted[lo..hi] {
                    entry.encode(kp.key, kp.pos, None, &mut entry_buf);
                    block_buf.extend_from_slice(&entry_buf);
                }
                let blocks_used = self.store.write_leaf(next_block, &block_buf)?;
                self.leaves.push(LeafMeta {
                    first_key: sorted[lo].key,
                    count: (hi - lo) as u32,
                    block: next_block,
                    blocks_used,
                    crc: crc32(&block_buf),
                });
                next_block += blocks_used;
            }
        }

        self.build_report.items = self.entry_count;
        self.build_report.leaves = self.leaves.len() as u64;
        self.persist(next_block)?;

        // Summaries come for free from the sorted pairs.
        let n = (self.range.end - self.range.start) as usize;
        let mut keys_by_pos = vec![ZKey::MIN; n];
        for kp in &sorted {
            keys_by_pos[(kp.pos - self.range.start) as usize] = kp.key;
        }
        let keys_leaf_order: Vec<ZKey> = sorted.iter().map(|kp| kp.key).collect();
        let pos_leaf_order: Vec<u64> = sorted.iter().map(|kp| kp.pos).collect();
        *self.summaries.write() = Some(Arc::new(Summaries::new(
            keys_by_pos,
            keys_leaf_order,
            pos_leaf_order,
            &self.leaves,
        )));
        Ok(())
    }

    /// Recursively partition the sorted keys `[lo, hi)` starting at bit
    /// `depth`; appends leaf ranges in order and returns the subtree's node
    /// index. Every key in the window shares its first `depth` bits, so the
    /// window is sorted by the remaining bits — all boundaries are binary
    /// searches.
    #[allow(clippy::too_many_arguments)]
    fn carve(
        &mut self,
        keys: &[ZKey],
        lo: usize,
        hi: usize,
        depth: usize,
        total_bits: usize,
        ranges: &mut Vec<(usize, usize)>,
        policy: &dyn SplitPolicy,
    ) -> u32 {
        debug_assert!(lo < hi);
        if hi - lo <= self.config.leaf_capacity || depth == total_bits {
            if hi - lo > self.config.leaf_capacity {
                // Identical keys beyond capacity cannot be refined further;
                // count the oversized leaf instead of absorbing it silently.
                self.build_report.oversized_leaves += 1;
            }
            let leaf_id = ranges.len() as u32;
            ranges.push((lo, hi));
            self.nodes.push(TrieNode::Leaf { leaf: leaf_id });
            return (self.nodes.len() - 1) as u32;
        }
        let bits = policy
            .choose_bits(&keys[lo..hi], depth, total_bits, self.config.leaf_capacity)
            .clamp(1, total_bits - depth);
        if bits == 1 {
            // The paper's binary split, kept verbatim: fixed-policy builds
            // must stay byte-identical to the pre-policy builder.
            let mid = lo + keys[lo..hi].partition_point(|k| k.bit(depth, total_bits) == 0);
            if mid == lo || mid == hi {
                // All entries share this bit: path-compress (the paper's
                // createUptree emits a chain of one-child nodes; we skip them).
                return self.carve(keys, lo, hi, depth + 1, total_bits, ranges, policy);
            }
            let zero = self.carve(keys, lo, mid, depth + 1, total_bits, ranges, policy);
            let one = self.carve(keys, mid, hi, depth + 1, total_bits, ranges, policy);
            self.nodes.push(TrieNode::Internal {
                depth: depth as u32,
                zero,
                one,
            });
            return (self.nodes.len() - 1) as u32;
        }
        let counts = child_counts(&keys[lo..hi], depth, bits, total_bits);
        if counts.iter().filter(|&&c| c > 0).count() == 1 {
            // Every entry shares all `bits` bits: path-compress the whole
            // window (the multi-bit generalization of the binary case).
            return self.carve(keys, lo, hi, depth + bits, total_bits, ranges, policy);
        }
        // Greedily merge undersized consecutive slots into shared leaves;
        // only a single still-oversized slot deepens.
        let fanout = 1usize << bits;
        let mut slot_nodes = vec![u32::MAX; fanout];
        let mut cursor = lo;
        for g in merge_slots(&counts, self.config.leaf_capacity) {
            let (glo, ghi) = (cursor, cursor + g.entries);
            cursor = ghi;
            if g.entries == 0 {
                continue; // routed to a neighboring group's node below
            }
            let node = if g.entries <= self.config.leaf_capacity {
                let leaf_id = ranges.len() as u32;
                ranges.push((glo, ghi));
                self.nodes.push(TrieNode::Leaf { leaf: leaf_id });
                (self.nodes.len() - 1) as u32
            } else {
                self.carve(keys, glo, ghi, depth + bits, total_bits, ranges, policy)
            };
            for s in g.slots {
                slot_nodes[s] = node;
            }
        }
        debug_assert_eq!(cursor, hi);
        // Empty slots route to the nearest populated neighbor so descent is
        // total for any query key.
        let mut last = u32::MAX;
        for slot in slot_nodes.iter_mut() {
            if *slot != u32::MAX {
                last = *slot;
            } else {
                *slot = last;
            }
        }
        let mut last = u32::MAX;
        for slot in slot_nodes.iter_mut().rev() {
            if *slot != u32::MAX {
                last = *slot;
            } else {
                *slot = last;
            }
        }
        let start = self.children.len() as u32;
        self.children.extend_from_slice(&slot_nodes);
        self.nodes.push(TrieNode::Multi {
            depth: depth as u32,
            bits: bits as u8,
            start,
        });
        (self.nodes.len() - 1) as u32
    }

    /// Re-read every leaf block and verify it against its directory CRC
    /// (the `coconut scrub` primitive). Returns on the first corrupt leaf
    /// with a typed error; legacy unchecked leaves are counted but not
    /// verifiable.
    pub fn verify(&self) -> Result<crate::layout::ScrubReport> {
        crate::layout::scrub_leaves(&self.store, &self.leaves)
    }

    fn persist(&mut self, num_blocks: u32) -> Result<()> {
        let dir_offset = write_directory(&self.file, &self.leaves)?;
        // Trie skeleton tail. Version 0 (fixed policy) is the original
        // fixed-width encoding — node count, then 13-byte (tag, a, b)
        // triples — kept byte-for-byte so fixed builds round-trip against
        // pre-versioning readers and files. Version 1 (adaptive policy)
        // uses variable-length records to fit the Multi node's slot table.
        let tail_version: u8 = match self.config.split_policy {
            SplitPolicyKind::Fixed => 0,
            SplitPolicyKind::Adaptive => 1,
        };
        let mut buf = Vec::with_capacity(8 + self.nodes.len() * 13);
        buf.extend_from_slice(&(self.nodes.len() as u64).to_le_bytes());
        for n in &self.nodes {
            match *n {
                TrieNode::Internal { depth, zero, one } => {
                    buf.push(0);
                    buf.extend_from_slice(&depth.to_le_bytes());
                    buf.extend_from_slice(&zero.to_le_bytes());
                    buf.extend_from_slice(&one.to_le_bytes());
                }
                TrieNode::Leaf { leaf } => {
                    buf.push(1);
                    buf.extend_from_slice(&leaf.to_le_bytes());
                    if tail_version == 0 {
                        buf.extend_from_slice(&[0u8; 8]);
                    }
                }
                TrieNode::Multi { depth, bits, start } => {
                    debug_assert_eq!(tail_version, 1, "Multi nodes need tail v1");
                    buf.push(2);
                    buf.extend_from_slice(&depth.to_le_bytes());
                    buf.push(bits);
                    let fanout = 1usize << bits;
                    for child in &self.children[start as usize..start as usize + fanout] {
                        buf.extend_from_slice(&child.to_le_bytes());
                    }
                }
            }
        }
        buf.extend_from_slice(&self.root.map_or(u32::MAX, |r| r).to_le_bytes());
        self.file.append(&buf)?;
        let header = IndexHeader {
            kind: 1,
            materialized: self.materialized,
            series_len: self.config.sax.series_len as u32,
            segments: self.config.sax.segments as u16,
            card_bits: self.config.sax.card_bits,
            leaf_capacity: self.config.leaf_capacity as u32,
            entry_count: self.entry_count,
            num_blocks: num_blocks as u64,
            dir_offset,
            tail_version,
            split_policy: self.config.split_policy.as_u8(),
            checksums: CHECKSUM_VERSION,
        };
        header.write_to(&self.file)?;
        self.file.sync()
    }

    /// Open a previously built trie index file.
    pub fn open(path: &Path, dataset: &Dataset, threads: usize) -> Result<Self> {
        let stats = Arc::clone(dataset.file().stats());
        let file = Arc::new(CountedFile::open_rw(path, stats)?);
        let header = IndexHeader::read_from(&file)?;
        if header.kind != 1 {
            return Err(Error::corrupt("not a Coconut-Trie index file"));
        }
        if header.series_len as usize != dataset.series_len() {
            return Err(Error::corrupt("index/dataset series length mismatch"));
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
            split_policy: SplitPolicyKind::from_u8(header.split_policy)?,
        };
        config.validate()?;
        let (leaves, tail) = read_directory(&file, header.dir_offset)?;
        let mut count_buf = [0u8; 8];
        file.read_exact_at(&mut count_buf, tail)?;
        let node_count = u64::from_le_bytes(count_buf) as usize;
        let mut nodes = Vec::with_capacity(node_count);
        let mut children: Vec<u32> = Vec::new();
        let root_raw = match header.tail_version {
            0 => {
                // Fixed-width 13-byte records.
                let mut nodes_buf = vec![0u8; node_count * 13 + 4];
                file.read_exact_at(&mut nodes_buf, tail + 8)?;
                for c in nodes_buf[..node_count * 13].chunks_exact(13) {
                    let a = crate::le::u32(&c[1..5]);
                    match c[0] {
                        0 => {
                            let zero = crate::le::u32(&c[5..9]);
                            let one = crate::le::u32(&c[9..13]);
                            nodes.push(TrieNode::Internal {
                                depth: a,
                                zero,
                                one,
                            });
                        }
                        1 => nodes.push(TrieNode::Leaf { leaf: a }),
                        t => return Err(Error::corrupt(format!("bad trie node tag {t}"))),
                    }
                }
                crate::le::u32(&nodes_buf[node_count * 13..])
            }
            1 => {
                // Variable-length records: everything after the node count
                // up to end-of-file is records plus the trailing root u32.
                let tail_len = (file.len() - (tail + 8)) as usize;
                let mut buf = vec![0u8; tail_len];
                file.read_exact_at(&mut buf, tail + 8)?;
                let mut off = 0usize;
                let take = |buf: &[u8], off: &mut usize, n: usize| -> Result<()> {
                    if *off + n > buf.len() {
                        return Err(Error::corrupt("trie tail truncated"));
                    }
                    *off += n;
                    Ok(())
                };
                for _ in 0..node_count {
                    take(&buf, &mut off, 1)?;
                    match buf[off - 1] {
                        0 => {
                            take(&buf, &mut off, 12)?;
                            let c = &buf[off - 12..off];
                            nodes.push(TrieNode::Internal {
                                depth: crate::le::u32(&c[0..4]),
                                zero: crate::le::u32(&c[4..8]),
                                one: crate::le::u32(&c[8..12]),
                            });
                        }
                        1 => {
                            take(&buf, &mut off, 4)?;
                            let leaf = crate::le::u32(&buf[off - 4..off]);
                            nodes.push(TrieNode::Leaf { leaf });
                        }
                        2 => {
                            take(&buf, &mut off, 5)?;
                            let c = &buf[off - 5..off];
                            let depth = crate::le::u32(&c[0..4]);
                            let bits = c[4];
                            if bits == 0 || bits > 32 {
                                return Err(Error::corrupt(format!(
                                    "bad trie multi-node fanout bits {bits}"
                                )));
                            }
                            let fanout = 1usize << bits;
                            take(&buf, &mut off, fanout * 4)?;
                            let start = children.len() as u32;
                            for s in buf[off - fanout * 4..off].chunks_exact(4) {
                                children.push(crate::le::u32(s));
                            }
                            nodes.push(TrieNode::Multi { depth, bits, start });
                        }
                        t => return Err(Error::corrupt(format!("bad trie node tag {t}"))),
                    }
                }
                take(&buf, &mut off, 4)?;
                crate::le::u32(&buf[off - 4..off])
            }
            v => {
                return Err(Error::corrupt(format!(
                    "unsupported trie tail version {v} (reader knows 0 and 1)"
                )))
            }
        };
        let root = if root_raw == u32::MAX {
            None
        } else {
            Some(root_raw)
        };
        let entry = EntryLayout {
            series_len: config.sax.series_len,
            materialized: header.materialized,
        };
        let store = LeafStore::new(Arc::clone(&file), entry, config.leaf_capacity);
        Ok(CoconutTrie {
            config,
            materialized: header.materialized,
            threads: threads.max(1),
            dataset: dataset.clone(),
            file,
            store,
            leaves,
            nodes,
            children,
            root,
            summaries: RwLock::new(None),
            entry_count: header.entry_count,
            range: 0..dataset.len(),
            build_report: BuildReport::default(),
            default_radius: 1,
        })
    }

    /// The build report.
    pub fn build_report(&self) -> BuildReport {
        self.build_report
    }

    /// Entries in the index.
    pub fn len(&self) -> u64 {
        self.entry_count
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// Whether leaves embed raw series.
    pub fn is_materialized(&self) -> bool {
        self.materialized
    }

    /// Set the leaf radius used by the trait entry points.
    pub fn set_default_radius(&mut self, radius: usize) {
        self.default_radius = radius;
    }

    /// Route leaf reads through a shared buffer pool (`file_id` must be
    /// unique per index within the pool).
    pub fn attach_cache(
        &mut self,
        cache: std::sync::Arc<coconut_storage::PageCache>,
        file_id: u32,
    ) {
        self.store.attach_cache(cache, file_id);
    }

    /// Number of trie nodes (internal + leaf) in the skeleton.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The index configuration (reconstructed from the header on open).
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Entry count of every leaf, in leaf order. Divide by
    /// `config().leaf_capacity` for fill fractions.
    pub fn leaf_entry_counts(&self) -> Vec<usize> {
        self.leaves.iter().map(|l| l.count as usize).collect()
    }

    /// Leaves holding more entries than `leaf_capacity` (only possible when
    /// identical keys exceed capacity). Computed from the directory, so it
    /// is correct for reopened indexes too.
    pub fn oversized_leaf_count(&self) -> u64 {
        self.leaves
            .iter()
            .filter(|l| l.count as usize > self.config.leaf_capacity)
            .count() as u64
    }

    /// Bit depth of every leaf, in leaf order: the interleaved key bits
    /// consumed by the split nodes on its root path (path-compressed
    /// one-child levels are skipped, matching the in-memory skeleton).
    pub fn leaf_depths(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.leaves.len()];
        let Some(root) = self.root else {
            return out;
        };
        // (node, bit depth at which the node's subtree starts). Merged
        // Multi slots repeat a child id in consecutive slots; visit each
        // distinct child once.
        let mut stack: Vec<(u32, u32)> = vec![(root, 0)];
        while let Some((node, at)) = stack.pop() {
            match self.nodes[node as usize] {
                TrieNode::Leaf { leaf } => out[leaf as usize] = at,
                TrieNode::Internal { depth, zero, one } => {
                    stack.push((zero, depth + 1));
                    stack.push((one, depth + 1));
                }
                TrieNode::Multi { depth, bits, start } => {
                    let fanout = 1usize << bits;
                    let slots = &self.children[start as usize..start as usize + fanout];
                    let mut prev = u32::MAX;
                    for &child in slots {
                        if child != prev {
                            stack.push((child, depth + bits as u32));
                            prev = child;
                        }
                    }
                }
            }
        }
        out
    }

    /// Path of the index file.
    pub fn index_path(&self) -> &Path {
        self.file.path()
    }

    /// Descend to the leaf the query key belongs to.
    fn descend(&self, key: ZKey) -> Option<(usize, u64)> {
        let total_bits = self.config.sax.word_bits();
        let mut node = self.root?;
        let mut visited = 0u64;
        loop {
            visited += 1;
            match self.nodes[node as usize] {
                TrieNode::Leaf { leaf } => return Some((leaf as usize, visited)),
                TrieNode::Internal { depth, zero, one } => {
                    node = if key.bit(depth as usize, total_bits) == 0 {
                        zero
                    } else {
                        one
                    };
                }
                TrieNode::Multi { depth, bits, start } => {
                    let v = key.bits(depth as usize, bits as usize, total_bits);
                    node = self.children[start as usize + v as usize];
                }
            }
        }
    }

    fn query_key(&self, query: &[Value]) -> Result<ZKey> {
        if query.len() != self.config.sax.series_len {
            return Err(Error::invalid("query length mismatch"));
        }
        let mut summarizer = Summarizer::new(self.config.sax);
        Ok(summarizer.zkey(query))
    }

    /// The SIMS view of this trie's leaves and summaries (the same scan
    /// machinery as Coconut-Tree's).
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

    /// The leaf the query's key descends to (`None` on an empty trie).
    fn target_leaf(&self, query: &[Value]) -> Result<Option<usize>> {
        Ok(self.descend(self.query_key(query)?).map(|(li, _)| li))
    }

    /// Approximate search: descend to the single most promising leaf, plus
    /// `radius` physically neighboring leaves (contiguous on disk — the
    /// property Coconut-Trie adds over the state of the art).
    pub fn approximate_search(&self, query: &[Value], radius: usize) -> Result<Answer> {
        let target = self.target_leaf(query)?;
        Ok(self.leaf_scan().approximate(query, target, radius)?.0)
    }

    /// Exact k-NN via SIMS (k = 1 is exact search), seeded by approximate
    /// search over `radius` leaves on each side (`None`: the default
    /// radius); see [`crate::CoconutTree::exact_knn`] for `bound` and
    /// `deadline`.
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

    /// Exact range query (extension): every series within Euclidean
    /// distance `epsilon`, sorted by distance.
    pub fn exact_range(
        &self,
        query: &[Value],
        epsilon: f64,
        deadline: Deadline,
    ) -> Result<(Vec<Answer>, QueryStats)> {
        self.query_key(query)?;
        self.leaf_scan().range(query, epsilon, deadline)
    }

    /// Mean leaf occupancy relative to capacity — low by construction for
    /// prefix splitting (the paper reports ~10%).
    pub fn avg_fill(&self) -> f64 {
        if self.leaves.is_empty() {
            return 0.0;
        }
        let slots: u64 = self
            .leaves
            .iter()
            .map(|l| l.blocks_used as u64 * self.config.leaf_capacity as u64)
            .sum();
        self.entry_count as f64 / slots as f64
    }
}

impl SeriesIndex for CoconutTrie {
    fn name(&self) -> String {
        if self.materialized {
            "CTrieFull".into()
        } else {
            "CTrie".into()
        }
    }

    fn approximate(&self, query: &[Value]) -> Result<Answer> {
        self.approximate_search(query, self.default_radius)
    }

    fn exact(&self, query: &[Value]) -> Result<(Answer, QueryStats)> {
        let (top, stats) = self.exact_knn(query, 1, None, f64::INFINITY, Deadline::NONE)?;
        Ok((top.first().copied().unwrap_or(Answer::none()), stats))
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
    use coconut_storage::{IoStats, TempDir};

    const LEN: usize = 64;

    fn small_config() -> IndexConfig {
        let mut c = IndexConfig::default_for_len(LEN);
        c.leaf_capacity = 32;
        c
    }

    fn make_dataset(dir: &TempDir, n: u64) -> Dataset {
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        write_dataset(&path, &mut RandomWalkGen::new(23), n, LEN, &stats).unwrap();
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
    fn build_produces_consistent_leaves() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 1000);
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        assert_eq!(trie.len(), 1000);
        let leaf_total: u64 = trie.leaves.iter().map(|l| l.count as u64).sum();
        assert_eq!(leaf_total, 1000);
        // Prefix splitting cannot balance: occupancy is well below 100%.
        assert!(trie.avg_fill() < 0.9, "fill {}", trie.avg_fill());
        // Every leaf respects capacity (no oversized leaves for random data).
        assert!(trie.leaves.iter().all(|l| l.count as usize <= 32));
        // Leaves are written contiguously: block numbers increase by
        // blocks_used.
        for w in trie.leaves.windows(2) {
            assert_eq!(w[1].block, w[0].block + w[0].blocks_used);
        }
    }

    #[test]
    fn trie_has_more_leaves_than_tree_for_same_data() {
        // The paper's occupancy argument: prefix splits -> sparse leaves ->
        // more leaves than median-based packing.
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 1000);
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let tree = crate::tree::CoconutTree::build(
            &ds,
            &small_config(),
            dir.path(),
            BuildOptions::default(),
        )
        .unwrap();
        assert!(
            trie.leaf_count() > tree.leaf_count(),
            "trie {} <= tree {}",
            trie.leaf_count(),
            tree.leaf_count()
        );
    }

    #[test]
    fn exact_search_matches_brute_force() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 700);
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        for seed in 100..110 {
            let q = query(seed);
            let (ans, _) = trie.exact(&q).unwrap();
            let expect = brute_force(&ds, &q);
            assert_eq!(ans.pos, expect.pos, "seed {seed}");
        }
    }

    #[test]
    fn materialized_exact_matches_brute_force() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 400);
        let trie = CoconutTrie::build(
            &ds,
            &small_config(),
            dir.path(),
            BuildOptions::default().materialized(),
        )
        .unwrap();
        for seed in 200..206 {
            let q = query(seed);
            let (ans, _) = trie.exact(&q).unwrap();
            let expect = brute_force(&ds, &q);
            assert_eq!(ans.pos, expect.pos, "seed {seed}");
        }
    }

    #[test]
    fn approximate_never_beats_exact() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 500);
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        for seed in 300..308 {
            let q = query(seed);
            let approx = trie.approximate_search(&q, 1).unwrap();
            let (exact, _) = trie.exact(&q).unwrap();
            assert!(exact.dist <= approx.dist + 1e-9);
        }
    }

    #[test]
    fn open_reloads_identically() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 300);
        let built =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let path = built.index_path().to_path_buf();
        let reopened = CoconutTrie::open(&path, &ds, 2).unwrap();
        assert_eq!(reopened.len(), built.len());
        assert_eq!(reopened.node_count(), built.node_count());
        for seed in 400..405 {
            let q = query(seed);
            let (a, _) = built.exact(&q).unwrap();
            let (b, _) = reopened.exact(&q).unwrap();
            assert_eq!(a.pos, b.pos);
        }
    }

    #[test]
    fn duplicate_keys_beyond_capacity_form_oversized_leaf() {
        // A constant dataset: every series has the same key.
        let dir = TempDir::new("ctrie").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("flat.bin");
        let mut w =
            coconut_series::dataset::DatasetWriter::create(&path, LEN, true, Arc::clone(&stats))
                .unwrap();
        for _ in 0..100 {
            w.append(&vec![0.0; LEN]).unwrap();
        }
        w.finish().unwrap();
        let ds = Dataset::open(&path, stats).unwrap();
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        assert_eq!(trie.leaf_count(), 1);
        assert_eq!(trie.leaves[0].count, 100);
        assert!(trie.leaves[0].blocks_used > 1);
        // Queries still work.
        let q = query(1);
        let (ans, _) = trie.exact(&q).unwrap();
        assert!(ans.is_some());
    }

    #[test]
    fn trie_knn_matches_tree_knn() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 400);
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let tree = crate::tree::CoconutTree::build(
            &ds,
            &small_config(),
            dir.path(),
            BuildOptions::default(),
        )
        .unwrap();
        for seed in 500..504 {
            let q = query(seed);
            let (a, _) = trie
                .exact_knn(&q, 4, None, f64::INFINITY, Deadline::NONE)
                .unwrap();
            let (b, _) = tree
                .exact_knn(&q, 4, None, f64::INFINITY, Deadline::NONE)
                .unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x.dist - y.dist).abs() < 1e-9, "seed {seed}");
            }
        }
    }

    #[test]
    fn trie_range_matches_brute_force() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 300);
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let q = query(77);
        let mut dists: Vec<(u64, f64)> = (0..300)
            .map(|p| (p, euclidean(&q, &ds.get(p).unwrap())))
            .collect();
        dists.sort_by(|a, b| a.1.total_cmp(&b.1));
        let eps = dists[4].1;
        let (hits, _) = trie.exact_range(&q, eps, Deadline::NONE).unwrap();
        let expected: Vec<u64> = dists
            .iter()
            .take_while(|&&(_, d)| d <= eps)
            .map(|&(p, _)| p)
            .collect();
        let mut got: Vec<u64> = hits.iter().map(|a| a.pos).collect();
        got.sort_unstable();
        let mut want = expected;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn sharded_build_is_bit_identical() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 900);
        for materialized in [false, true] {
            let base_opts = BuildOptions {
                materialized,
                memory_bytes: 1 << 20,
                ..BuildOptions::default()
            };
            let single =
                CoconutTrie::build(&ds, &small_config(), dir.path(), base_opts.clone()).unwrap();
            let single_bytes = std::fs::read(single.index_path()).unwrap();
            for shards in [3usize, 8] {
                let sharded = CoconutTrie::build(
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
                assert_eq!(sharded.node_count(), single.node_count());
            }
        }
    }

    #[test]
    fn empty_dataset() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 0);
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        assert!(trie.is_empty());
        let q = query(9);
        assert!(!trie.approximate_search(&q, 1).unwrap().is_some());
        let (ans, _) = trie.exact(&q).unwrap();
        assert!(!ans.is_some());
    }

    fn adaptive_config() -> IndexConfig {
        small_config().with_split_policy(crate::split::SplitPolicyKind::Adaptive)
    }

    /// A clustered dataset: `clusters` base shapes plus per-series noise, so
    /// z-keys share long prefixes and binary prefix splits leave leaves
    /// sparse — the regime the adaptive policy is built for.
    fn skewed_dataset(dir: &TempDir, n: u64, clusters: u64, seed: u64) -> Dataset {
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join(format!("skew-{seed}.bin"));
        let bases: Vec<Vec<Value>> = (0..clusters)
            .map(|c| {
                let mut b = RandomWalkGen::new(seed * 1000 + c).generate(LEN);
                znormalize(&mut b);
                b
            })
            .collect();
        let mut w =
            coconut_series::dataset::DatasetWriter::create(&path, LEN, true, Arc::clone(&stats))
                .unwrap();
        let mut state = seed | 1;
        for i in 0..n {
            let base = &bases[(i % clusters) as usize];
            let mut s: Vec<Value> = base
                .iter()
                .map(|&v| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let noise = ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 0.02;
                    v + noise as Value
                })
                .collect();
            znormalize(&mut s);
            w.append(&s).unwrap();
        }
        w.finish().unwrap();
        Dataset::open(&path, stats).unwrap()
    }

    #[test]
    fn adaptive_answers_match_fixed_and_brute_force() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = skewed_dataset(&dir, 600, 5, 11);
        let fixed =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let adaptive =
            CoconutTrie::build(&ds, &adaptive_config(), dir.path(), BuildOptions::default())
                .unwrap();
        for seed in 600..610 {
            let q = query(seed);
            let (a, _) = adaptive.exact(&q).unwrap();
            let (f, _) = fixed.exact(&q).unwrap();
            let expect = brute_force(&ds, &q);
            assert_eq!(a.pos, expect.pos, "seed {seed}: adaptive vs brute force");
            assert_eq!(a.pos, f.pos, "seed {seed}: adaptive vs fixed");
            assert!((a.dist - f.dist).abs() < 1e-9);

            let (ka, _) = adaptive
                .exact_knn(&q, 4, None, f64::INFINITY, Deadline::NONE)
                .unwrap();
            let (kf, _) = fixed
                .exact_knn(&q, 4, None, f64::INFINITY, Deadline::NONE)
                .unwrap();
            assert_eq!(ka.len(), kf.len());
            for (x, y) in ka.iter().zip(kf.iter()) {
                assert_eq!(x.pos, y.pos, "seed {seed}: kNN diverged");
            }

            let eps = expect.dist * 1.5;
            let (ra, _) = adaptive.exact_range(&q, eps, Deadline::NONE).unwrap();
            let (rf, _) = fixed.exact_range(&q, eps, Deadline::NONE).unwrap();
            let mut pa: Vec<u64> = ra.iter().map(|x| x.pos).collect();
            let mut pf: Vec<u64> = rf.iter().map(|x| x.pos).collect();
            pa.sort_unstable();
            pf.sort_unstable();
            assert_eq!(pa, pf, "seed {seed}: range diverged");
        }
    }

    #[test]
    fn adaptive_tightens_occupancy_on_skewed_data() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = skewed_dataset(&dir, 2000, 6, 7);
        let fixed =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let adaptive =
            CoconutTrie::build(&ds, &adaptive_config(), dir.path(), BuildOptions::default())
                .unwrap();
        assert!(
            adaptive.avg_fill() > fixed.avg_fill(),
            "adaptive fill {:.3} should beat fixed {:.3} on clustered keys",
            adaptive.avg_fill(),
            fixed.avg_fill()
        );
        assert!(
            adaptive.leaf_count() < fixed.leaf_count(),
            "adaptive {} leaves vs fixed {}",
            adaptive.leaf_count(),
            fixed.leaf_count()
        );
        // Packing only overflows capacity where identical keys force it —
        // exactly the leaves the oversized counter reports — and both
        // policies bottom out on the same unsplittable key groups.
        let cap = adaptive.config().leaf_capacity;
        let over = adaptive
            .leaf_entry_counts()
            .iter()
            .filter(|&&n| n > cap)
            .count() as u64;
        assert_eq!(adaptive.oversized_leaf_count(), over);
        assert_eq!(adaptive.build_report().oversized_leaves, over);
        assert_eq!(
            adaptive.oversized_leaf_count(),
            fixed.oversized_leaf_count()
        );
    }

    #[test]
    fn adaptive_open_reloads_identically() {
        // Exercises the v1 (multi-way) on-disk tail end to end.
        let dir = TempDir::new("ctrie").unwrap();
        let ds = skewed_dataset(&dir, 800, 4, 3);
        let built =
            CoconutTrie::build(&ds, &adaptive_config(), dir.path(), BuildOptions::default())
                .unwrap();
        let path = built.index_path().to_path_buf();
        let reopened = CoconutTrie::open(&path, &ds, 2).unwrap();
        assert_eq!(reopened.len(), built.len());
        assert_eq!(reopened.node_count(), built.node_count());
        assert_eq!(
            reopened.config().split_policy,
            crate::split::SplitPolicyKind::Adaptive,
            "policy must be recovered from the header"
        );
        assert_eq!(reopened.leaf_entry_counts(), built.leaf_entry_counts());
        for seed in 700..706 {
            let q = query(seed);
            let (a, _) = built.exact(&q).unwrap();
            let (b, _) = reopened.exact(&q).unwrap();
            assert_eq!(a.pos, b.pos);
        }
    }

    #[test]
    fn adaptive_sharded_build_is_bit_identical() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = skewed_dataset(&dir, 900, 5, 19);
        let single =
            CoconutTrie::build(&ds, &adaptive_config(), dir.path(), BuildOptions::default())
                .unwrap();
        let single_bytes = std::fs::read(single.index_path()).unwrap();
        for shards in [3usize, 8] {
            let sharded = CoconutTrie::build(
                &ds,
                &adaptive_config(),
                dir.path(),
                BuildOptions::default().with_shards(shards),
            )
            .unwrap();
            let sharded_bytes = std::fs::read(sharded.index_path()).unwrap();
            assert_eq!(
                single_bytes, sharded_bytes,
                "shards={shards}: adaptive index files differ"
            );
        }
    }

    #[test]
    fn oversized_leaves_are_counted_and_survive_reopen() {
        // A constant dataset forces one unsplittable over-capacity leaf;
        // the counter must be visible in the build report and recomputable
        // from a reopened index (which has no build report).
        let dir = TempDir::new("ctrie").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("flat.bin");
        let mut w =
            coconut_series::dataset::DatasetWriter::create(&path, LEN, true, Arc::clone(&stats))
                .unwrap();
        for _ in 0..100 {
            w.append(&vec![0.0; LEN]).unwrap();
        }
        w.finish().unwrap();
        let ds = Dataset::open(&path, stats).unwrap();
        for config in [small_config(), adaptive_config()] {
            let trie =
                CoconutTrie::build(&ds, &config, dir.path(), BuildOptions::default()).unwrap();
            assert_eq!(trie.build_report().oversized_leaves, 1);
            assert_eq!(trie.oversized_leaf_count(), 1);
            let reopened = CoconutTrie::open(trie.index_path(), &ds, 2).unwrap();
            assert_eq!(reopened.oversized_leaf_count(), 1);
            assert_eq!(reopened.build_report().oversized_leaves, 0, "not rebuilt");
        }
    }
}
