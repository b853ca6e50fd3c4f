//! Transport-level traffic accounting.
//!
//! ModelNet experiments log every payload transmission per link (§5.3); the
//! simulator does the same here, at the point where messages enter the
//! virtual network. Loss and silencing are applied *after* accounting:
//! a transmitted-but-dropped packet still consumed bandwidth at the sender,
//! which matches how the paper counts transmissions.
//!
//! # Storage: append-only log, aggregated on demand
//!
//! Totals and per-node payload counters are updated inline (flat
//! counters, exact). Per-link tallies, however, are *not* maintained in a
//! hash map on the hot path: at 10k nodes that map holds hundreds of
//! thousands of entries, and the per-send probe (plus its periodic
//! rehashes) was worth ~20 % of the whole event loop. Instead every send
//! appends one 16-byte record to a log — a sequential, cache-friendly
//! write — and the per-link view is built once, on demand, by a
//! counting-sort aggregation over the log. Long runs stay bounded: the
//! log folds into per-link accumulators every `COMPACT_AT` records, so
//! traffic memory is O(distinct links) plus a ~64 MB log window rather
//! than O(total sends). Results are identical to the old streaming map
//! at every query point, because the aggregation replays (or merges
//! partial folds of) the same deterministic record stream.
//!
//! # Spill threshold
//!
//! A configurable *spill threshold* bounds link tracking at scale: links
//! are tracked individually in order of first appearance, and links whose
//! first-appearance rank exceeds the threshold are folded into a single
//! aggregate [`Traffic::spilled`] tally (totals and per-node counters
//! stay exact), so a 10k-node run cannot let link accounting grow toward
//! the n² worst case. This reproduces the old streaming semantics
//! exactly: a link was tracked iff fewer than `threshold` distinct links
//! had appeared before its first record.
//!
//! The rule is applied *incrementally*, at every compaction fold, not
//! just at seal time: once `threshold` links have appeared, any link
//! first seen later is folded into the spilled tally immediately, so the
//! in-memory accumulator list (and the spool read-back working set) is
//! bounded at `threshold` entries for the whole run. Incremental capping
//! is byte-identical to capping once at seal, because record positions
//! only grow: every link in a later fold window first appears after
//! *all* links already accumulated, so the smallest-`threshold`
//! first-appearance set can never change once full — an evicted link
//! that reappears gets an even later first position and is evicted
//! again, with its tally landing in the same spilled aggregate.

use crate::NodeId;
use serde::{Deserialize, Serialize};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Per-directed-link tally of traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkTally {
    /// Messages of any kind sent over this link.
    pub messages: u64,
    /// Total bytes sent over this link.
    pub bytes: u64,
    /// Payload-bearing messages sent over this link.
    pub payloads: u64,
}

impl LinkTally {
    fn add(&mut self, bytes: u32, payload: bool) {
        self.messages += 1;
        self.bytes += u64::from(bytes);
        if payload {
            self.payloads += 1;
        }
    }

    fn absorb(&mut self, other: &LinkTally) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.payloads += other.payloads;
    }
}

/// One logged transmission (16 bytes).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct SendRecord {
    from: u32,
    to: u32,
    bytes: u32,
    payload: bool,
}

/// One partially aggregated link: its tally so far plus the global
/// position of its first record (drives the spill rule at seal time).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct LinkAcc {
    from: u32,
    to: u32,
    first_pos: u64,
    tally: LinkTally,
}

/// Fold the log into the partial aggregate whenever it reaches this many
/// records (64 MB of log), so traffic memory is bounded by the distinct
/// link count plus a constant, not by the total send count of the run.
const COMPACT_AT: usize = 1 << 22;

/// Compaction window in spool mode (16 MB of log): folds stream to disk,
/// so a small window costs no link-memory growth and keeps RSS flat.
const SPOOL_COMPACT_AT: usize = 1 << 20;

/// On-disk size of one spooled [`LinkAcc`] (little-endian fields).
const SPOOL_REC_BYTES: usize = 40;

/// Disk backing for folded link accumulators: each compaction appends one
/// `(from, to)`-sorted run of fixed-width records to a private temp file
/// instead of merging into an in-memory table. Seal time streams the runs
/// back and merges them. The byte stream is a pure function of the
/// recorded sends, so spooling cannot affect results.
#[derive(Debug)]
struct Spool {
    /// Append-only write handle.
    file: std::fs::File,
    /// File path, re-opened for reads and deleted on drop.
    path: PathBuf,
    /// Record count of each flushed run, in write order.
    runs: Vec<u64>,
}

impl Spool {
    fn create(dir: &Path) -> std::io::Result<Spool> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("egm-traffic-{}-{n}.spool", std::process::id()));
        let file = std::fs::File::create(&path)?;
        Ok(Spool {
            file,
            path,
            runs: Vec::new(),
        })
    }
}

impl Drop for Spool {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn encode_acc(acc: &LinkAcc, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&acc.from.to_le_bytes());
    buf.extend_from_slice(&acc.to.to_le_bytes());
    buf.extend_from_slice(&acc.first_pos.to_le_bytes());
    buf.extend_from_slice(&acc.tally.messages.to_le_bytes());
    buf.extend_from_slice(&acc.tally.bytes.to_le_bytes());
    buf.extend_from_slice(&acc.tally.payloads.to_le_bytes());
}

fn decode_acc(rec: &[u8; SPOOL_REC_BYTES]) -> LinkAcc {
    let u32_at = |o: usize| u32::from_le_bytes(rec[o..o + 4].try_into().expect("4 bytes"));
    let u64_at = |o: usize| u64::from_le_bytes(rec[o..o + 8].try_into().expect("8 bytes"));
    LinkAcc {
        from: u32_at(0),
        to: u32_at(4),
        first_pos: u64_at(8),
        tally: LinkTally {
            messages: u64_at(16),
            bytes: u64_at(24),
            payloads: u64_at(32),
        },
    }
}

/// The aggregated per-link view: one sorted target table per sender.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SealedLinks {
    /// `per_sender[from]` lists `(to, tally)` sorted by `to`, tracked
    /// links only.
    per_sender: Vec<Vec<(NodeId, LinkTally)>>,
    /// Number of individually tracked links.
    tracked: usize,
    /// Aggregate tally of records on links beyond the spill threshold.
    spilled: LinkTally,
}

/// Aggregated traffic over the whole virtual network.
///
/// # Examples
///
/// ```
/// use egm_simnet::{NodeId, Traffic};
///
/// let mut t = Traffic::default();
/// t.record(NodeId(0), NodeId(1), 280, true);
/// t.record(NodeId(0), NodeId(1), 40, false);
/// assert_eq!(t.total_payloads(), 1);
/// assert_eq!(t.total_bytes(), 320);
/// assert_eq!(t.node_payloads_sent(NodeId(0)), 1);
/// ```
#[derive(Debug, Serialize, Deserialize)]
pub struct Traffic {
    log: Vec<SendRecord>,
    /// Records folded out of `log` so far (sorted by `(from, to)`); the
    /// log is compacted into this once it reaches `compact_at`.
    folded: Vec<LinkAcc>,
    /// Total records ever logged (global positions for the spill rule).
    records_seen: u64,
    /// Built by [`Traffic::seal`]; `None` while recording.
    sealed: Option<SealedLinks>,
    total: LinkTally,
    /// Payloads sent per node, pre-sized via [`Traffic::reserve_nodes`]
    /// or grown on demand (exact even when link tracking spills).
    node_payloads: Vec<u64>,
    /// Hot-path growths of `node_payloads` (0 when pre-sized — pinned by
    /// a regression test so the O(n) resize never returns to the loop).
    node_payload_growths: u32,
    /// Maximum number of distinct links tracked individually.
    spill_threshold: usize,
    /// Tallies of links already folded into the spilled aggregate by
    /// incremental capping (links first seen after `spill_threshold`
    /// distinct links were live); [`Traffic::finish`] adds this base to
    /// whatever the final pass spills.
    spilled_acc: LinkTally,
    /// Log length that triggers a compaction.
    compact_at: usize,
    /// Writer-backed compaction target; `None` keeps folds in memory.
    spool: Option<Spool>,
    /// Bytes streamed to disk by spool compactions (survives sealing).
    spool_bytes: u64,
    /// Peak accumulator count observed while merging shard parts (0 for
    /// one-shard runs and for unbounded thresholds); bounded at
    /// `spill_threshold` by the merge-time capping in
    /// [`Traffic::merge_shards`].
    shard_merge_acc_peak: usize,
}

impl Default for Traffic {
    fn default() -> Self {
        Traffic::with_spill_threshold(usize::MAX)
    }
}

impl Traffic {
    /// Creates an accounting table that tracks at most `spill_threshold`
    /// distinct links individually (in order of first appearance);
    /// records on further links are folded into the aggregate
    /// [`Traffic::spilled`] tally.
    pub fn with_spill_threshold(spill_threshold: usize) -> Self {
        Traffic {
            log: Vec::new(),
            folded: Vec::new(),
            records_seen: 0,
            sealed: None,
            total: LinkTally::default(),
            node_payloads: Vec::new(),
            node_payload_growths: 0,
            spill_threshold,
            spilled_acc: LinkTally::default(),
            compact_at: COMPACT_AT,
            spool: None,
            spool_bytes: 0,
            shard_merge_acc_peak: 0,
        }
    }

    /// Switches compaction to a writer-backed mode: folded link
    /// accumulators are streamed to a private temp file under `dir`
    /// (deleted at seal time or on drop) instead of held in memory, and
    /// the log window shrinks accordingly. Sealed results are
    /// byte-identical to the in-memory mode — the spool is a pure
    /// spill target.
    ///
    /// # Panics
    ///
    /// Panics if recording already started or the file cannot be created.
    pub fn enable_spool(&mut self, dir: &Path) {
        assert!(
            self.records_seen == 0 && self.sealed.is_none(),
            "enable spooling before recording"
        );
        self.spool = Some(Spool::create(dir).expect("create traffic spool file"));
        self.compact_at = SPOOL_COMPACT_AT;
    }

    /// Pre-sizes the per-node payload table for `n` nodes, capping it at
    /// the node count and keeping the hot path free of O(n) regrowth.
    pub fn reserve_nodes(&mut self, n: usize) {
        if self.node_payloads.len() < n {
            self.node_payloads.resize(n, 0);
        }
    }

    /// Bytes of folded link accumulators streamed to the spool file so
    /// far (0 unless [`Traffic::enable_spool`] was used).
    pub fn spool_bytes(&self) -> u64 {
        self.spool_bytes
    }

    /// How often the hot path had to grow the per-node payload table
    /// (0 when [`Traffic::reserve_nodes`] pre-sized it).
    pub fn node_payload_growths(&self) -> u32 {
        self.node_payload_growths
    }

    /// Peak link-accumulator count observed while merging shard parts
    /// (spool read-back included). 0 for one-shard runs and for
    /// unbounded spill thresholds; never exceeds the configured threshold
    /// otherwise — pinned by the shard-determinism regression tests.
    pub fn shard_merge_acc_peak(&self) -> usize {
        self.shard_merge_acc_peak
    }

    /// Records one message from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Traffic::seal`] — sealing drops the
    /// record log.
    pub fn record(&mut self, from: NodeId, to: NodeId, bytes: u32, payload: bool) {
        assert!(self.sealed.is_none(), "record() after seal()");
        self.total.add(bytes, payload);
        let idx = from.index();
        if payload {
            if idx >= self.node_payloads.len() {
                self.node_payloads.resize(idx + 1, 0);
                self.node_payload_growths += 1;
            }
            self.node_payloads[idx] += 1;
        }
        debug_assert!(idx < u32::MAX as usize && to.index() < u32::MAX as usize);
        self.log.push(SendRecord {
            from: idx as u32,
            to: to.index() as u32,
            bytes,
            payload,
        });
        self.records_seen += 1;
        if self.log.len() >= self.compact_at {
            self.compact();
        }
    }

    /// Folds the log into `folded` (or streams the fold to the spool
    /// file) and clears it (keeping its capacity), bounding traffic
    /// memory over arbitrarily long runs.
    fn compact(&mut self) {
        if self.log.is_empty() {
            return;
        }
        let base = self.records_seen - self.log.len() as u64;
        let flat = Self::flatten(&self.log, base);
        self.log.clear();
        if let Some(spool) = &mut self.spool {
            let mut buf = Vec::with_capacity(flat.len() * SPOOL_REC_BYTES);
            for acc in &flat {
                encode_acc(acc, &mut buf);
            }
            spool.file.write_all(&buf).expect("write traffic spool run");
            spool.runs.push(flat.len() as u64);
            self.spool_bytes += buf.len() as u64;
        } else {
            let merged = Self::merge(std::mem::take(&mut self.folded), flat);
            self.folded = Self::cap(merged, self.spill_threshold, &mut self.spilled_acc);
        }
    }

    /// Applies the spill rule to one `(from, to)`-sorted accumulator
    /// list: keeps the `threshold` earliest-appearing links and folds the
    /// rest into `spilled`. Called after every fold, so the tracked
    /// working set never exceeds `threshold` entries mid-run (see the
    /// module docs for why this is byte-identical to capping at seal).
    fn cap(mut flat: Vec<LinkAcc>, threshold: usize, spilled: &mut LinkTally) -> Vec<LinkAcc> {
        if flat.len() <= threshold {
            return flat;
        }
        let mut order: Vec<u32> = (0..flat.len() as u32).collect();
        order.sort_unstable_by_key(|&i| flat[i as usize].first_pos);
        let mut evict = vec![false; flat.len()];
        for &i in &order[threshold..] {
            evict[i as usize] = true;
            spilled.absorb(&flat[i as usize].tally);
        }
        let mut keep = 0usize;
        for i in 0..flat.len() {
            if !evict[i] {
                flat[keep] = flat[i];
                keep += 1;
            }
        }
        flat.truncate(keep);
        flat
    }

    /// Applies the spill rule with an *externally supplied* link order: a
    /// caller-provided `key_of(from, to)` ranks links instead of their
    /// (possibly shard-local, incomparable) `first_pos`. Used by
    /// [`Traffic::merge_shards`], where the 128-bit first-appearance
    /// order keys provide the global record order.
    fn cap_by_key(
        mut flat: Vec<LinkAcc>,
        threshold: usize,
        spilled: &mut LinkTally,
        key_of: &dyn Fn(u32, u32) -> u128,
    ) -> Vec<LinkAcc> {
        if flat.len() <= threshold {
            return flat;
        }
        let mut order: Vec<u32> = (0..flat.len() as u32).collect();
        order.sort_unstable_by_key(|&i| key_of(flat[i as usize].from, flat[i as usize].to));
        let mut evict = vec![false; flat.len()];
        for &i in &order[threshold..] {
            evict[i as usize] = true;
            spilled.absorb(&flat[i as usize].tally);
        }
        let mut keep = 0usize;
        for i in 0..flat.len() {
            if !evict[i] {
                flat[keep] = flat[i];
                keep += 1;
            }
        }
        flat.truncate(keep);
        flat
    }

    /// Reads the spooled runs back in write order, merging each into
    /// `acc` and applying `cap` after every run so the read-back working
    /// set stays bounded by whatever rule the capper enforces.
    fn read_spool_with(
        spool: &Spool,
        mut acc: Vec<LinkAcc>,
        cap: &mut dyn FnMut(Vec<LinkAcc>) -> Vec<LinkAcc>,
    ) -> Vec<LinkAcc> {
        let file = std::fs::File::open(&spool.path).expect("reopen traffic spool file");
        let mut reader = std::io::BufReader::new(file);
        for &len in &spool.runs {
            let mut run = Vec::with_capacity(len as usize);
            let mut rec = [0u8; SPOOL_REC_BYTES];
            for _ in 0..len {
                reader.read_exact(&mut rec).expect("read traffic spool run");
                run.push(decode_acc(&rec));
            }
            acc = cap(Self::merge(acc, run));
        }
        acc
    }

    /// Reads the spooled runs back and merges them into one
    /// `(from, to)`-sorted accumulator list, capping the working set at
    /// `threshold` links after each run (runs are read in write order, so
    /// the incremental spill rule sees first positions chronologically).
    fn read_spool(spool: &Spool, threshold: usize, spilled: &mut LinkTally) -> Vec<LinkAcc> {
        Self::read_spool_with(spool, Vec::new(), &mut |flat| {
            Self::cap(flat, threshold, spilled)
        })
    }

    /// Compacts, then takes the complete folded accumulator list —
    /// reading back and deleting the spool file if one is attached.
    fn drain_folded(&mut self) -> Vec<LinkAcc> {
        self.compact();
        let mut flat = std::mem::take(&mut self.folded);
        if let Some(spool) = self.spool.take() {
            let runs = Self::read_spool(&spool, self.spill_threshold, &mut self.spilled_acc);
            flat = Self::cap(
                Self::merge(flat, runs),
                self.spill_threshold,
                &mut self.spilled_acc,
            );
            // Dropping the spool deletes its file; spool_bytes persists.
        }
        flat
    }

    /// Like [`Traffic::drain_folded`], but with a caller-supplied capper
    /// applied to the folded list and after every spool run, in place of
    /// this table's own (here: unbounded) spill rule. This is how
    /// [`Traffic::merge_shards`] bounds each shard's spool read-back even
    /// though the shard recorded with an infinite local threshold.
    fn drain_folded_with(
        &mut self,
        cap: &mut dyn FnMut(Vec<LinkAcc>) -> Vec<LinkAcc>,
    ) -> Vec<LinkAcc> {
        self.compact();
        let mut flat = cap(std::mem::take(&mut self.folded));
        if let Some(spool) = self.spool.take() {
            let runs = Self::read_spool_with(&spool, Vec::new(), cap);
            flat = cap(Self::merge(flat, runs));
            // Dropping the spool deletes its file; spool_bytes persists.
        }
        flat
    }

    /// Builds the per-link view once and drops the record log. Optional:
    /// queries aggregate transparently (each call re-scans the log) —
    /// sealing makes repeated queries O(1) and frees the log's memory
    /// (plus any spool file), at the price that no further
    /// [`Traffic::record`] is accepted.
    pub fn seal(&mut self) {
        if self.sealed.is_none() {
            let flat = self.drain_folded();
            self.log = Vec::new();
            self.sealed = Some(Self::finish(flat, self.spill_threshold, self.spilled_acc));
        }
    }

    /// Folds one log chunk into per-link accumulators sorted by
    /// `(from, to)`: counting-sort by sender, sort each sender's slice by
    /// target, group. Tally sums are integer additions, so accumulation
    /// order within a link is irrelevant and the link's first appearance
    /// is simply the minimum position of its group (`base` + local).
    fn flatten(log: &[SendRecord], base: u64) -> Vec<LinkAcc> {
        debug_assert!(log.len() < u32::MAX as usize);
        let senders = log.iter().map(|r| r.from as usize + 1).max().unwrap_or(0);
        // Counting sort: group records by sender (contiguous copies, so
        // the per-sender sorts below stay cache-resident).
        #[derive(Clone, Copy, Default)]
        struct GroupedRec {
            to: u32,
            pos: u32,
            bytes: u32,
            payload: bool,
        }
        let mut offsets = vec![0u32; senders + 1];
        for r in log {
            offsets[r.from as usize + 1] += 1;
        }
        for i in 0..senders {
            offsets[i + 1] += offsets[i];
        }
        let mut grouped = vec![GroupedRec::default(); log.len()];
        let mut cursor: Vec<u32> = offsets[..senders].to_vec();
        for (pos, r) in log.iter().enumerate() {
            let c = &mut cursor[r.from as usize];
            grouped[*c as usize] = GroupedRec {
                to: r.to,
                pos: pos as u32,
                bytes: r.bytes,
                payload: r.payload,
            };
            *c += 1;
        }
        // Per sender: sort by target, then fold each group. The result
        // is ordered by (from, to) with each link's first global
        // position attached.
        let mut flat: Vec<LinkAcc> = Vec::new();
        for from in 0..senders {
            let seg = &mut grouped[offsets[from] as usize..offsets[from + 1] as usize];
            seg.sort_unstable_by_key(|g| g.to);
            for g in seg.iter() {
                match flat.last_mut() {
                    Some(last) if last.from == from as u32 && last.to == g.to => {
                        last.tally.add(g.bytes, g.payload);
                        last.first_pos = last.first_pos.min(base + u64::from(g.pos));
                    }
                    _ => {
                        let mut tally = LinkTally::default();
                        tally.add(g.bytes, g.payload);
                        flat.push(LinkAcc {
                            from: from as u32,
                            to: g.to,
                            first_pos: base + u64::from(g.pos),
                            tally,
                        });
                    }
                }
            }
        }
        flat
    }

    /// Merges two `(from, to)`-sorted accumulator lists, adding tallies
    /// and keeping the earlier first appearance.
    fn merge(a: Vec<LinkAcc>, b: Vec<LinkAcc>) -> Vec<LinkAcc> {
        if a.is_empty() {
            return b;
        }
        if b.is_empty() {
            return a;
        }
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut ia, mut ib) = (0, 0);
        while ia < a.len() && ib < b.len() {
            let (ka, kb) = ((a[ia].from, a[ia].to), (b[ib].from, b[ib].to));
            match ka.cmp(&kb) {
                std::cmp::Ordering::Less => {
                    out.push(a[ia]);
                    ia += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[ib]);
                    ib += 1;
                }
                std::cmp::Ordering::Equal => {
                    let mut m = a[ia];
                    m.first_pos = m.first_pos.min(b[ib].first_pos);
                    m.tally.messages += b[ib].tally.messages;
                    m.tally.bytes += b[ib].tally.bytes;
                    m.tally.payloads += b[ib].tally.payloads;
                    out.push(m);
                    ia += 1;
                    ib += 1;
                }
            }
        }
        out.extend_from_slice(&a[ia..]);
        out.extend_from_slice(&b[ib..]);
        out
    }

    /// Applies the first-appearance spill rule — a link is tracked iff
    /// fewer than `spill_threshold` distinct links appeared before it —
    /// and builds the queryable per-sender view. `spilled_base` carries
    /// the tallies of links already evicted by incremental capping.
    fn finish(flat: Vec<LinkAcc>, spill_threshold: usize, spilled_base: LinkTally) -> SealedLinks {
        let mut spilled = spilled_base;
        let mut tracked_flags: Option<Vec<bool>> = None;
        if flat.len() > spill_threshold {
            let mut order: Vec<u32> = (0..flat.len() as u32).collect();
            order.sort_unstable_by_key(|&i| flat[i as usize].first_pos);
            let mut flags = vec![false; flat.len()];
            for &i in &order[..spill_threshold] {
                flags[i as usize] = true;
            }
            for &i in &order[spill_threshold..] {
                spilled.absorb(&flat[i as usize].tally);
            }
            tracked_flags = Some(flags);
        }
        let senders = flat.iter().map(|l| l.from as usize + 1).max().unwrap_or(0);
        let mut per_sender: Vec<Vec<(NodeId, LinkTally)>> = Vec::new();
        per_sender.resize_with(senders, Vec::new);
        let mut tracked = 0usize;
        for (i, link) in flat.iter().enumerate() {
            if tracked_flags.as_ref().is_some_and(|flags| !flags[i]) {
                continue;
            }
            per_sender[link.from as usize].push((NodeId(link.to as usize), link.tally));
            tracked += 1;
        }
        SealedLinks {
            per_sender,
            tracked,
            spilled,
        }
    }

    /// Merges the per-shard traffic tables of a multi-shard run into the
    /// sealed view a one-shard run would produce.
    ///
    /// Each part must still be recording (unsealed) and must have used an
    /// *unbounded* spill threshold, so no link was folded away shard-
    /// locally. Totals, per-node payload counters and per-link tallies
    /// are plain sums (links are disjoint across sender-partitioned
    /// shards, but equal keys merge defensively). The first-appearance
    /// spill rule needs the *global* record order, which shard-local
    /// positions cannot provide — `first_keys` supplies it: per shard, a
    /// map from the packed directed link (`from << 32 | to`) to the
    /// 128-bit order key of the link's first record (see
    /// `SimCore::begin_dispatch`). Ranking links by that key reproduces
    /// the one-shard spill selection exactly.
    ///
    /// When the threshold is finite, that key ranking is applied
    /// *incrementally* — to each part's folded list, after every spool
    /// run read back, and after each part merges into the global list —
    /// so the merge-time accumulator working set stays bounded at
    /// `spill_threshold` entries instead of growing to the run's full
    /// distinct-link count. This is byte-identical to capping once at the
    /// end: the `spill_threshold` smallest-key links can only lose
    /// members to links with still smaller keys, so an evicted link
    /// (whose key exceeds every kept key) is evicted again whenever a
    /// later spool run makes it reappear, and its tally lands in the same
    /// spilled aggregate. The observed peak is recorded and exposed via
    /// [`Traffic::shard_merge_acc_peak`].
    ///
    /// # Panics
    ///
    /// Panics if a part was already sealed, or if the spill rule needs
    /// first-appearance keys that were not tracked.
    pub(crate) fn merge_shards(
        parts: Vec<Traffic>,
        first_keys: Vec<Option<egm_rng::hash::FastHashMap<u64, u128>>>,
        spill_threshold: usize,
    ) -> Traffic {
        let mut parts = parts;
        // With a finite threshold, rank by the global first-appearance
        // keys, capping as we go.
        let track = spill_threshold != usize::MAX;
        let key_of = |from: u32, to: u32| -> u128 {
            let packed = (u64::from(from) << 32) | u64::from(to);
            *first_keys
                .iter()
                .flatten()
                .filter_map(|m| m.get(&packed))
                .min()
                .unwrap_or_else(|| {
                    panic!(
                        "link ({from}, {to}) has no first-appearance key: a multi-shard \
                         run must track keys whenever the spill threshold is \
                         finite"
                    )
                })
        };
        // Recycle the largest per-shard payload table as the merged one
        // instead of growing a fresh allocation from zero.
        let donor = (0..parts.len())
            .max_by_key(|&i| parts[i].node_payloads.len())
            .expect("at least one shard");
        let mut node_payloads = std::mem::take(&mut parts[donor].node_payloads);
        let mut total = LinkTally::default();
        let mut records_seen = 0u64;
        let mut flat: Vec<LinkAcc> = Vec::new();
        let mut spool_bytes = 0u64;
        let mut node_payload_growths = 0u32;
        let mut spilled_acc = LinkTally::default();
        let mut merge_acc_peak = 0usize;
        for mut part in parts {
            assert!(part.sealed.is_none(), "cannot merge sealed traffic");
            total.messages += part.total.messages;
            total.bytes += part.total.bytes;
            total.payloads += part.total.payloads;
            records_seen += part.records_seen;
            node_payload_growths += part.node_payload_growths;
            if node_payloads.len() < part.node_payloads.len() {
                node_payloads.resize(part.node_payloads.len(), 0);
            }
            for (i, v) in part.node_payloads.iter().enumerate() {
                node_payloads[i] += v;
            }
            let drained = if track {
                let mut cap = |f: Vec<LinkAcc>| {
                    let f = Self::cap_by_key(f, spill_threshold, &mut spilled_acc, &key_of);
                    merge_acc_peak = merge_acc_peak.max(f.len());
                    f
                };
                part.drain_folded_with(&mut cap)
            } else {
                part.drain_folded()
            };
            flat = Self::merge(flat, drained);
            if track {
                flat = Self::cap_by_key(flat, spill_threshold, &mut spilled_acc, &key_of);
                merge_acc_peak = merge_acc_peak.max(flat.len());
            }
            // Shard-local thresholds are unbounded, so parts normally cap
            // nothing themselves — carry their accumulator defensively.
            spilled_acc.absorb(&part.spilled_acc);
            spool_bytes += part.spool_bytes;
        }
        debug_assert!(flat.len() <= spill_threshold);
        let sealed = Self::finish(flat, spill_threshold, spilled_acc);
        Traffic {
            log: Vec::new(),
            folded: Vec::new(),
            records_seen,
            sealed: Some(sealed),
            total,
            node_payloads,
            node_payload_growths,
            spill_threshold,
            spilled_acc,
            compact_at: COMPACT_AT,
            spool: None,
            spool_bytes,
            shard_merge_acc_peak: merge_acc_peak,
        }
    }

    /// Runs `f` over the per-link view — the sealed one if available,
    /// otherwise a freshly aggregated snapshot of the folded state plus
    /// the log so far.
    fn with_links<R>(&self, f: impl FnOnce(&SealedLinks) -> R) -> R {
        match &self.sealed {
            Some(s) => f(s),
            None => {
                let mut spilled = self.spilled_acc;
                let base = self.records_seen - self.log.len() as u64;
                let mut flat = Self::merge(self.folded.clone(), Self::flatten(&self.log, base));
                if let Some(spool) = &self.spool {
                    let runs = Self::read_spool(spool, self.spill_threshold, &mut spilled);
                    flat = Self::merge(runs, flat);
                }
                f(&Self::finish(flat, self.spill_threshold, spilled))
            }
        }
    }

    /// Total messages sent (including later-dropped ones).
    pub fn total_messages(&self) -> u64 {
        self.total.messages
    }

    /// Total bytes sent.
    pub fn total_bytes(&self) -> u64 {
        self.total.bytes
    }

    /// Total payload transmissions.
    pub fn total_payloads(&self) -> u64 {
        self.total.payloads
    }

    /// Number of individually tracked directed links that carried at
    /// least one message. When [`Traffic::spilled`] is non-empty this
    /// undercounts the true distinct-link count (by design: tracking is
    /// bounded).
    pub fn link_count(&self) -> usize {
        self.with_links(|s| s.tracked)
    }

    /// Aggregate tally of traffic recorded on links beyond the spill
    /// threshold (all zeros when nothing spilled).
    pub fn spilled(&self) -> LinkTally {
        self.with_links(|s| s.spilled)
    }

    /// Tally for one directed link, if it carried traffic and was tracked
    /// individually.
    pub fn link(&self, from: NodeId, to: NodeId) -> Option<LinkTally> {
        self.with_links(|s| {
            let table = s.per_sender.get(from.index())?;
            table
                .binary_search_by_key(&to, |e| e.0)
                .ok()
                .map(|i| table[i].1)
        })
    }

    /// All individually tracked directed links and their tallies, in
    /// deterministic (source, destination) order.
    pub fn links(&self) -> Vec<((NodeId, NodeId), LinkTally)> {
        self.with_links(|s| {
            let mut v = Vec::with_capacity(s.tracked);
            for (from, table) in s.per_sender.iter().enumerate() {
                for &(to, tally) in table {
                    v.push(((NodeId(from), to), tally));
                }
            }
            v
        })
    }

    /// Payload transmissions sent by one node. Exact regardless of link
    /// spill.
    pub fn node_payloads_sent(&self, node: NodeId) -> u64 {
        self.node_payloads.get(node.index()).copied().unwrap_or(0)
    }

    /// Per-node payload transmission counts for nodes `0..n`.
    pub fn payloads_sent_per_node(&self, n: usize) -> Vec<u64> {
        let mut out = vec![0u64; n];
        let upto = n.min(self.node_payloads.len());
        out[..upto].copy_from_slice(&self.node_payloads[..upto]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::Traffic;
    use crate::NodeId;

    #[test]
    fn records_accumulate_per_link() {
        let mut t = Traffic::default();
        t.record(NodeId(0), NodeId(1), 100, true);
        t.record(NodeId(0), NodeId(1), 50, false);
        t.record(NodeId(1), NodeId(0), 10, true);
        let l01 = t.link(NodeId(0), NodeId(1)).expect("link exists");
        assert_eq!(l01.messages, 2);
        assert_eq!(l01.bytes, 150);
        assert_eq!(l01.payloads, 1);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.total_messages(), 3);
        assert_eq!(t.total_payloads(), 2);
        assert!(t.link(NodeId(2), NodeId(0)).is_none());
        assert_eq!(t.spilled().messages, 0, "no spill by default");
    }

    #[test]
    fn links_are_sorted_deterministically() {
        let mut t = Traffic::default();
        t.record(NodeId(2), NodeId(0), 1, false);
        t.record(NodeId(0), NodeId(2), 1, false);
        t.record(NodeId(0), NodeId(1), 1, false);
        let keys: Vec<_> = t.links().iter().map(|&(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(2), NodeId(0))
            ]
        );
    }

    #[test]
    fn per_node_payload_counts() {
        let mut t = Traffic::default();
        t.record(NodeId(0), NodeId(1), 1, true);
        t.record(NodeId(0), NodeId(2), 1, true);
        t.record(NodeId(1), NodeId(2), 1, false);
        assert_eq!(t.payloads_sent_per_node(3), vec![2, 0, 0]);
        assert_eq!(t.node_payloads_sent(NodeId(0)), 2);
        assert_eq!(t.node_payloads_sent(NodeId(9)), 0);
    }

    #[test]
    fn spill_threshold_bounds_link_tracking() {
        let mut t = Traffic::with_spill_threshold(2);
        t.record(NodeId(0), NodeId(1), 10, true);
        t.record(NodeId(0), NodeId(2), 10, false);
        // Third distinct link spills...
        t.record(NodeId(0), NodeId(3), 10, true);
        // ...but already-tracked links keep accumulating exactly.
        t.record(NodeId(0), NodeId(1), 10, false);
        assert_eq!(t.link_count(), 2);
        assert!(t.link(NodeId(0), NodeId(3)).is_none(), "spilled link");
        assert_eq!(t.spilled().messages, 1);
        assert_eq!(t.spilled().payloads, 1);
        assert_eq!(t.spilled().bytes, 10);
        // Totals and per-node counters stay exact.
        assert_eq!(t.total_messages(), 4);
        assert_eq!(t.total_payloads(), 2);
        assert_eq!(t.node_payloads_sent(NodeId(0)), 2);
        let l01 = t.link(NodeId(0), NodeId(1)).expect("tracked");
        assert_eq!(l01.messages, 2);
    }

    #[test]
    fn zero_threshold_spills_everything() {
        let mut t = Traffic::with_spill_threshold(0);
        t.record(NodeId(0), NodeId(1), 7, true);
        assert_eq!(t.link_count(), 0);
        assert_eq!(t.spilled().messages, 1);
        assert_eq!(t.total_bytes(), 7);
        assert_eq!(t.node_payloads_sent(NodeId(0)), 1);
    }

    #[test]
    fn seal_freezes_the_view_and_queries_agree() {
        let mut t = Traffic::with_spill_threshold(3);
        t.record(NodeId(1), NodeId(0), 5, true);
        t.record(NodeId(0), NodeId(1), 5, false);
        t.record(NodeId(0), NodeId(2), 5, false);
        t.record(NodeId(2), NodeId(1), 5, true); // spilled (4th link)
        let before = (t.links(), t.link_count(), t.spilled());
        t.seal();
        t.seal(); // idempotent
        assert_eq!(before.0, t.links());
        assert_eq!(before.1, t.link_count());
        assert_eq!(before.2, t.spilled());
        assert_eq!(t.spilled().messages, 1);
    }

    #[test]
    #[should_panic(expected = "after seal")]
    fn recording_after_seal_panics() {
        let mut t = Traffic::default();
        t.record(NodeId(0), NodeId(1), 1, false);
        t.seal();
        t.record(NodeId(0), NodeId(2), 1, false);
    }

    #[test]
    fn compaction_preserves_queries_and_spill_order() {
        // Two identical record streams; `b` folds its log mid-stream.
        // Every query and the sealed view must agree with the
        // never-compacted twin, including which link spills.
        let stream = [(5, 6), (4, 5), (0, 1), (5, 6), (0, 2), (4, 5)];
        let mut a = Traffic::with_spill_threshold(2);
        let mut b = Traffic::with_spill_threshold(2);
        for (i, &(f, t)) in stream.iter().enumerate() {
            a.record(NodeId(f), NodeId(t), 10, i % 2 == 0);
            b.record(NodeId(f), NodeId(t), 10, i % 2 == 0);
            if i % 2 == 0 {
                b.compact();
            }
        }
        assert_eq!(a.links(), b.links());
        assert_eq!(a.link_count(), b.link_count());
        assert_eq!(a.spilled(), b.spilled());
        b.seal();
        assert_eq!(a.links(), b.links());
        assert_eq!(a.spilled(), b.spilled());
        assert!(
            b.link(NodeId(0), NodeId(1)).is_none(),
            "third-seen link spills on both"
        );
    }

    #[test]
    fn spooled_traffic_matches_in_memory_twin() {
        // Identical streams, one spooling folds to disk with forced
        // mid-stream compactions: every query and the sealed view must be
        // byte-identical, including the spill selection.
        let dir = std::env::temp_dir();
        let stream = [(5, 6), (4, 5), (0, 1), (5, 6), (0, 2), (4, 5), (1, 0)];
        let mut mem = Traffic::with_spill_threshold(2);
        let mut disk = Traffic::with_spill_threshold(2);
        disk.enable_spool(&dir);
        for (i, &(f, t)) in stream.iter().enumerate() {
            mem.record(NodeId(f), NodeId(t), 10, i % 2 == 0);
            disk.record(NodeId(f), NodeId(t), 10, i % 2 == 0);
            if i % 3 == 0 {
                disk.compact();
            }
        }
        assert!(disk.spool_bytes() > 0, "compactions streamed to disk");
        // Pre-seal queries read the spool transparently.
        assert_eq!(mem.links(), disk.links());
        assert_eq!(mem.spilled(), disk.spilled());
        mem.seal();
        disk.seal();
        assert_eq!(mem.links(), disk.links());
        assert_eq!(mem.link_count(), disk.link_count());
        assert_eq!(mem.spilled(), disk.spilled());
        assert_eq!(mem.total_messages(), disk.total_messages());
        let bytes = disk.spool_bytes();
        assert!(bytes > 0, "spool byte counter survives sealing");
    }

    #[test]
    fn spool_file_is_deleted_at_seal() {
        let dir = std::env::temp_dir();
        let mut t = Traffic::default();
        t.enable_spool(&dir);
        t.record(NodeId(0), NodeId(1), 1, true);
        t.compact();
        let path = t.spool.as_ref().expect("spooling").path.clone();
        assert!(path.exists(), "spool file present while recording");
        t.seal();
        assert!(!path.exists(), "seal() removes the spool file");
        assert!(t.spool.is_none());
    }

    #[test]
    fn reserved_payload_table_never_regrows() {
        let mut t = Traffic::default();
        t.reserve_nodes(100);
        for i in 0..100 {
            t.record(NodeId(i), NodeId((i + 1) % 100), 8, true);
        }
        assert_eq!(t.node_payload_growths(), 0, "pre-sized table is final");
        assert_eq!(t.node_payloads_sent(NodeId(0)), 1);

        let mut untracked = Traffic::default();
        untracked.record(NodeId(5), NodeId(0), 8, true);
        assert_eq!(
            untracked.node_payload_growths(),
            1,
            "on-demand growth counted"
        );
    }

    #[test]
    fn merge_shards_caps_working_set_and_matches_sequential() {
        use egm_rng::hash::FastHashMap;
        // Two sender-partitioned parts recording with unbounded local
        // thresholds; global first-appearance order comes from the key
        // maps: (1,9) then (0,1) then (0,2) then (1,8) then (0,3).
        let mut part0 = Traffic::with_spill_threshold(usize::MAX);
        part0.record(NodeId(0), NodeId(1), 10, true);
        part0.record(NodeId(0), NodeId(2), 10, false);
        part0.record(NodeId(0), NodeId(3), 10, true);
        let mut part1 = Traffic::with_spill_threshold(usize::MAX);
        part1.record(NodeId(1), NodeId(9), 10, false);
        part1.record(NodeId(1), NodeId(8), 10, true);
        let pack = |f: u64, t: u64| (f << 32) | t;
        let mut k0 = FastHashMap::<u64, u128>::default();
        k0.insert(pack(0, 1), 2);
        k0.insert(pack(0, 2), 3);
        k0.insert(pack(0, 3), 5);
        let mut k1 = FastHashMap::<u64, u128>::default();
        k1.insert(pack(1, 9), 1);
        k1.insert(pack(1, 8), 4);
        let merged = Traffic::merge_shards(vec![part0, part1], vec![Some(k0), Some(k1)], 2);
        // Sequential twin: same records in global order, same threshold.
        let mut seq = Traffic::with_spill_threshold(2);
        seq.record(NodeId(1), NodeId(9), 10, false);
        seq.record(NodeId(0), NodeId(1), 10, true);
        seq.record(NodeId(0), NodeId(2), 10, false);
        seq.record(NodeId(1), NodeId(8), 10, true);
        seq.record(NodeId(0), NodeId(3), 10, true);
        seq.seal();
        assert_eq!(merged.links(), seq.links());
        assert_eq!(merged.link_count(), seq.link_count());
        assert_eq!(merged.spilled(), seq.spilled());
        assert_eq!(merged.total_messages(), seq.total_messages());
        let peak = merged.shard_merge_acc_peak();
        assert!(peak > 0 && peak <= 2, "peak {peak} exceeds threshold");
        assert_eq!(seq.shard_merge_acc_peak(), 0, "sequential never merges");
    }

    #[test]
    fn merge_shards_caps_spool_read_back_with_reappearing_links() {
        use egm_rng::hash::FastHashMap;
        // Part 0 spools two runs; link (0,3) is evicted while reading run
        // 1 back and reappears in run 2, so it must be evicted again with
        // both tally pieces landing in the spilled aggregate.
        let dir = std::env::temp_dir();
        let mut part0 = Traffic::with_spill_threshold(usize::MAX);
        part0.enable_spool(&dir);
        part0.record(NodeId(0), NodeId(1), 1, false);
        part0.record(NodeId(0), NodeId(2), 1, false);
        part0.record(NodeId(0), NodeId(3), 1, false);
        part0.compact();
        part0.record(NodeId(0), NodeId(1), 1, false);
        part0.record(NodeId(0), NodeId(3), 1, false);
        part0.compact();
        let mut part1 = Traffic::with_spill_threshold(usize::MAX);
        part1.record(NodeId(1), NodeId(5), 1, false);
        let pack = |f: u64, t: u64| (f << 32) | t;
        let mut k0 = FastHashMap::<u64, u128>::default();
        k0.insert(pack(0, 1), 10);
        k0.insert(pack(0, 2), 20);
        k0.insert(pack(0, 3), 30);
        let mut k1 = FastHashMap::<u64, u128>::default();
        k1.insert(pack(1, 5), 40);
        let merged = Traffic::merge_shards(vec![part0, part1], vec![Some(k0), Some(k1)], 2);
        let mut seq = Traffic::with_spill_threshold(2);
        for (f, t) in [(0, 1), (0, 2), (0, 3), (1, 5), (0, 1), (0, 3)] {
            seq.record(NodeId(f), NodeId(t), 1, false);
        }
        seq.seal();
        assert_eq!(merged.links(), seq.links());
        assert_eq!(merged.spilled(), seq.spilled());
        assert_eq!(merged.spilled().messages, 3, "(0,3) twice plus (1,5)");
        let peak = merged.shard_merge_acc_peak();
        assert!(peak > 0 && peak <= 2, "peak {peak} exceeds threshold");
    }

    #[test]
    fn spill_rule_is_first_appearance_order() {
        // The link first seen third spills even though it is
        // lexicographically smallest.
        let mut t = Traffic::with_spill_threshold(2);
        t.record(NodeId(5), NodeId(6), 1, false);
        t.record(NodeId(4), NodeId(5), 1, false);
        t.record(NodeId(0), NodeId(1), 1, false);
        assert!(t.link(NodeId(5), NodeId(6)).is_some());
        assert!(t.link(NodeId(4), NodeId(5)).is_some());
        assert!(t.link(NodeId(0), NodeId(1)).is_none(), "third link spills");
        assert_eq!(t.spilled().messages, 1);
    }
}
