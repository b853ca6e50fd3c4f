//! Transport-level traffic accounting.
//!
//! ModelNet experiments log every payload transmission per link (§5.3); the
//! simulator does the same here, at the point where messages enter the
//! virtual network. Loss and silencing are applied *after* accounting:
//! a transmitted-but-dropped packet still consumed bandwidth at the sender,
//! which matches how the paper counts transmissions.
//!
//! # What is counted
//!
//! Run totals — messages, bytes and payloads — and per-node payload
//! counters are flat counters, exact. Per link the table keeps one
//! number: the payload transmissions it carried, the only per-link
//! quantity the structure measures read. A link that carried only
//! headers (advertisements, requests, shuffles) is still in the table,
//! with a count of zero: it is a used link.
//!
//! # Storage: append-only log, aggregated on demand
//!
//! Per-link counts are *not* maintained in a hash map on the hot path: at
//! 10k nodes that map holds hundreds of thousands of entries, and the
//! per-send probe (plus its periodic rehashes) was worth ~20 % of the
//! whole event loop. Instead every send appends one 8-byte record — the
//! two node ids, with the payload flag in bit 31 of the destination — to
//! a log, a sequential, cache-friendly write, and the log folds into a
//! `(from, to)`-sorted link table of 16-byte entries once it holds as
//! many records as the table has links, within `[FOLD_FLOOR, COMPACT_AT]`
//! (2¹⁶ to 2²⁰ records, 0.5 to 8 MB). So traffic memory is O(distinct
//! links) — beyond a 0.5 MB floor the log never holds more records than
//! the table has links — rather than O(total sends), and total fold work
//! stays linear in the records. Where the folds fall cannot show in any
//! query: counts are integer sums, and the spill rule below does not
//! depend on order. The folds stay in memory: sealing materialises the
//! whole tracked link set anyway, so moving them out of RAM between
//! folds would not lower the peak. [`Traffic::fold_stats`] counts the
//! folds and the records they carried.
//!
//! # One copy of the link table
//!
//! A fold sorts the log where it lies and merges its runs of equal links
//! straight into the table, in place, back to front, so the table is the
//! only allocation a fold grows. Sealing is one last fold: the table
//! *becomes* the sealed table, and every query — [`Traffic::link`] by
//! binary search, [`Traffic::map_links`] by one scan — reads it where it
//! lies. A shard merge counts the union of the parts' links first and
//! writes them into one table of that size. Nothing is handed over in
//! place: a caller's per-link entry (24 bytes for a pair of `NodeId`s
//! and a count) does not fit a 16-byte slot, so it maps the sealed table
//! with [`Traffic::map_links`] into a list of its own.
//!
//! # Spill threshold
//!
//! A configurable *spill threshold* bounds link tracking at scale, so a
//! 10k-node run cannot let link accounting grow toward the n² worst
//! case: once more than `threshold` distinct links exist, the tracked
//! set is the `threshold` **smallest links in `(from, to)` order**, and
//! the payloads of every other link are summed into the single aggregate
//! [`Traffic::spilled`]. Totals and per-node payload counters stay exact
//! either way.
//!
//! Which links are tracked is therefore a function of the set of links
//! alone — never of when a link first appeared, how the record stream
//! was ordered, where compactions fell or how senders were split over
//! shards. The pair itself is the rank (rather than, say, a hash of it)
//! because every accumulator list in this module is already
//! `(from, to)`-sorted: capping is a truncate that folds the tail, with
//! no sort, no hashing and no per-link side data. The threshold is a
//! memory bound that no preset reaches (`report.used_links` stays well
//! below it), not a sampling device; a run that does hit it keeps exact
//! counts for its low-id senders and tracks exactly `threshold` links.
//!
//! The rule is *monotone*: a link outside the `threshold` smallest of
//! some set of links is outside the `threshold` smallest of every
//! superset, so an evicted link can never re-enter — when it reappears
//! in a later fold it is evicted again and its payloads land in the same
//! aggregate. Three things follow, and the proptests at the bottom of
//! this file pin each of them:
//!
//! * capping after every fold (which keeps the accumulator list at
//!   `threshold` entries for the whole run) equals capping once at seal;
//! * any permutation of the record stream seals to the same table;
//! * shards that each cap *locally* at the same threshold and are then
//!   merged (`Traffic::merge_shards`) equal one table fed the whole
//!   stream — a link a shard evicted is beyond `threshold` smaller links
//!   of that shard alone, hence of the union.

use crate::NodeId;

/// Bit 31 of [`SendRecord::to`]: set when the send carried a payload.
const PAYLOAD_BIT: u32 = 1 << 31;

/// One logged transmission (8 bytes): the sender, and the destination
/// with the payload flag in [`PAYLOAD_BIT`].
#[derive(Debug, Clone, Copy)]
struct SendRecord {
    from: u32,
    to: u32,
}

impl SendRecord {
    /// `(from, to)` packed into one integer, in the same order.
    fn key(self) -> u64 {
        u64::from(self.from) << 32 | u64::from(self.to & !PAYLOAD_BIT)
    }

    /// 1 for a payload transmission, 0 for any other message.
    fn payloads(self) -> u64 {
        u64::from(self.to >> 31)
    }
}

/// One partially aggregated link and its payload count so far (16 bytes).
#[derive(Debug, Clone, Copy, Default)]
struct LinkAcc {
    from: u32,
    to: u32,
    payloads: u64,
}

impl LinkAcc {
    /// `(from, to)` packed into one integer, in the same order.
    fn key(&self) -> u64 {
        u64::from(self.from) << 32 | u64::from(self.to)
    }
}

impl From<SendRecord> for LinkAcc {
    fn from(r: SendRecord) -> Self {
        LinkAcc {
            from: r.from,
            to: r.to & !PAYLOAD_BIT,
            payloads: r.payloads(),
        }
    }
}

/// The links of a sorted table and a sorted log together, in `(from, to)`
/// order, each once, with the payloads of both summed.
struct UnionLinks<'a> {
    table: &'a [LinkAcc],
    log: &'a [SendRecord],
}

impl Iterator for UnionLinks<'_> {
    type Item = LinkAcc;

    fn next(&mut self) -> Option<LinkAcc> {
        let key = match (self.table.first(), self.log.first()) {
            (None, None) => return None,
            (Some(l), None) => l.key(),
            (None, Some(r)) => r.key(),
            (Some(l), Some(r)) => l.key().min(r.key()),
        };
        let mut link = LinkAcc {
            from: (key >> 32) as u32,
            to: key as u32,
            payloads: 0,
        };
        if let Some((l, rest)) = self.table.split_first().filter(|(l, _)| l.key() == key) {
            link.payloads += l.payloads;
            self.table = rest;
        }
        let run = self.log.iter().take_while(|r| r.key() == key).count();
        link.payloads += self.log[..run].iter().map(|r| r.payloads()).sum::<u64>();
        self.log = &self.log[run..];
        Some(link)
    }
}

/// Bounds of the fold window (`Traffic::window`): 0.5 MB and 8 MB of log.
const FOLD_FLOOR: usize = 1 << 16;
const COMPACT_AT: usize = 1 << 20;

/// How often a [`Traffic`] log folded into its link table, and how many
/// send records those folds carried (a shard merge adds its parts').
/// Where folds fall depends on how senders are split over shards, so
/// these counts describe the engine's work, not the run's outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Folds of a non-empty log, the last one at seal included.
    pub folds: u64,
    /// Send records those folds sorted and merged.
    pub records: u64,
}

/// The aggregated per-link view: one flat `(from, to)`-sorted table.
#[derive(Debug, Clone)]
struct SealedLinks {
    /// Tracked links only, sorted by `(from, to)`.
    flat: Vec<LinkAcc>,
    /// Payloads recorded on links beyond the spill threshold.
    spilled: u64,
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
/// assert_eq!(t.link(NodeId(0), NodeId(1)), Some(1));
/// ```
#[derive(Debug)]
pub struct Traffic {
    log: Vec<SendRecord>,
    /// Records folded out of `log` so far (sorted by `(from, to)`, at
    /// most `spill_threshold` entries); the log is compacted into this
    /// once it fills its window (`Traffic::window`).
    folded: Vec<LinkAcc>,
    /// Built by [`Traffic::seal`]; `None` while recording.
    sealed: Option<SealedLinks>,
    total_messages: u64,
    total_bytes: u64,
    total_payloads: u64,
    /// Payloads sent per node, pre-sized via [`Traffic::reserve_nodes`]
    /// or grown on demand (exact even when link tracking spills).
    node_payloads: Vec<u64>,
    /// Hot-path growths of `node_payloads` (0 when pre-sized — pinned by
    /// a regression test so the O(n) resize never returns to the loop).
    node_payload_growths: u32,
    /// Maximum number of distinct links tracked individually.
    spill_threshold: usize,
    /// Payloads of links already evicted by the cap applied at each fold.
    spilled_acc: u64,
    /// Longest accumulator list held while merging shard parts (0 for
    /// one-shard runs); see [`Traffic::shard_merge_acc_peak`].
    shard_merge_acc_peak: usize,
    /// See [`Traffic::fold_stats`].
    fold_stats: FoldStats,
}

impl Default for Traffic {
    fn default() -> Self {
        Traffic::with_spill_threshold(usize::MAX)
    }
}

impl Traffic {
    /// Node ids the log can hold are below this: bit 31 of a record's
    /// destination is its payload flag.
    pub(crate) const MAX_NODES: usize = PAYLOAD_BIT as usize;

    /// Creates an accounting table that tracks at most `spill_threshold`
    /// distinct links individually — the smallest in `(from, to)` order;
    /// the payloads of all other links are summed into the aggregate
    /// [`Traffic::spilled`].
    pub fn with_spill_threshold(spill_threshold: usize) -> Self {
        Traffic {
            log: Vec::new(),
            folded: Vec::new(),
            sealed: None,
            total_messages: 0,
            total_bytes: 0,
            total_payloads: 0,
            node_payloads: Vec::new(),
            node_payload_growths: 0,
            spill_threshold,
            spilled_acc: 0,
            shard_merge_acc_peak: 0,
            fold_stats: FoldStats::default(),
        }
    }

    /// Pre-sizes the per-node payload table for `n` nodes, capping it at
    /// the node count and keeping the hot path free of O(n) regrowth.
    pub fn reserve_nodes(&mut self, n: usize) {
        if self.node_payloads.len() < n {
            self.node_payloads.resize(n, 0);
        }
    }

    /// How often the hot path had to grow the per-node payload table
    /// (0 when [`Traffic::reserve_nodes`] pre-sized it).
    pub fn node_payload_growths(&self) -> u32 {
        self.node_payload_growths
    }

    /// Longest link-accumulator list held while merging shard parts:
    /// each part's table and the merged output. 0 for one-shard runs;
    /// never exceeds the configured threshold otherwise — every shard
    /// caps locally, and the merge never writes past the threshold.
    /// Pinned by the shard-determinism regression tests.
    pub fn shard_merge_acc_peak(&self) -> usize {
        self.shard_merge_acc_peak
    }

    /// How many times the log folded into the link table so far, and the
    /// records those folds carried. Observe-only.
    pub fn fold_stats(&self) -> FoldStats {
        self.fold_stats
    }

    /// Records one message from `from` to `to`. Node ids must be below
    /// 2³¹ (`Sim` asserts it for its node count; debug builds check each
    /// record).
    ///
    /// # Panics
    ///
    /// Panics if called after [`Traffic::seal`] — sealing drops the
    /// record log.
    pub fn record(&mut self, from: NodeId, to: NodeId, bytes: u32, payload: bool) {
        assert!(self.sealed.is_none(), "record() after seal()");
        let idx = from.index();
        debug_assert!(
            idx < Self::MAX_NODES && to.index() < Self::MAX_NODES,
            "node id beyond the traffic log's 31 bits"
        );
        self.total_messages += 1;
        self.total_bytes += u64::from(bytes);
        if payload {
            self.total_payloads += 1;
            if idx >= self.node_payloads.len() {
                self.node_payloads.resize(idx + 1, 0);
                self.node_payload_growths += 1;
            }
            self.node_payloads[idx] += 1;
        }
        self.log.push(SendRecord {
            from: idx as u32,
            to: to.index() as u32 | if payload { PAYLOAD_BIT } else { 0 },
        });
        if self.log.len() >= self.window() {
            self.compact();
            // Grow the emptied log to the next window once, rather than
            // doubling past it.
            self.log.reserve_exact(self.window());
        }
    }

    /// How many records the log holds before it folds: as many as the
    /// table has links, within `[FOLD_FLOOR, COMPACT_AT]`. A fold costs
    /// O(table + window), so total fold work stays linear in the records.
    fn window(&self) -> usize {
        self.folded.len().clamp(FOLD_FLOOR, COMPACT_AT)
    }

    /// Sorts the log by `(from, to)` where it lies and counts the fold
    /// that consumes it.
    fn sort_log(&mut self) {
        self.log.sort_unstable_by_key(|&r| r.key());
        if !self.log.is_empty() {
            self.fold_stats.folds += 1;
            self.fold_stats.records += self.log.len() as u64;
        }
    }

    /// Folds the log into `folded` and empties it: the log is sorted by
    /// `(from, to)` where it lies and its runs of equal links are merged
    /// straight into the table, capped at the spill threshold.
    fn compact(&mut self) {
        if self.log.is_empty() {
            return;
        }
        self.sort_log();
        Self::merge_into(
            &mut self.folded,
            &self.log,
            self.spill_threshold,
            &mut self.spilled_acc,
        );
        self.log.clear();
    }

    /// Builds the per-link view once and drops the record log. Optional:
    /// queries aggregate transparently (each call re-scans the log) —
    /// sealing makes repeated queries O(1) and frees the log's memory,
    /// at the price that no further
    /// [`Traffic::record`] is accepted.
    pub fn seal(&mut self) {
        if self.sealed.is_none() {
            self.compact();
            self.log = Vec::new();
            self.sealed = Some(SealedLinks {
                flat: std::mem::take(&mut self.folded),
                spilled: self.spilled_acc,
            });
        }
    }

    /// Merges the `(from, to)`-sorted log `add` — whose equal links may
    /// repeat — into the sorted, duplicate-free table `acc` in place,
    /// summing the payloads of equal links, and applies the spill rule on
    /// the way: only the `threshold` smallest links of the union are
    /// written, and the payloads of the rest are added to `spilled`.
    /// `acc` must already hold at most `threshold` links.
    ///
    /// One counting pass finds the union's size; the merge then runs back
    /// to front, so it writes each kept link once into its final place in
    /// `acc` — never ahead of the `acc` entries still to be read — and
    /// `acc` is the only list that grows, to its exact new size.
    fn merge_into(acc: &mut Vec<LinkAcc>, add: &[SendRecord], threshold: usize, spilled: &mut u64) {
        debug_assert!(acc.len() <= threshold);
        let union = UnionLinks {
            table: acc,
            log: add,
        }
        .count();
        let kept = union.min(threshold);
        let mut skip = union - kept;
        let mut i = acc.len();
        acc.reserve_exact(kept - i);
        acc.resize(kept, LinkAcc::default());
        let (mut w, mut j) = (kept, add.len());
        let mut emit = |acc: &mut [LinkAcc], link: LinkAcc| {
            if skip > 0 {
                skip -= 1;
                *spilled += link.payloads;
            } else {
                w -= 1;
                acc[w] = link;
            }
        };
        while j > 0 {
            // The last link of `add[..j]`, summed over its run, after
            // the `acc` links above it.
            let mut link = LinkAcc::from(add[j - 1]);
            j -= 1;
            while j > 0 && add[j - 1].key() == link.key() {
                j -= 1;
                link.payloads += add[j].payloads();
            }
            while i > 0 && acc[i - 1].key() > link.key() {
                i -= 1;
                let above = acc[i];
                emit(acc, above);
            }
            if i > 0 && acc[i - 1].key() == link.key() {
                i -= 1;
                link.payloads += acc[i].payloads;
            }
            emit(acc, link);
        }
        // The rest of `acc` lies below every `add` link: its largest
        // `skip` links spill (then nothing was written yet), and the
        // others are already in place.
        *spilled += acc[i - skip..i].iter().map(|l| l.payloads).sum::<u64>();
        debug_assert_eq!(w, i - skip);
    }

    /// Merges the per-shard traffic tables of a multi-shard run into the
    /// sealed view a one-shard run would produce.
    ///
    /// Each part must still be recording (unsealed), and all parts must
    /// share one spill threshold — the run's configured one, which each
    /// shard has been applying locally all along. Totals and per-node
    /// payload counters are plain sums. Links are not: every shard
    /// records at its own senders, so no link occurs in two parts. Each
    /// part's log is sorted where it lies, the union of all parts' tables
    /// and logs is counted, and one table of that size (capped at the
    /// threshold) receives a k-way merge of the parts before they are
    /// dropped — no part's table grows at seal. The tracked set is the
    /// `threshold` smallest links of the union. That equals what one
    /// table fed every record would track, because the spill rule ranks
    /// links by `(from, to)` alone (module docs): a link some shard
    /// already evicted has at least `threshold` smaller links in that
    /// shard, so the merge would evict it too.
    ///
    /// # Panics
    ///
    /// Panics if a part was already sealed or the thresholds differ.
    pub(crate) fn merge_shards(mut parts: Vec<Traffic>) -> Traffic {
        let spill_threshold = parts.first().expect("at least one shard").spill_threshold;
        // Recycle the largest per-shard payload table as the merged one
        // instead of growing a fresh allocation from zero.
        let donor = (0..parts.len())
            .max_by_key(|&i| parts[i].node_payloads.len())
            .expect("at least one shard");
        let mut merged = Traffic {
            node_payloads: std::mem::take(&mut parts[donor].node_payloads),
            ..Traffic::with_spill_threshold(spill_threshold)
        };
        let mut union = 0;
        for part in &mut parts {
            assert!(part.sealed.is_none(), "cannot merge sealed traffic");
            assert_eq!(
                part.spill_threshold, spill_threshold,
                "shards of one run share one spill threshold"
            );
            merged.total_messages += part.total_messages;
            merged.total_bytes += part.total_bytes;
            merged.total_payloads += part.total_payloads;
            merged.node_payload_growths += part.node_payload_growths;
            if merged.node_payloads.len() < part.node_payloads.len() {
                merged.node_payloads.resize(part.node_payloads.len(), 0);
            }
            for (i, v) in part.node_payloads.iter().enumerate() {
                merged.node_payloads[i] += v;
            }
            merged.spilled_acc += part.spilled_acc;
            part.sort_log();
            merged.fold_stats.folds += part.fold_stats.folds;
            merged.fold_stats.records += part.fold_stats.records;
            merged.shard_merge_acc_peak = merged.shard_merge_acc_peak.max(part.folded.len());
            union += part.union_links().count();
        }
        let kept = union.min(spill_threshold);
        let mut flat = Vec::with_capacity(kept);
        let mut links: Vec<_> = parts.iter().map(|p| p.union_links().peekable()).collect();
        let mut last = None;
        while let Some((key, p)) = links
            .iter_mut()
            .enumerate()
            .filter_map(|(p, part)| part.peek().map(|l| (l.key(), p)))
            .min()
        {
            let link = links[p].next().expect("peeked");
            debug_assert!(last < Some(key), "a link occurs in two shards");
            last = Some(key);
            if flat.len() < kept {
                flat.push(link);
            } else {
                merged.spilled_acc += link.payloads;
            }
        }
        drop(links);
        drop(parts);
        merged.shard_merge_acc_peak = merged.shard_merge_acc_peak.max(flat.len());
        merged.sealed = Some(SealedLinks {
            flat,
            spilled: merged.spilled_acc,
        });
        merged
    }

    /// The links of this (unsealed) table and its log, which must be
    /// sorted, in `(from, to)` order.
    fn union_links(&self) -> UnionLinks<'_> {
        UnionLinks {
            table: &self.folded,
            log: &self.log,
        }
    }

    /// Runs `f` over the per-link view — the sealed one if available,
    /// otherwise one sealed from a copy of the folded state plus the log
    /// so far.
    fn with_links<R>(&self, f: impl FnOnce(&SealedLinks) -> R) -> R {
        match &self.sealed {
            Some(s) => f(s),
            None => {
                let mut snapshot = Traffic {
                    log: self.log.clone(),
                    folded: self.folded.clone(),
                    spilled_acc: self.spilled_acc,
                    ..Traffic::with_spill_threshold(self.spill_threshold)
                };
                snapshot.seal();
                f(snapshot.sealed.as_ref().expect("just sealed"))
            }
        }
    }

    /// Total messages sent (including later-dropped ones).
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Total bytes sent.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total payload transmissions.
    pub fn total_payloads(&self) -> u64 {
        self.total_payloads
    }

    /// Number of individually tracked directed links that carried at
    /// least one message, payload or not. When more distinct links were
    /// used than the spill threshold allows, this is the threshold
    /// (by design: tracking is bounded).
    pub fn link_count(&self) -> usize {
        self.with_links(|s| s.flat.len())
    }

    /// Payload transmissions recorded on links beyond the spill threshold
    /// (0 when nothing spilled, or when the spilled links carried only
    /// headers).
    pub fn spilled(&self) -> u64 {
        self.with_links(|s| s.spilled)
    }

    /// Payload transmissions on one directed link, if it carried any
    /// message and was tracked individually (`Some(0)` for a link that
    /// carried headers only).
    pub fn link(&self, from: NodeId, to: NodeId) -> Option<u64> {
        self.with_links(|s| {
            s.flat
                .binary_search_by_key(&(from.index(), to.index()), |l| {
                    (l.from as usize, l.to as usize)
                })
                .ok()
                .map(|i| s.flat[i].payloads)
        })
    }

    /// All individually tracked directed links and their payload counts,
    /// in deterministic (source, destination) order.
    pub fn links(&self) -> Vec<((NodeId, NodeId), u64)> {
        self.map_links(|pair, payloads| (pair, payloads))
    }

    /// `f` applied to every individually tracked directed link and its
    /// payload count, in (source, destination) order, collected into a
    /// vector of exactly [`Traffic::link_count`] capacity. Reads a sealed
    /// table in place.
    pub fn map_links<T>(&self, mut f: impl FnMut((NodeId, NodeId), u64) -> T) -> Vec<T> {
        self.with_links(|s| {
            s.flat
                .iter()
                .map(|l| f((NodeId(l.from as usize), NodeId(l.to as usize)), l.payloads))
                .collect()
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
    use super::{FoldStats, LinkAcc, SendRecord, Traffic, FOLD_FLOOR};
    use crate::NodeId;
    use proptest::prelude::*;
    use proptest::TestCaseError;
    use std::collections::BTreeMap;

    #[test]
    fn records_accumulate_per_link() {
        let mut t = Traffic::default();
        t.record(NodeId(0), NodeId(1), 100, true);
        t.record(NodeId(0), NodeId(1), 50, false);
        t.record(NodeId(1), NodeId(0), 10, true);
        t.record(NodeId(1), NodeId(2), 10, false);
        assert_eq!(t.link(NodeId(0), NodeId(1)), Some(1));
        assert_eq!(t.link(NodeId(1), NodeId(2)), Some(0), "a header-only link");
        assert_eq!(t.link_count(), 3);
        assert_eq!(t.total_messages(), 4);
        assert_eq!(t.total_bytes(), 170);
        assert_eq!(t.total_payloads(), 2);
        assert!(t.link(NodeId(2), NodeId(0)).is_none());
        assert_eq!(t.spilled(), 0, "no spill by default");
    }

    #[test]
    fn records_and_links_are_eight_and_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<SendRecord>(), 8);
        assert_eq!(std::mem::size_of::<LinkAcc>(), 16);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "beyond the traffic log's 31 bits")]
    fn recording_an_id_that_reaches_the_payload_bit_panics() {
        let mut t = Traffic::default();
        t.record(NodeId(0), NodeId(1 << 31), 8, false);
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
        // The largest pair spills although it was recorded first...
        t.record(NodeId(0), NodeId(3), 10, true);
        t.record(NodeId(0), NodeId(1), 10, true);
        t.record(NodeId(0), NodeId(2), 10, false);
        // ...and the tracked links keep accumulating exactly.
        t.record(NodeId(0), NodeId(1), 10, true);
        assert_eq!(t.link_count(), 2);
        assert!(t.link(NodeId(0), NodeId(3)).is_none(), "spilled link");
        assert_eq!(t.spilled(), 1);
        // Totals and per-node counters stay exact.
        assert_eq!(t.total_messages(), 4);
        assert_eq!(t.total_bytes(), 40);
        assert_eq!(t.total_payloads(), 3);
        assert_eq!(t.node_payloads_sent(NodeId(0)), 3);
        assert_eq!(t.link(NodeId(0), NodeId(1)), Some(2));
    }

    #[test]
    fn zero_threshold_spills_everything() {
        let mut t = Traffic::with_spill_threshold(0);
        t.record(NodeId(0), NodeId(1), 7, true);
        assert_eq!(t.link_count(), 0);
        assert_eq!(t.spilled(), 1);
        assert_eq!(t.total_bytes(), 7);
        assert_eq!(t.node_payloads_sent(NodeId(0)), 1);
    }

    #[test]
    fn seal_freezes_the_view_and_queries_agree() {
        let mut t = Traffic::with_spill_threshold(3);
        t.record(NodeId(1), NodeId(0), 5, true);
        t.record(NodeId(0), NodeId(1), 5, false);
        t.record(NodeId(0), NodeId(2), 5, false);
        t.record(NodeId(2), NodeId(1), 5, true); // spilled (largest pair)
        let before = (t.links(), t.link_count(), t.spilled());
        t.seal();
        t.seal(); // idempotent
        assert_eq!(before.0, t.links());
        assert_eq!(before.1, t.link_count());
        assert_eq!(before.2, t.spilled());
        assert_eq!(t.spilled(), 1);
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
        // never-compacted twin, including which links spill.
        let stream = [(5, 6), (4, 5), (0, 1), (5, 6), (0, 2), (4, 5)];
        let mut a = Traffic::with_spill_threshold(2);
        let mut b = Traffic::with_spill_threshold(2);
        for (i, &(f, t)) in stream.iter().enumerate() {
            a.record(NodeId(f), NodeId(t), 10, i != 2);
            b.record(NodeId(f), NodeId(t), 10, i != 2);
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
        // `b` tracked (5,6) and (4,5) after its first folds and evicted
        // them when the smaller pairs arrived; their later records
        // followed them into the aggregate.
        assert!(b.link(NodeId(0), NodeId(1)).is_some(), "seen third, kept");
        assert!(b.link(NodeId(5), NodeId(6)).is_none(), "seen first, spilt");
        assert_eq!(b.spilled(), 4, "(5,6) and (4,5), twice each");
    }

    #[test]
    fn log_window_tracks_the_table() {
        // Many sends on few links: the log folds at the floor, never
        // growing toward the record count.
        let mut t = Traffic::default();
        let mut rng = egm_rng::Rng::seed_from_u64(5);
        for _ in 0..300_000 {
            let (from, to) = (rng.range_usize(0, 20), rng.range_usize(0, 25));
            t.record(NodeId(from), NodeId(to), 8, true);
            let bound = FOLD_FLOOR.max(t.folded.len());
            assert!(t.log.len() <= bound && t.log.capacity() <= bound);
        }
        assert_eq!(t.folded.len(), 500);
        // Four full floor windows folded; sealing folds the rest.
        let floor = FOLD_FLOOR as u64;
        let stats = |folds, records| FoldStats { folds, records };
        assert_eq!(t.fold_stats(), stats(4, 4 * floor));
        t.seal();
        assert_eq!(t.fold_stats(), stats(5, 300_000));
        // Few sends per link: the window grows with the table, in one
        // allocation per fold.
        let mut t = Traffic::default();
        for i in 0..400_000 {
            t.record(NodeId(i % 1000), NodeId(i / 1000), 8, false);
            let bound = FOLD_FLOOR.max(t.folded.len());
            assert!(t.log.len() <= bound && t.log.capacity() <= bound);
        }
        assert!(t.folded.len() > FOLD_FLOOR, "the window grew");
        // Windows of 2¹⁶, 2¹⁶ and 2¹⁷ records grow the table to 2¹⁸
        // links, and the next window to past the stream's end.
        assert_eq!(t.fold_stats(), stats(3, 4 * floor));
        assert_eq!(t.folded.len(), 4 * FOLD_FLOOR);
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
        // Two sender-partitioned parts at the run's threshold, part 1
        // folded mid-run: the merge keeps the two smallest links of the
        // union, (0,1) and (0,2), and evicts (0,3) and both of part 1's.
        let mut part0 = Traffic::with_spill_threshold(2);
        part0.record(NodeId(0), NodeId(3), 10, true);
        part0.record(NodeId(0), NodeId(1), 10, true);
        part0.record(NodeId(0), NodeId(2), 10, false);
        let mut part1 = Traffic::with_spill_threshold(2);
        part1.record(NodeId(1), NodeId(9), 10, true);
        part1.record(NodeId(1), NodeId(8), 10, true);
        part1.compact();
        let merged = Traffic::merge_shards(vec![part0, part1]);
        // Sequential twin: the same records interleaved, same threshold.
        let mut seq = Traffic::with_spill_threshold(2);
        seq.record(NodeId(1), NodeId(9), 10, true);
        seq.record(NodeId(0), NodeId(3), 10, true);
        seq.record(NodeId(0), NodeId(1), 10, true);
        seq.record(NodeId(1), NodeId(8), 10, true);
        seq.record(NodeId(0), NodeId(2), 10, false);
        seq.seal();
        assert_eq!(merged.links(), seq.links());
        assert_eq!(merged.link_count(), seq.link_count());
        assert_eq!(merged.spilled(), seq.spilled());
        assert_eq!(merged.spilled(), 3);
        assert_eq!(merged.total_messages(), seq.total_messages());
        assert_eq!(merged.total_bytes(), seq.total_bytes());
        assert_eq!(merged.payloads_sent_per_node(2), vec![2, 2]);
        // Part 1's fold mid-run, then the merge's pass over part 0's log.
        assert_eq!(
            merged.fold_stats(),
            FoldStats {
                folds: 2,
                records: 5
            }
        );
        let flat = &merged.sealed.as_ref().expect("sealed").flat;
        assert_eq!(flat.capacity(), flat.len(), "allocated once, exactly");
        let peak = merged.shard_merge_acc_peak();
        assert!(peak > 0 && peak <= 2, "peak {peak} exceeds threshold");
        assert_eq!(seq.shard_merge_acc_peak(), 0, "sequential never merges");
    }

    #[test]
    fn merge_shards_caps_folds_with_reappearing_links() {
        // Part 0 folds twice; link (0,3) is evicted by the first fold and
        // reappears in the second, so it must be evicted again with both
        // of its payloads landing in the spilled aggregate.
        let mut part0 = Traffic::with_spill_threshold(2);
        part0.record(NodeId(0), NodeId(1), 1, true);
        part0.record(NodeId(0), NodeId(2), 1, true);
        part0.record(NodeId(0), NodeId(3), 1, true);
        part0.compact();
        part0.record(NodeId(0), NodeId(1), 1, true);
        part0.record(NodeId(0), NodeId(3), 1, true);
        part0.compact();
        let mut part1 = Traffic::with_spill_threshold(2);
        part1.record(NodeId(1), NodeId(5), 1, true);
        let merged = Traffic::merge_shards(vec![part0, part1]);
        let mut seq = Traffic::with_spill_threshold(2);
        for (f, t) in [(0, 1), (0, 2), (0, 3), (1, 5), (0, 1), (0, 3)] {
            seq.record(NodeId(f), NodeId(t), 1, true);
        }
        seq.seal();
        assert_eq!(merged.links(), seq.links());
        assert_eq!(merged.spilled(), seq.spilled());
        assert_eq!(merged.spilled(), 3, "(0,3) twice plus (1,5)");
        let peak = merged.shard_merge_acc_peak();
        assert!(peak > 0 && peak <= 2, "peak {peak} exceeds threshold");
    }

    #[test]
    fn spill_rule_ranks_by_pair_not_by_first_appearance() {
        // The link seen first spills because it is the largest pair; the
        // one seen last is tracked because it is the smallest.
        let mut t = Traffic::with_spill_threshold(2);
        t.record(NodeId(5), NodeId(6), 1, true);
        t.record(NodeId(4), NodeId(5), 1, true);
        t.record(NodeId(0), NodeId(1), 1, true);
        assert!(t.link(NodeId(0), NodeId(1)).is_some());
        assert!(t.link(NodeId(4), NodeId(5)).is_some());
        assert!(
            t.link(NodeId(5), NodeId(6)).is_none(),
            "largest pair spills"
        );
        assert_eq!(t.spilled(), 1);
    }

    /// Everything a sealed table answers.
    type View = (Vec<((NodeId, NodeId), u64)>, u64, (u64, u64, u64), Vec<u64>);

    fn view(t: &Traffic) -> View {
        (
            t.links(),
            t.spilled(),
            (t.total_messages(), t.total_bytes(), t.total_payloads()),
            t.payloads_sent_per_node(NODES),
        )
    }

    /// Node ids the proptest streams draw from: few enough that links
    /// repeat and every threshold class (0, 1, mid, ≥ distinct) occurs.
    const NODES: usize = 6;

    /// Feeds `stream` to one table — compacting after every record index
    /// in `compact_at` — and seals it.
    fn sealed_table(
        stream: &[(usize, usize, u32, bool)],
        threshold: usize,
        compact_at: &[usize],
    ) -> Traffic {
        let mut t = recording_table(stream, threshold, compact_at);
        t.seal();
        t
    }

    fn recording_table(
        stream: &[(usize, usize, u32, bool)],
        threshold: usize,
        compact_at: &[usize],
    ) -> Traffic {
        let mut t = Traffic::with_spill_threshold(threshold);
        for (i, &(from, to, bytes, payload)) in stream.iter().enumerate() {
            t.record(NodeId(from), NodeId(to), bytes, payload);
            if compact_at.contains(&i) {
                t.compact();
            }
        }
        t
    }

    #[test]
    fn in_place_merge_adds_equal_keys_at_both_ends() {
        // `add` shares its first and last link with `acc`, interleaves
        // new links between them, and the union exceeds the threshold by
        // one: the largest link spills, with the payloads of both lists.
        let link = |from, to, payloads| LinkAcc { from, to, payloads };
        let sends = |from, to, n| {
            let payload = SendRecord {
                from,
                to: to | super::PAYLOAD_BIT,
            };
            vec![payload; n]
        };
        let mut acc = vec![link(0, 1, 1), link(0, 4, 1), link(2, 0, 1)];
        let add = [
            sends(0, 1, 2),
            sends(0, 2, 2),
            sends(1, 0, 2),
            sends(2, 0, 2),
        ]
        .concat();
        let mut spilled = 0;
        Traffic::merge_into(&mut acc, &add, 4, &mut spilled);
        let keys: Vec<_> = acc.iter().map(|l| ((l.from, l.to), l.payloads)).collect();
        assert_eq!(keys, [((0, 1), 3), ((0, 2), 2), ((0, 4), 1), ((1, 0), 2)]);
        assert_eq!(spilled, 3, "(2,0) from both lists");
        assert_eq!(acc.capacity(), 4, "merged in place at the kept size");

        // Into an empty list, and with everything spilled; a header-only
        // send adds a link but no payload.
        let header = SendRecord { from: 3, to: 4 };
        let mut empty = Vec::new();
        let mut spilled = 0;
        Traffic::merge_into(&mut empty, &[header], 1, &mut spilled);
        assert_eq!((empty[0].key(), empty[0].payloads), (3 << 32 | 4, 0));
        let mut none = Vec::new();
        Traffic::merge_into(&mut none, &sends(3, 3, 5), 0, &mut spilled);
        assert!(none.is_empty());
        assert_eq!(spilled, 5);
    }

    /// The table a brute-force count of `stream` predicts: the
    /// `threshold` smallest links and the payloads of all others.
    fn brute_force(
        stream: &[(usize, usize, u32, bool)],
        threshold: usize,
    ) -> (BTreeMap<(usize, usize), u64>, u64) {
        let mut all: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for &(from, to, _, payload) in stream {
            *all.entry((from, to)).or_default() += u64::from(payload);
        }
        let spilled = all.values().skip(threshold).sum();
        let tracked = all.into_iter().take(threshold).collect();
        (tracked, spilled)
    }

    /// Every per-link query of `t` agrees with the brute-force count.
    fn assert_matches(
        t: &Traffic,
        tracked: &BTreeMap<(usize, usize), u64>,
        spilled: u64,
    ) -> Result<(), TestCaseError> {
        let expect: Vec<_> = tracked
            .iter()
            .map(|(&(f, to), &payloads)| ((NodeId(f), NodeId(to)), payloads))
            .collect();
        prop_assert_eq!(t.links(), expect);
        prop_assert_eq!(t.link_count(), tracked.len());
        prop_assert_eq!(t.spilled(), spilled);
        for from in 0..NODES + 1 {
            for to in 0..NODES + 1 {
                prop_assert_eq!(
                    t.link(NodeId(from), NodeId(to)),
                    tracked.get(&(from, to)).copied()
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Folding (at random points, at full log windows, into a
        /// possibly empty or capped accumulator), sealing and merging
        /// shard parts compute exactly the brute-force tally: the same
        /// links, every `link()` lookup, `link_count()` and `spilled()`,
        /// before and after sealing.
        #[test]
        fn fold_and_seal_match_brute_force_tally(
            tail in prop::collection::vec(
                ((0usize..NODES, 0usize..NODES), (1u32..400, prop::bool::ANY)),
                0..80,
            ),
            threshold in 0usize..NODES * NODES + 2,
            compact_at in prop::collection::vec(0usize..80, 0..8),
            windows in 0usize..3,
            stream_seed in 0u64..1_000_000,
            parts in 1usize..4,
        ) {
            // `windows` full log windows of random sends ahead of the
            // proptest's tail: the log folds on its own at each window
            // (fewer links than `FOLD_FLOOR`), then holds the tail.
            let mut rng = egm_rng::Rng::seed_from_u64(stream_seed);
            let head = windows * FOLD_FLOOR;
            let mut stream: Vec<(usize, usize, u32, bool)> = (0..head)
                .map(|_| {
                    let (from, to) = (rng.range_usize(0, NODES), rng.range_usize(0, NODES));
                    (from, to, rng.range_u64(1, 400) as u32, rng.bool(0.5))
                })
                .collect();
            stream.extend(
                tail.into_iter()
                    .map(|((from, to), (bytes, payload))| (from, to, bytes, payload)),
            );
            let compact_at: Vec<usize> = compact_at.iter().map(|&i| head + i).collect();
            let (tracked, spilled) = brute_force(&stream, threshold);
            let mut t = recording_table(&stream, threshold, &compact_at);
            prop_assert!(t.log.len() < FOLD_FLOOR, "the head folded at its windows");
            assert_matches(&t, &tracked, spilled)?;
            t.seal();
            assert_matches(&t, &tracked, spilled)?;

            // Senders dealt to `parts` shards, each folding its share at
            // its own windows, merged.
            let shards: Vec<Traffic> = (0..parts)
                .map(|p| {
                    let share: Vec<_> =
                        stream.iter().copied().filter(|r| r.0 % parts == p).collect();
                    recording_table(&share, threshold, &[])
                })
                .collect();
            assert_matches(&Traffic::merge_shards(shards), &tracked, spilled)?;
        }

        /// The spill rule is order-free: for a random record stream and a
        /// threshold from every class, (a) any permutation of the stream,
        /// (b) compaction at any points, and (c) any sender-partition into 1..=4 locally capped parts
        /// merged by `merge_shards` all seal to the table of one
        /// uncompacted pass — same links, same `spilled`, same totals and
        /// per-node counters — and (d) the shard merge never holds an
        /// accumulator list longer than the threshold.
        #[test]
        fn spill_rule_is_order_free(
            stream in prop::collection::vec(
                ((0usize..NODES, 0usize..NODES), (1u32..400, prop::bool::ANY)),
                0..60,
            ),
            threshold_class in 0usize..4,
            shuffle_seed in 0u64..1_000_000,
            compact_at in prop::collection::vec(0usize..60, 0..6),
            parts in 1usize..5,
            owner_seed in 0u64..1_000_000,
        ) {
            let stream: Vec<(usize, usize, u32, bool)> = stream
                .into_iter()
                .map(|((from, to), (bytes, payload))| (from, to, bytes, payload))
                .collect();
            let mut distinct: Vec<(usize, usize)> =
                stream.iter().map(|&(f, t, ..)| (f, t)).collect();
            distinct.sort_unstable();
            distinct.dedup();
            let threshold = match threshold_class {
                0 => 0,
                1 => 1,
                2 => distinct.len() / 2,
                _ => distinct.len() + 1,
            };
            let reference = sealed_table(&stream, threshold, &[]);
            let expect = view(&reference);
            // The rule itself: the tracked set is the `threshold`
            // smallest pairs.
            let tracked: Vec<(usize, usize)> = expect
                .0
                .iter()
                .map(|&((f, t), _)| (f.index(), t.index()))
                .collect();
            prop_assert_eq!(&tracked[..], &distinct[..threshold.min(distinct.len())]);

            // (a) a permutation of the stream (Fisher–Yates off a seed).
            let mut permuted = stream.clone();
            let mut rng = egm_rng::Rng::seed_from_u64(shuffle_seed);
            for i in (1..permuted.len()).rev() {
                permuted.swap(i, rng.range_usize(0, i + 1));
            }
            prop_assert_eq!(&view(&sealed_table(&permuted, threshold, &[])), &expect);

            // (b) forced compaction points; the unsealed snapshot agrees
            // too.
            let compacted = recording_table(&stream, threshold, &compact_at);
            prop_assert_eq!(&view(&compacted), &expect);
            prop_assert_eq!(&view(&sealed_table(&stream, threshold, &compact_at)), &expect);

            // (c) + (d) senders dealt to `parts` shards, each recording
            // its share with the same threshold and compaction points,
            // then merged.
            let mut rng = egm_rng::Rng::seed_from_u64(owner_seed);
            let owner: Vec<usize> = (0..NODES).map(|_| rng.range_usize(0, parts)).collect();
            let shards: Vec<Traffic> = (0..parts)
                .map(|p| {
                    let share: Vec<_> =
                        stream.iter().copied().filter(|r| owner[r.0] == p).collect();
                    recording_table(&share, threshold, &compact_at)
                })
                .collect();
            let merged = Traffic::merge_shards(shards);
            prop_assert_eq!(&view(&merged), &expect);
            prop_assert!(
                merged.shard_merge_acc_peak() <= threshold,
                "merge held {} links over a threshold of {}",
                merged.shard_merge_acc_peak(),
                threshold
            );
        }
    }
}
