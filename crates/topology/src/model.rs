//! The routed network model: the latency/hop/coordinate oracle exposed to
//! the simulator and to the paper's performance monitors.

use crate::geometry::Point;
use crate::stats::ModelStats;
use egm_rng::Rng;

/// Hard cap on the number of client pairs [`RoutedModel::stats`] measures
/// exactly; larger models are summarized over a deterministic strided
/// subsample so statistics stay O(1 M) in memory even at 10k clients.
const MAX_STATS_PAIRS: usize = 1 << 20;

/// Client-to-client routed network model.
///
/// This is the "model file" of the paper's ModelNet setup (§4.3): the
/// one-way latency and hop-count oracle between the *client* nodes that
/// run the protocol, plus each client's pseudo-geographic coordinate.
/// The simulator uses the latency oracle to delay packets; oracle monitors
/// read latency or coordinates directly, exactly as the paper extracts
/// them "directly from the model file".
///
/// Two storage layouts back the same interface:
///
/// * **Dense** — an explicit `n × n` matrix, used by the synthetic
///   constructors and [`RoutedModel::from_matrices`]. Fine for test-sized
///   models, O(n²) memory.
/// * **Two-level routed** — produced by
///   [`TransitStubConfig::build`](crate::TransitStubConfig): shortest
///   paths are stored at *router* granularity only (a transit-core matrix
///   plus per-stub-domain tables), and each client carries an attachment
///   record. A client-pair latency is composed on demand as
///   `access + router distance + access`, so memory is O(n + routers²-at-
///   core-granularity) and 1k–10k-node models stay in the low megabytes.
///   Every lookup is O(1) (three table reads), so no caching layer is
///   needed in front of [`RoutedModel::latency_ms`].
///
/// [`RoutedModel::memory_shape`] exposes which layout is in use and how
/// many cells each table holds, so scale tests can assert that no `n × n`
/// client matrix was ever allocated.
///
/// # Examples
///
/// ```
/// use egm_topology::RoutedModel;
///
/// let model = RoutedModel::uniform_synthetic(8, 39.0, 60.0, 1);
/// assert_eq!(model.client_count(), 8);
/// let l = model.latency_ms(0, 5);
/// assert!((39.0..60.0).contains(&l));
/// assert_eq!(l, model.latency_ms(5, 0));
/// ```
#[derive(Debug, Clone)]
pub struct RoutedModel {
    n: usize,
    /// Pseudo-geographic coordinate per client.
    coords: Vec<Point>,
    /// Number of routers in the underlying graph (0 for synthetic models).
    router_count: usize,
    repr: ModelRepr,
}

/// Storage layout behind the latency/hop oracle.
#[derive(Debug, Clone)]
enum ModelRepr {
    /// Flattened `n × n` client matrices.
    Dense {
        latency_ms: Vec<f64>,
        hops: Vec<u32>,
    },
    /// Router-granularity tables + client attachment records.
    Routed(TwoLevelModel),
}

/// The sparse routed layout: a dense matrix over the (small) transit core,
/// per-stub-domain shortest-path tables, and one attachment record per
/// client. Exact for transit–stub graphs because every inter-domain path
/// must traverse the attached transit routers (stub domains connect to the
/// core through exactly one transit router).
#[derive(Debug, Clone)]
pub(crate) struct TwoLevelModel {
    /// Client access-link latency (ms), applied twice per client pair.
    pub(crate) access_ms: f64,
    /// Number of transit (core) routers.
    pub(crate) core_n: usize,
    /// Flattened `core_n × core_n` symmetric latency matrix (ms).
    pub(crate) core_latency_ms: Vec<f64>,
    /// Flattened `core_n × core_n` symmetric hop matrix.
    pub(crate) core_hops: Vec<u32>,
    /// One table per stub domain (consulted only for same-domain pairs).
    pub(crate) domains: Vec<DomainTable>,
    /// Per-client routing column. One 32-byte record per client keeps the
    /// hot cross-domain lookup at three memory touches — `cols[a]`,
    /// `cols[b]`, one core-matrix cell — which is what puts
    /// [`RoutedModel::latency_ms`] within noise of the dense matrix read
    /// it replaced on the simulator's per-transmit path.
    pub(crate) cols: Vec<ClientCol>,
}

/// Per-client routing column of the two-level layout.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClientCol {
    /// Stub domain index.
    pub(crate) domain: u32,
    /// Member index of the client's stub router within its domain.
    pub(crate) member: u32,
    /// Core index of the client's transit router.
    pub(crate) core: u32,
    /// Router hops from the client's stub router up to its transit router.
    pub(crate) up_hops: u32,
    /// Latency from the client's stub router up to its transit router.
    pub(crate) up_ms: f64,
}

/// Shortest paths within one stub domain (its members plus its transit
/// router, which sits at matrix index `members`).
#[derive(Debug, Clone)]
pub(crate) struct DomainTable {
    /// Core index of the transit router this domain hangs off.
    pub(crate) core_index: u32,
    /// Number of stub routers in the domain; matrices are
    /// `(members + 1) × (members + 1)` with the transit router last.
    pub(crate) members: u32,
    /// Flattened symmetric intra-domain latency matrix (ms).
    pub(crate) latency_ms: Vec<f64>,
    /// Flattened symmetric intra-domain hop matrix.
    pub(crate) hops: Vec<u32>,
}

/// Where one client attaches to the router level.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClientAttachment {
    /// Index into [`TwoLevelModel::domains`].
    pub(crate) domain: u32,
    /// Member index of the client's stub router within its domain.
    pub(crate) member: u32,
}

/// Storage-shape summary of a [`RoutedModel`], for memory assertions.
///
/// # Examples
///
/// ```
/// use egm_topology::TransitStubConfig;
///
/// let model = TransitStubConfig::small().with_clients(16).build();
/// let shape = model.memory_shape();
/// assert_eq!(shape.dense_cells, 0, "routed models hold no n×n matrix");
/// assert_eq!(shape.client_entries, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryShape {
    /// Cells in client-granularity `n × n` matrices (0 for the routed
    /// layout).
    pub dense_cells: usize,
    /// Cells in the transit-core router matrix.
    pub core_cells: usize,
    /// Total cells across all per-stub-domain tables.
    pub domain_cells: usize,
    /// Entries in the client attachment table (== client count for the
    /// routed layout, 0 for dense).
    pub client_entries: usize,
}

impl TwoLevelModel {
    /// Builds the flattened per-client columns from attachment records.
    fn new(
        access_ms: f64,
        core_n: usize,
        core_latency_ms: Vec<f64>,
        core_hops: Vec<u32>,
        domains: Vec<DomainTable>,
        attachments: &[ClientAttachment],
    ) -> Self {
        let mut cols = Vec::with_capacity(attachments.len());
        for c in attachments {
            let d = &domains[c.domain as usize];
            assert!(c.member < d.members, "client attached outside its domain");
            let w = d.members as usize + 1;
            // member → own transit router (transit sits at index k).
            let up = c.member as usize * w + d.members as usize;
            cols.push(ClientCol {
                domain: c.domain,
                member: c.member,
                core: d.core_index,
                up_hops: d.hops[up],
                up_ms: d.latency_ms[up],
            });
        }
        TwoLevelModel {
            access_ms,
            core_n,
            core_latency_ms,
            core_hops,
            domains,
            cols,
        }
    }

    /// Router-level latency/hops between two distinct clients. The pair is
    /// canonicalized (`a < b`) so the float summation order — and thus the
    /// exact result — is identical in both directions.
    #[inline]
    fn parts(&self, a: usize, b: usize) -> PairParts {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let ca = self.cols[a];
        let cb = self.cols[b];
        if ca.domain != cb.domain {
            let core = ca.core as usize * self.core_n + cb.core as usize;
            PairParts {
                latency_ms: ca.up_ms + self.core_latency_ms[core] + cb.up_ms,
                hops: ca.up_hops + self.core_hops[core] + cb.up_hops,
            }
        } else {
            let d = &self.domains[ca.domain as usize];
            let w = d.members as usize + 1;
            let idx = ca.member as usize * w + cb.member as usize;
            PairParts {
                latency_ms: d.latency_ms[idx],
                hops: d.hops[idx],
            }
        }
    }
}

/// Latency/hops of the router-level segment of one client pair.
struct PairParts {
    latency_ms: f64,
    hops: u32,
}

/// The two smallest values offered under *distinct* keys: `best` is the
/// global minimum, `second` the minimum among offers whose key differs
/// from `best`'s. Used to find the cheapest cross-domain client pair
/// within one (transit router, shard) group without enumerating clients.
#[derive(Debug, Clone, Copy)]
struct TwoMinByKey {
    best: f64,
    best_key: u32,
    second: f64,
}

impl TwoMinByKey {
    fn new() -> Self {
        TwoMinByKey {
            best: f64::INFINITY,
            best_key: u32::MAX,
            second: f64::INFINITY,
        }
    }

    fn offer(&mut self, value: f64, key: u32) {
        if key == self.best_key {
            if value < self.best {
                self.best = value;
            }
        } else if value < self.best {
            // The displaced best is the minimum among keys != `key`
            // (it was the global minimum and its key differs).
            self.second = self.best;
            self.best = value;
            self.best_key = key;
        } else if value < self.second {
            self.second = value;
        }
    }
}

/// Folds a candidate into an optional running minimum.
fn min_opt(best: Option<f64>, candidate: f64) -> Option<f64> {
    match best {
        Some(b) if b <= candidate => Some(b),
        _ => Some(candidate),
    }
}

/// A topology-aware node→shard assignment produced by
/// [`RoutedModel::partition_plan`].
///
/// The plan's invariant is **domain alignment**: no stub domain is ever
/// split across shards, so the minimum cross-shard latency — the sharded
/// simulator's conservative lookahead — is an *inter-domain* path (two
/// access links plus up-links and a core traversal), never the ~2–3 ms
/// stub-access floor that arbitrary cuts collapse to. On top of the
/// invariant the planner keeps whole transit-router subtrees that sit
/// closer than a core-latency *floor* on one shard, so the realized
/// lookahead is at least that floor ([`PartitionPlan::floor_ms`]), and
/// picks the floor that lets the shards balance.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// Shard per client.
    assign: Vec<u32>,
    /// Number of shards (every one of them non-empty).
    shards: usize,
    /// Predicted load per shard in the planner's balance unit (client
    /// count under [`PlanBalance::Nodes`], estimated events per unit time
    /// under [`PlanBalance::Rate`]).
    shard_weights: Vec<f64>,
    /// Core-latency floor the packing was taken at.
    floor_ms: f64,
    /// Coarsest floor that still left one component per shard.
    coarsest_floor_ms: f64,
}

impl PartitionPlan {
    /// Shard per client, indexed by client id.
    pub fn assignment(&self) -> &[u32] {
        &self.assign
    }

    /// Number of shards; every shard owns at least one client.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Predicted per-shard load in the planner's balance unit.
    pub fn shard_weights(&self) -> &[f64] {
        &self.shard_weights
    }

    /// The core-latency floor (ms) the plan guarantees between shards:
    /// any two transit routers closer than this share a shard, so no
    /// cross-shard path has a shorter core segment. 0 for a one-shard
    /// plan and when the planner had to cut between stub domains of one
    /// transit router.
    pub fn floor_ms(&self) -> f64 {
        self.floor_ms
    }

    /// The coarsest floor (ms) that still left at least one component
    /// per shard — the upper end of the planner's search.
    /// [`PartitionPlan::floor_ms`] is at least half of it; the gap is the
    /// lookahead traded for balance.
    pub fn coarsest_floor_ms(&self) -> f64 {
        self.coarsest_floor_ms
    }
}

/// What [`RoutedModel::partition_plan`] balances shards by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanBalance {
    /// Balance by client count.
    Nodes,
    /// Balance by client count, with [`PartitionPlan::shard_weights`]
    /// expressed as `clients × fanout × view_degree / n`: a constant
    /// per client, so the assignment equals [`PlanBalance::Nodes`]'s
    /// (property-tested). Kept because the repository's benchmark
    /// constructs it.
    Rate {
        /// Gossip fanout (eager/lazy targets per relay).
        fanout: usize,
        /// Partial-view degree (shuffle and retry traffic scale with it).
        view_degree: usize,
    },
}

/// A packing of [`RoutedModel::partition_plan`] counts as balanced when
/// its heaviest shard is within this factor of the ideal `total / shards`.
/// Measured on the scale presets (model seed 42, W = 2): the floor taken
/// packs 500 / 500 at 1k, 5 016 / 4 984 at 10k and
/// 50 002 / 49 998 at 100k (heaviest / ideal ≤ 1.004) where the coarsest
/// floor gives 612 / 388, 5 994 / 4 006 and 59 996 / 40 004 (1.20–1.22);
/// ten ~equal transit domains cannot pack four or eight shards below
/// 1.20, so those widths keep their coarsest floor. 5 % admits the first
/// group with room for uneven client placement and rejects the second.
const PLAN_BALANCE_TOLERANCE: f64 = 1.05;

/// How far below the coarsest feasible floor the planner may look for a
/// balanced packing, as a fraction of that floor. A window costs three
/// barrier phases however little it holds, so lookahead is only traded
/// for balance within a factor of two: at W = 2 the balanced cut sits at
/// 0.88–0.90 of the coarsest floor on the scale presets (28.8 / 32.8,
/// 27.7 / 31.3, 27.3 / 30.7 ms lookahead — 589 windows instead of 522 at
/// 10k), far inside the bound; the bound exists so that a topology whose
/// only balanced cut runs between neighbouring routers keeps its coarse
/// windows instead.
const PLAN_FLOOR_FRACTION: f64 = 0.5;

/// One candidate of the floor-then-pack search: the shard of every
/// clustering unit and the load that puts on each shard.
#[derive(Debug, Clone, PartialEq)]
struct Packing {
    shard_of_unit: Vec<u32>,
    loads: Vec<u64>,
}

impl Packing {
    fn heaviest(&self) -> f64 {
        *self.loads.iter().max().expect("at least one shard") as f64
    }
}

/// The outcome of [`floor_then_pack`].
#[derive(Debug, Clone, PartialEq)]
struct PackedUnits {
    packing: Packing,
    /// The floor the packing was taken at.
    floor: f64,
    /// The coarsest floor that still left `shards` components.
    coarsest_floor: f64,
}

/// Disjoint sets over the clustering units, with path halving.
struct UnitSets(Vec<u32>);

impl UnitSets {
    fn find(&mut self, mut i: u32) -> u32 {
        while self.0[i as usize] != i {
            let up = self.0[i as usize];
            self.0[i as usize] = self.0[up as usize];
            i = self.0[i as usize];
        }
        i
    }

    /// Joins the sets of `a` and `b`; `false` when they already were one.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra.max(rb) as usize] = ra.min(rb);
        }
        ra != rb
    }

    /// Packs the current components onto `shards` shards: heaviest first
    /// (ties by lowest member index) onto the lightest shard (ties by
    /// lowest shard index). Roots are each set's smallest member (see
    /// [`UnitSets::union`]), so nothing here depends on the order equal
    /// distances were joined in.
    fn pack(&mut self, weight: &[u64], shards: usize) -> Packing {
        let units = weight.len();
        let mut component_weight = vec![0u64; units];
        for (i, &w) in weight.iter().enumerate() {
            component_weight[self.find(i as u32) as usize] += w;
        }
        let mut components: Vec<usize> = (0..units)
            .filter(|&i| self.find(i as u32) as usize == i)
            .collect();
        components.sort_by_key(|&c| (std::cmp::Reverse(component_weight[c]), c));
        let mut loads = vec![0u64; shards];
        let mut shard_of_component = vec![u32::MAX; units];
        for c in components {
            let lightest = (0..shards)
                .min_by_key(|&s| loads[s])
                .expect("at least one shard");
            shard_of_component[c] = lightest as u32;
            loads[lightest] += component_weight[c];
        }
        let shard_of_unit = (0..units)
            .map(|i| shard_of_component[self.find(i as u32) as usize])
            .collect();
        Packing {
            shard_of_unit,
            loads,
        }
    }
}

/// Floor-then-pack: chooses a latency floor `L` among the distinct unit
/// distances, keeps units closer than `L` together (the connected
/// components of `{d < L}`), and packs the components onto `shards`
/// shards for balance ([`UnitSets::pack`]). Any two units on different
/// shards are then at least `L` apart — the quantity the conservative
/// lookahead is derived from.
///
/// Candidate floors run from the coarsest that still leaves `shards`
/// components down to [`PLAN_FLOOR_FRACTION`] of it. The floor taken is
/// the largest whose packing is balanced ([`PLAN_BALANCE_TOLERANCE`]).
/// When none is, the coarsest floor stands unless a finer candidate pays
/// for itself: going down the candidates, one replaces the choice only
/// if the heaviest shard's excess over the ideal load shrinks by a larger
/// factor than the floor does. Ten equal domains on eight shards thus
/// keep their coarse floor (no finer cut removes much of the excess),
/// while three shards are not left 60 / 30 / 10 when the next floor down
/// packs 40 / 30 / 30.
///
/// One ascending pass over the sorted distances with an incremental
/// union-find: raising the floor only ever joins components, and the
/// packing is redone only when it did.
///
/// `dist` is a flattened symmetric `units × units` matrix; there must be
/// at least `shards ≥ 2` units, each of positive weight, so every level
/// up to the coarsest fills every shard.
fn floor_then_pack(dist: &[f64], weight: &[u64], shards: usize) -> PackedUnits {
    let units = weight.len();
    debug_assert!(shards >= 2 && units >= shards && dist.len() == units * units);
    let mut pairs: Vec<(f64, u32, u32)> = Vec::with_capacity(units * (units - 1) / 2);
    for i in 0..units {
        for j in (i + 1)..units {
            pairs.push((dist[i * units + j], i as u32, j as u32));
        }
    }
    pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    // One candidate per distinct component structure, finest first: the
    // largest floor it holds at, and its packing.
    let mut candidates: Vec<(f64, Packing)> = Vec::new();
    let mut sets = UnitSets((0..units as u32).collect());
    let mut components = units;
    let mut joined = true;
    let mut next = 0;
    while next < pairs.len() && components >= shards {
        // Every pair below `floor` is joined: the components of {d < floor}.
        let floor = pairs[next].0;
        if joined {
            candidates.push((floor, sets.pack(weight, shards)));
            joined = false;
        }
        candidates.last_mut().expect("pushed above").0 = floor;
        while next < pairs.len() && pairs[next].0 == floor {
            if sets.union(pairs[next].1, pairs[next].2) {
                components -= 1;
                joined = true;
            }
            next += 1;
        }
    }
    // The finest floor leaves every unit apart, so there is a candidate.
    let coarsest = candidates.len() - 1;
    let coarsest_floor = candidates[coarsest].0;
    let ideal = weight.iter().sum::<u64>() as f64 / shards as f64;
    let in_range = (0..=coarsest)
        .rev()
        .take_while(|&c| candidates[c].0 >= PLAN_FLOOR_FRACTION * coarsest_floor);
    let balanced = in_range
        .clone()
        .find(|&c| candidates[c].1.heaviest() <= PLAN_BALANCE_TOLERANCE * ideal);
    let chosen = balanced.unwrap_or_else(|| {
        let excess = |c: usize| candidates[c].1.heaviest() - ideal;
        in_range.fold(coarsest, |choice, c| {
            if excess(c) * candidates[choice].0 < excess(choice) * candidates[c].0 {
                c
            } else {
                choice
            }
        })
    });
    let (floor, packing) = candidates.swap_remove(chosen);
    PackedUnits {
        packing,
        floor,
        coarsest_floor,
    }
}

impl TwoLevelModel {
    /// See [`RoutedModel::min_cross_partition_latency_ms`]. Exact without
    /// enumerating client pairs: same-domain candidates come from the
    /// (member, shard) combinations present in each stub domain's table,
    /// cross-domain candidates from per-(transit router, shard) minima of
    /// the client up-link latencies (tracking the two smallest from
    /// distinct domains, since a same-domain pair must use the domain
    /// table instead of the core path).
    fn min_cross_partition_latency_ms(&self, assignment: &[u32]) -> Option<f64> {
        let mut best: Option<f64> = None;
        // (member, shard) combinations per domain; (transit, shard)
        // up-latency minima across domains. `aligned` tracks whether the
        // cut respects stub-domain boundaries — the invariant every
        // [`PartitionPlan`] guarantees — in which case no same-domain
        // cross-shard pair exists and the quadratic per-domain scan below
        // is skipped outright: the lookahead is the inter-domain floor.
        let mut aligned = true;
        let mut domain_groups: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.domains.len()];
        let mut core_groups: std::collections::BTreeMap<(u32, u32), TwoMinByKey> =
            std::collections::BTreeMap::new();
        for (i, col) in self.cols.iter().enumerate() {
            let shard = assignment[i];
            let dg = &mut domain_groups[col.domain as usize];
            if !dg.is_empty() && dg[0].1 != shard {
                aligned = false;
            }
            if !dg.contains(&(col.member, shard)) {
                dg.push((col.member, shard));
            }
            core_groups
                .entry((col.core, shard))
                .or_insert_with(TwoMinByKey::new)
                .offer(col.up_ms, col.domain);
        }
        // Same-domain, cross-shard pairs (including two clients on the
        // same stub router split across shards: table diagonal is zero,
        // leaving just the two access links). Domain-aligned cuts have
        // none, by construction.
        if !aligned {
            for (d_idx, groups) in domain_groups.iter().enumerate() {
                let d = &self.domains[d_idx];
                let w = d.members as usize + 1;
                for (i, &(m1, s1)) in groups.iter().enumerate() {
                    for &(m2, s2) in &groups[i..] {
                        if s1 == s2 {
                            continue;
                        }
                        let v = 2.0 * self.access_ms + d.latency_ms[m1 as usize * w + m2 as usize];
                        best = min_opt(best, v);
                    }
                }
            }
        }
        // Cross-domain, cross-shard pairs.
        let groups: Vec<((u32, u32), TwoMinByKey)> = core_groups.into_iter().collect();
        for (i, &((r1, s1), t1)) in groups.iter().enumerate() {
            for &((r2, s2), t2) in &groups[i..] {
                if s1 == s2 {
                    continue;
                }
                let core = self.core_latency_ms[r1 as usize * self.core_n + r2 as usize];
                let mut pairs: [Option<(f64, f64)>; 2] = [None, None];
                if t1.best_key != t2.best_key {
                    pairs[0] = Some((t1.best, t2.best));
                } else {
                    pairs[0] = Some((t1.best, t2.second));
                    pairs[1] = Some((t1.second, t2.best));
                }
                for (u1, u2) in pairs.into_iter().flatten() {
                    if !u1.is_finite() || !u2.is_finite() {
                        continue;
                    }
                    // `parts()` sums in ascending-client-index order,
                    // which group minima cannot recover; evaluating both
                    // orders and keeping the smaller can undershoot the
                    // true pair latency by at most float-rounding, never
                    // overshoot — the safe direction for a lookahead.
                    let a = 2.0 * self.access_ms + (u1 + core + u2);
                    let b = 2.0 * self.access_ms + (u2 + core + u1);
                    best = min_opt(best, a.min(b));
                }
            }
        }
        best
    }
}

impl RoutedModel {
    /// Builds a model from dense matrices.
    ///
    /// # Panics
    ///
    /// Panics if the matrix sizes do not match `n × n`, if any latency is
    /// negative or non-finite, if the diagonal is non-zero, or if the
    /// matrices are asymmetric.
    pub fn from_matrices(
        latency_ms: Vec<f64>,
        hops: Vec<u32>,
        coords: Vec<Point>,
        router_count: usize,
    ) -> Self {
        let n = coords.len();
        assert_eq!(latency_ms.len(), n * n, "latency matrix must be n×n");
        assert_eq!(hops.len(), n * n, "hop matrix must be n×n");
        for a in 0..n {
            assert_eq!(latency_ms[a * n + a], 0.0, "diagonal must be zero");
            for b in 0..n {
                let l = latency_ms[a * n + b];
                assert!(l.is_finite() && l >= 0.0, "bad latency {l} at ({a},{b})");
                assert_eq!(l, latency_ms[b * n + a], "asymmetric latency at ({a},{b})");
                assert_eq!(
                    hops[a * n + b],
                    hops[b * n + a],
                    "asymmetric hops at ({a},{b})"
                );
            }
        }
        RoutedModel {
            n,
            coords,
            router_count,
            repr: ModelRepr::Dense { latency_ms, hops },
        }
    }

    /// Builds the two-level routed layout; used by the transit–stub
    /// generator. Validation is structural (table sizes), not O(n²).
    ///
    /// # Panics
    ///
    /// Panics if table dimensions are inconsistent with the attachment
    /// records.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_two_level(
        access_ms: f64,
        core_n: usize,
        core_latency_ms: Vec<f64>,
        core_hops: Vec<u32>,
        domains: Vec<DomainTable>,
        attachments: &[ClientAttachment],
        coords: Vec<Point>,
        router_count: usize,
    ) -> Self {
        let n = coords.len();
        assert_eq!(attachments.len(), n, "one attachment per client");
        assert_eq!(
            core_latency_ms.len(),
            core_n * core_n,
            "core matrix must be square"
        );
        assert_eq!(core_hops.len(), core_latency_ms.len());
        for d in &domains {
            let w = d.members as usize + 1;
            assert_eq!(d.latency_ms.len(), w * w, "domain table must be square");
            assert_eq!(d.hops.len(), w * w);
            assert!(
                (d.core_index as usize) < core_n,
                "domain transit router out of core range"
            );
        }
        let two_level = TwoLevelModel::new(
            access_ms,
            core_n,
            core_latency_ms,
            core_hops,
            domains,
            attachments,
        );
        RoutedModel {
            n,
            coords,
            router_count,
            repr: ModelRepr::Routed(two_level),
        }
    }

    /// Synthetic model with i.i.d. uniform pairwise latencies in
    /// `[lo_ms, hi_ms)` and no geographic structure.
    ///
    /// Hop counts are fixed at 1 and coordinates are placed on a circle so
    /// distance-based monitors remain usable in tests.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the latency range is empty or negative.
    pub fn uniform_synthetic(n: usize, lo_ms: f64, hi_ms: f64, seed: u64) -> Self {
        assert!(n > 0, "need at least one client");
        assert!(0.0 <= lo_ms && lo_ms < hi_ms, "bad latency range");
        let mut rng = Rng::seed_from_u64(seed);
        let mut latency_ms = vec![0.0; n * n];
        let mut hops = vec![0u32; n * n];
        for a in 0..n {
            for b in (a + 1)..n {
                let l = rng.range_f64(lo_ms, hi_ms);
                latency_ms[a * n + b] = l;
                latency_ms[b * n + a] = l;
                hops[a * n + b] = 1;
                hops[b * n + a] = 1;
            }
        }
        let coords = (0..n)
            .map(|i| {
                let theta = i as f64 / n as f64 * std::f64::consts::TAU;
                Point::new(500.0 + 400.0 * theta.cos(), 500.0 + 400.0 * theta.sin())
            })
            .collect();
        RoutedModel {
            n,
            coords,
            router_count: 0,
            repr: ModelRepr::Dense { latency_ms, hops },
        }
    }

    /// Synthetic model where latency is proportional to distance between
    /// points uniformly placed on the plane (`ms_per_unit` scaling).
    ///
    /// Useful for testing distance-driven strategies (Radius) with an exact
    /// latency/distance correspondence.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `ms_per_unit <= 0`.
    pub fn planar_synthetic(n: usize, plane: f64, ms_per_unit: f64, seed: u64) -> Self {
        assert!(n > 0, "need at least one client");
        assert!(ms_per_unit > 0.0, "ms_per_unit must be positive");
        let mut rng = Rng::seed_from_u64(seed);
        let coords: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.range_f64(0.0, plane), rng.range_f64(0.0, plane)))
            .collect();
        let mut latency_ms = vec![0.0; n * n];
        let mut hops = vec![0u32; n * n];
        for a in 0..n {
            for b in (a + 1)..n {
                let l = coords[a].distance(coords[b]) * ms_per_unit;
                latency_ms[a * n + b] = l;
                latency_ms[b * n + a] = l;
                hops[a * n + b] = 1;
                hops[b * n + a] = 1;
            }
        }
        RoutedModel {
            n,
            coords,
            router_count: 0,
            repr: ModelRepr::Dense { latency_ms, hops },
        }
    }

    /// Number of client nodes in the model.
    pub fn client_count(&self) -> usize {
        self.n
    }

    /// Number of routers in the generating graph (0 for synthetic models).
    pub fn router_count(&self) -> usize {
        self.router_count
    }

    /// One-way latency between two clients in milliseconds.
    ///
    /// O(1) for both layouts: a matrix read for dense models, three table
    /// reads composed as `access + router distance + access` for routed
    /// ones.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn latency_ms(&self, a: usize, b: usize) -> f64 {
        assert!(a < self.n && b < self.n, "client index out of range");
        match &self.repr {
            ModelRepr::Dense { latency_ms, .. } => latency_ms[a * self.n + b],
            ModelRepr::Routed(tl) => {
                if a == b {
                    0.0
                } else {
                    2.0 * tl.access_ms + tl.parts(a, b).latency_ms
                }
            }
        }
    }

    /// Router-level hop count between two clients.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        assert!(a < self.n && b < self.n, "client index out of range");
        match &self.repr {
            ModelRepr::Dense { hops, .. } => hops[a * self.n + b],
            ModelRepr::Routed(tl) => {
                if a == b {
                    0
                } else {
                    tl.parts(a, b).hops
                }
            }
        }
    }

    /// Pseudo-geographic coordinate of a client.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn coord(&self, a: usize) -> Point {
        self.coords[a]
    }

    /// Euclidean pseudo-geographic distance between two clients.
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        self.coords[a].distance(self.coords[b])
    }

    /// Storage-shape summary: which layout backs the oracle and how big
    /// each table is. Scale tests assert `dense_cells == 0` for generated
    /// models so no refactor can silently reintroduce an `n × n` client
    /// matrix.
    pub fn memory_shape(&self) -> MemoryShape {
        match &self.repr {
            ModelRepr::Dense { latency_ms, hops } => MemoryShape {
                dense_cells: latency_ms.len() + hops.len(),
                core_cells: 0,
                domain_cells: 0,
                client_entries: 0,
            },
            ModelRepr::Routed(tl) => MemoryShape {
                dense_cells: 0,
                core_cells: tl.core_latency_ms.len() + tl.core_hops.len(),
                domain_cells: tl
                    .domains
                    .iter()
                    .map(|d| d.latency_ms.len() + d.hops.len())
                    .sum(),
                client_entries: tl.cols.len(),
            },
        }
    }

    /// Minimum one-way latency over all client pairs assigned to
    /// *different* shards, or `None` when every client shares one shard.
    ///
    /// `assignment[c]` is client `c`'s shard. This is the lookahead bound
    /// of the sharded simulator's conservative windows: no message between
    /// shards can arrive sooner than this. Dense layouts scan their
    /// matrix; the two-level routed layout computes the exact minimum
    /// from domain tables and per-(transit, shard) up-link minima without
    /// touching client pairs, so a 10k-node derivation stays sub-
    /// millisecond. The result can differ from the pairwise scan by
    /// float-summation order only, and then only *downward* — never above
    /// the true minimum (the safe direction for a lookahead).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not cover every client.
    pub fn min_cross_partition_latency_ms(&self, assignment: &[u32]) -> Option<f64> {
        assert_eq!(assignment.len(), self.n, "one shard per client");
        match &self.repr {
            ModelRepr::Dense { latency_ms, .. } => {
                let mut best: Option<f64> = None;
                for a in 0..self.n {
                    for b in (a + 1)..self.n {
                        if assignment[a] != assignment[b] {
                            best = min_opt(best, latency_ms[a * self.n + b]);
                        }
                    }
                }
                best
            }
            ModelRepr::Routed(tl) => tl.min_cross_partition_latency_ms(assignment),
        }
    }

    /// Stub-domain index of a client, or `None` for dense layouts (which
    /// carry no domain structure).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn client_domain(&self, client: usize) -> Option<u32> {
        assert!(client < self.n, "client index out of range");
        match &self.repr {
            ModelRepr::Dense { .. } => None,
            ModelRepr::Routed(tl) => Some(tl.cols[client].domain),
        }
    }

    /// Clients that live in stub domain `domain`, in ascending id order,
    /// or `None` for dense layouts. The fault-scenario library uses this
    /// to build correlated whole-domain outages.
    pub fn domain_clients(&self, domain: u32) -> Option<Vec<usize>> {
        let tl = match &self.repr {
            ModelRepr::Dense { .. } => return None,
            ModelRepr::Routed(tl) => tl,
        };
        Some(
            tl.cols
                .iter()
                .enumerate()
                .filter_map(|(i, col)| (col.domain == domain).then_some(i))
                .collect(),
        )
    }

    /// Stub-domain ids that hold at least one client, ascending, or
    /// `None` for dense layouts. Domain ids index into the layout's
    /// domain table; unpopulated domains are skipped.
    pub fn populated_domains(&self) -> Option<Vec<u32>> {
        let tl = match &self.repr {
            ModelRepr::Dense { .. } => return None,
            ModelRepr::Routed(tl) => tl,
        };
        let mut populated = vec![false; tl.domains.len()];
        for col in &tl.cols {
            populated[col.domain as usize] = true;
        }
        Some(
            populated
                .iter()
                .enumerate()
                .filter_map(|(d, &p)| p.then_some(d as u32))
                .collect(),
        )
    }

    /// Plans a domain-aligned cut of the client set into `shards` shards,
    /// or `None` when the layout exposes no domain structure (dense
    /// models) or has too few populated domains to fill every shard.
    ///
    /// The plan never splits a stub domain across shards, and it goes
    /// further than the minimal invariant — floor-then-pack over the
    /// populated transit routers: routers closer on the core than a
    /// latency floor stay on one shard, the resulting groups are packed
    /// heaviest-first onto the lightest shard, and the floor is the
    /// largest that balances the shards within 5 %, looking no lower than
    /// half the coarsest floor that still fills every shard (which is
    /// kept when nothing in that range balances). The minimum cross-shard
    /// latency — the conservative lookahead of the sharded simulator — is
    /// therefore at least [`PartitionPlan::floor_ms`] of core distance
    /// plus the access and up-links at both ends, instead of the cheapest
    /// same-router domain pair.
    ///
    /// `balance` names the unit of [`PartitionPlan::shard_weights`]:
    /// client count, or client count times a constant
    /// ([`PlanBalance::Rate`]). The search runs on client counts and both
    /// yield the same assignment.
    ///
    /// Deterministic: identical inputs produce identical plans.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn partition_plan(&self, shards: usize, balance: PlanBalance) -> Option<PartitionPlan> {
        assert!(shards > 0, "need at least one shard");
        let tl = match &self.repr {
            ModelRepr::Dense { .. } => return None,
            ModelRepr::Routed(tl) => tl,
        };
        let per_client = match balance {
            PlanBalance::Nodes => 1.0,
            PlanBalance::Rate {
                fanout,
                view_degree,
            } => fanout as f64 * view_degree as f64 / self.n as f64,
        };
        if shards == 1 {
            return Some(PartitionPlan {
                assign: vec![0; self.n],
                shards: 1,
                shard_weights: vec![per_client * self.n as f64],
                floor_ms: 0.0,
                coarsest_floor_ms: 0.0,
            });
        }
        // Clients per domain, and the units the planner groups: populated
        // core routers when there are enough of them to fill every shard,
        // else individual populated domains (tiny test models).
        let mut domain_clients = vec![0u64; tl.domains.len()];
        for col in &tl.cols {
            domain_clients[col.domain as usize] += 1;
        }
        let populated: Vec<usize> = (0..tl.domains.len())
            .filter(|&d| domain_clients[d] > 0)
            .collect();
        let mut core_populated: Vec<u32> = populated
            .iter()
            .map(|&d| tl.domains[d].core_index)
            .collect();
        core_populated.sort_unstable();
        core_populated.dedup();
        // One unit per entry: (core router, domains it carries).
        let units: Vec<(u32, Vec<usize>)> = if core_populated.len() >= shards {
            core_populated
                .iter()
                .map(|&c| {
                    let ds: Vec<usize> = populated
                        .iter()
                        .copied()
                        .filter(|&d| tl.domains[d].core_index == c)
                        .collect();
                    (c, ds)
                })
                .collect()
        } else if populated.len() >= shards {
            populated
                .iter()
                .map(|&d| (tl.domains[d].core_index, vec![d]))
                .collect()
        } else {
            return None;
        };
        let u = units.len();
        let weight: Vec<u64> = units
            .iter()
            .map(|(_, ds)| ds.iter().map(|&d| domain_clients[d]).sum())
            .collect();
        let mut dist = vec![0.0; u * u];
        for (i, (c1, _)) in units.iter().enumerate() {
            for (j, (c2, _)) in units.iter().enumerate() {
                dist[i * u + j] = tl.core_latency_ms[*c1 as usize * tl.core_n + *c2 as usize];
            }
        }
        let packed = floor_then_pack(&dist, &weight, shards);
        let mut shard_of_domain = vec![u32::MAX; tl.domains.len()];
        for ((_, ds), &s) in units.iter().zip(&packed.packing.shard_of_unit) {
            for &d in ds {
                shard_of_domain[d] = s;
            }
        }
        let assign: Vec<u32> = tl
            .cols
            .iter()
            .map(|col| shard_of_domain[col.domain as usize])
            .collect();
        debug_assert!(assign.iter().all(|&s| (s as usize) < shards));
        Some(PartitionPlan {
            assign,
            shards,
            shard_weights: packed
                .packing
                .loads
                .iter()
                .map(|&clients| per_client * clients as f64)
                .collect(),
            floor_ms: packed.floor,
            coarsest_floor_ms: packed.coarsest_floor,
        })
    }

    /// Aggregate statistics over distinct client pairs (§5.1 of the
    /// paper).
    ///
    /// Models with more than ~1 M pairs (n ≳ 1450) are summarized over a
    /// deterministic strided subsample of pairs so the computation stays
    /// bounded in memory at 10k clients; [`ModelStats::pair_count`] then
    /// reports the sampled count.
    pub fn stats(&self) -> ModelStats {
        let total_pairs = self.n * (self.n - 1) / 2;
        let stride = total_pairs.div_ceil(MAX_STATS_PAIRS).max(1);
        let mut lat = Vec::with_capacity(total_pairs.min(MAX_STATS_PAIRS));
        let mut hop = Vec::with_capacity(lat.capacity());
        let mut p = 0usize;
        for a in 0..self.n {
            for b in (a + 1)..self.n {
                if p % stride == 0 {
                    lat.push(self.latency_ms(a, b));
                    hop.push(self.hops(a, b));
                }
                p += 1;
            }
        }
        ModelStats::from_pairs(&lat, &hop, self.router_count)
    }
}

#[cfg(test)]
mod tests {
    use super::{
        floor_then_pack, PackedUnits, RoutedModel, UnitSets, PLAN_BALANCE_TOLERANCE,
        PLAN_FLOOR_FRACTION,
    };
    use crate::geometry::Point;
    use proptest::prelude::*;

    /// The search as its definition reads, re-clustering from scratch at
    /// every candidate floor — the oracle the one-pass implementation is
    /// checked against.
    fn floor_then_pack_reference(dist: &[f64], weight: &[u64], shards: usize) -> PackedUnits {
        let units = weight.len();
        let mut levels: Vec<f64> = (0..units)
            .flat_map(|i| ((i + 1)..units).map(move |j| dist[i * units + j]))
            .collect();
        levels.sort_unstable_by(f64::total_cmp);
        levels.dedup();
        let at = |floor: f64| {
            let mut sets = UnitSets((0..units as u32).collect());
            let mut components = units;
            for i in 0..units {
                for j in (i + 1)..units {
                    if dist[i * units + j] < floor && sets.union(i as u32, j as u32) {
                        components -= 1;
                    }
                }
            }
            let packing = sets.pack(weight, shards);
            (components, packing.heaviest(), packing)
        };
        let coarsest_floor = *levels
            .iter()
            .rev()
            .find(|&&l| at(l).0 >= shards)
            .expect("the finest floor leaves every unit apart");
        let ideal = weight.iter().sum::<u64>() as f64 / shards as f64;
        let in_range: Vec<f64> = levels
            .iter()
            .rev()
            .copied()
            .filter(|&l| l <= coarsest_floor && l >= PLAN_FLOOR_FRACTION * coarsest_floor)
            .collect();
        let floor = in_range
            .iter()
            .copied()
            .find(|&l| at(l).1 <= PLAN_BALANCE_TOLERANCE * ideal)
            .unwrap_or_else(|| {
                in_range.iter().fold(coarsest_floor, |choice, &l| {
                    if (at(l).1 - ideal) / (at(choice).1 - ideal) < l / choice {
                        l
                    } else {
                        choice
                    }
                })
            });
        PackedUnits {
            packing: at(floor).2,
            floor,
            coarsest_floor,
        }
    }

    /// A symmetric distance matrix from its upper triangle, row by row.
    fn symmetric(units: usize, upper: &[f64]) -> Vec<f64> {
        let mut dist = vec![0.0; units * units];
        let mut next = upper.iter();
        for i in 0..units {
            for j in (i + 1)..units {
                let d = *next.next().expect("one distance per pair");
                dist[i * units + j] = d;
                dist[j * units + i] = d;
            }
        }
        dist
    }

    #[test]
    fn balance_buys_a_lower_floor_only_within_half_the_coarsest() {
        // Units a, b (6 each) and c, d (4 each); a–b is the only pair
        // closer than 10. At floor 10 {a, b} must share a shard: 12 / 8
        // against an ideal of 10.
        let weight = [6, 6, 4, 4];
        let plan = |ab: f64| {
            floor_then_pack(
                &symmetric(4, &[ab, 10.0, 10.0, 10.0, 10.0, 10.0]),
                &weight,
                2,
            )
        };
        // a–b at 9: keeping them apart (floor 9) packs 10 / 10.
        let near = plan(9.0);
        assert_eq!((near.floor, near.coarsest_floor), (9.0, 10.0));
        assert_eq!(near.packing.loads, vec![10, 10]);
        assert_eq!(near.packing.shard_of_unit, vec![0, 1, 0, 1]);
        // a–b at 4: the balanced floor is below half the coarsest, so the
        // coarse cut stands.
        let far = plan(4.0);
        assert_eq!((far.floor, far.coarsest_floor), (10.0, 10.0));
        assert_eq!(far.packing.loads, vec![12, 8]);
        assert_eq!(far.packing.shard_of_unit, vec![0, 0, 1, 1]);
    }

    #[test]
    fn an_unbalanced_search_lowers_the_floor_only_where_it_pays() {
        // A lone far unit o (1) and p (6), q (2), r (1) with p–q at 12 and
        // q–r at 3. The coarsest floor (20) can only cut o off: 9 / 1, an
        // excess of 4 over the ideal 5. Nothing in range balances within
        // 5 %, but floor 12 packs 6 / 4: a quarter of the excess for
        // three fifths of the floor.
        let dist = symmetric(4, &[20.0, 20.0, 20.0, 12.0, 12.0, 3.0]);
        let plan = floor_then_pack(&dist, &[1, 6, 2, 1], 2);
        assert_eq!((plan.floor, plan.coarsest_floor), (12.0, 20.0));
        assert_eq!(plan.packing.loads, vec![6, 4]);
        assert_eq!(plan.packing.shard_of_unit, vec![1, 0, 1, 1]);
        // With p at 10 and q at 1 the finer cut is 10 / 3: 3.5 of an
        // excess of 5.5 would remain, more than three fifths of it.
        let plan = floor_then_pack(&dist, &[1, 10, 1, 1], 2);
        assert_eq!((plan.floor, plan.coarsest_floor), (20.0, 20.0));
        assert_eq!(plan.packing.loads, vec![12, 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass search equals the per-level re-clustering on
        /// random matrices with plenty of equal distances, keeps units
        /// closer than the floor together and fills every shard.
        #[test]
        fn one_pass_search_equals_the_per_level_reference(
            units in 2usize..11,
            upper in prop::collection::vec(0u32..7, 45..46),
            weight in prop::collection::vec(1u64..40, 10..11),
            shards in 2usize..6,
        ) {
            let upper: Vec<f64> = upper.iter().map(|&d| f64::from(d)).collect();
            let dist = symmetric(units, &upper[..units * (units - 1) / 2]);
            let weight = &weight[..units];
            let shards = shards.min(units);
            let plan = floor_then_pack(&dist, weight, shards);
            prop_assert_eq!(&plan, &floor_then_pack_reference(&dist, weight, shards));
            prop_assert!(plan.floor >= PLAN_FLOOR_FRACTION * plan.coarsest_floor);
            prop_assert!(plan.packing.loads.iter().all(|&l| l > 0), "no empty shard");
            for i in 0..units {
                for j in 0..units {
                    let apart = plan.packing.shard_of_unit[i] != plan.packing.shard_of_unit[j];
                    prop_assert!(
                        !apart || dist[i * units + j] >= plan.floor,
                        "units {} and {} are closer than the floor yet on different shards",
                        i, j
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_synthetic_bounds_and_symmetry() {
        let m = RoutedModel::uniform_synthetic(12, 10.0, 20.0, 3);
        for a in 0..12 {
            assert_eq!(m.latency_ms(a, a), 0.0);
            for b in 0..12 {
                if a != b {
                    let l = m.latency_ms(a, b);
                    assert!((10.0..20.0).contains(&l));
                    assert_eq!(l, m.latency_ms(b, a));
                    assert_eq!(m.hops(a, b), 1);
                }
            }
        }
    }

    #[test]
    fn planar_synthetic_latency_tracks_distance() {
        let m = RoutedModel::planar_synthetic(10, 100.0, 0.5, 4);
        for a in 0..10 {
            for b in 0..10 {
                if a != b {
                    let expect = m.distance(a, b) * 0.5;
                    assert!((m.latency_ms(a, b) - expect).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn seeded_models_are_reproducible() {
        let a = RoutedModel::uniform_synthetic(6, 1.0, 2.0, 9);
        let b = RoutedModel::uniform_synthetic(6, 1.0, 2.0, 9);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(a.latency_ms(i, j), b.latency_ms(i, j));
            }
        }
    }

    #[test]
    fn domain_selectors_partition_the_clients() {
        let m = crate::TransitStubConfig::small()
            .with_clients(24)
            .with_seed(5)
            .build();
        let domains = m.populated_domains().expect("routed layout");
        assert!(!domains.is_empty());
        let mut seen = Vec::new();
        for &d in &domains {
            let clients = m.domain_clients(d).expect("routed layout");
            assert!(!clients.is_empty(), "populated domain {d} has clients");
            for &c in &clients {
                assert_eq!(m.client_domain(c), Some(d));
            }
            seen.extend(clients);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..m.client_count()).collect::<Vec<_>>());
        // Dense layouts expose no domain structure.
        let dense = RoutedModel::uniform_synthetic(6, 1.0, 2.0, 9);
        assert!(dense.populated_domains().is_none());
        assert!(dense.domain_clients(0).is_none());
    }

    #[test]
    fn from_matrices_accepts_valid_input() {
        let coords = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let m = RoutedModel::from_matrices(vec![0.0, 5.0, 5.0, 0.0], vec![0, 2, 2, 0], coords, 7);
        assert_eq!(m.latency_ms(0, 1), 5.0);
        assert_eq!(m.hops(0, 1), 2);
        assert_eq!(m.router_count(), 7);
    }

    #[test]
    #[should_panic(expected = "asymmetric latency")]
    fn from_matrices_rejects_asymmetry() {
        let coords = vec![Point::default(), Point::default()];
        let _ = RoutedModel::from_matrices(vec![0.0, 5.0, 6.0, 0.0], vec![0, 1, 1, 0], coords, 0);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn from_matrices_rejects_nonzero_diagonal() {
        let coords = vec![Point::default()];
        let _ = RoutedModel::from_matrices(vec![1.0], vec![0], coords, 0);
    }

    #[test]
    fn stats_cover_all_pairs() {
        let m = RoutedModel::uniform_synthetic(20, 39.0, 60.0, 5);
        let s = m.stats();
        assert_eq!(s.pair_count, 20 * 19 / 2);
        assert!(s.mean_latency_ms > 39.0 && s.mean_latency_ms < 60.0);
        assert!((s.frac_latency_39_60 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dense_models_report_dense_shape() {
        let m = RoutedModel::uniform_synthetic(4, 1.0, 2.0, 2);
        let shape = m.memory_shape();
        assert_eq!(shape.dense_cells, 32, "two 4×4 matrices");
        assert_eq!(shape.core_cells, 0);
        assert_eq!(shape.client_entries, 0);
    }

    #[test]
    fn debug_is_nonempty() {
        let m = RoutedModel::uniform_synthetic(4, 1.0, 2.0, 2);
        assert!(format!("{m:?}").contains("RoutedModel"));
    }
}
