//! Transit–stub topology generator, the Inet-3.0 substitute.
//!
//! Inet-3.0 generates AS-level topologies with a transit–stub flavour; the
//! paper feeds its default 3037-node output to ModelNet, which assigns link
//! latencies from pseudo-geographic distance and attaches each client to a
//! distinct stub node at 1 ms. This module reproduces that pipeline:
//!
//! 1. Place transit domains on a plane; routers of a domain cluster around
//!    its center and form a full mesh (dense core).
//! 2. Connect domains by a random spanning tree plus extra random
//!    domain-to-domain links (route diversity).
//! 3. Hang stub domains off each transit router; stub routers cluster near
//!    their transit router and connect to it in a star, with optional
//!    intra-stub ring edges for redundancy.
//! 4. Attach each client to a *distinct* stub router with a 1 ms access
//!    link, then route to produce the [`RoutedModel`].
//!
//! Link latency is `max(min_link_ms, distance × ms_per_unit)`; default
//! constants are calibrated so the 100-client default model matches the
//! shape of §5.1 (mean hops ≈ 5.5, mean latency ≈ 50 ms).
//!
//! # Routing at scale
//!
//! [`TransitStubConfig::build`] produces the *two-level* routed layout:
//! shortest paths are solved once over the transit core (a small dense
//! matrix) and once per stub domain (tiny per-domain tables), and each
//! client stores only its attachment point. This is exact — a stub domain
//! reaches the rest of the network through exactly one transit router, so
//! every inter-domain shortest path decomposes as
//! `stub → transit → core → transit → stub` — and keeps a 10k-client
//! model in the low megabytes instead of the ~1.6 GB an `n × n` client
//! matrix would need. [`TransitStubConfig::build_dense`] keeps the legacy
//! all-pairs Dijkstra path for equivalence tests at small `n`.

use crate::geometry::Point;
use crate::graph::Graph;
use crate::model::{ClientAttachment, DomainTable, RoutedModel};
use egm_rng::{sample, Rng};

/// Configuration for the transit–stub generator.
///
/// The default configuration matches the paper's default Inet-3.0 model in
/// scale (≈3000 routers) and, after routing, in latency/hop shape.
///
/// # Examples
///
/// ```
/// use egm_topology::TransitStubConfig;
///
/// // A small, fast model for tests.
/// let model = TransitStubConfig::small().with_clients(16).with_seed(3).build();
/// assert_eq!(model.client_count(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransitStubConfig {
    /// Number of transit domains.
    pub transit_domains: usize,
    /// Routers per transit domain (fully meshed internally).
    pub routers_per_transit: usize,
    /// Stub domains hanging off each transit router.
    pub stubs_per_transit_router: usize,
    /// Routers per stub domain.
    pub routers_per_stub: usize,
    /// Number of protocol clients to attach (each to a distinct stub
    /// router).
    pub clients: usize,
    /// Side of the square plane in map units.
    pub plane_size: f64,
    /// Latency per map unit of distance, in milliseconds.
    pub ms_per_unit: f64,
    /// Lower bound on any router–router link latency (ms).
    pub min_link_ms: f64,
    /// Client access-link latency (ms); the paper uses 1 ms client–stub.
    pub client_stub_ms: f64,
    /// Spread (std-dev) of transit routers around their domain center.
    pub transit_spread: f64,
    /// Spread (std-dev) of stub routers around their transit router.
    pub stub_spread: f64,
    /// Extra inter-domain links added beyond the spanning tree.
    pub extra_domain_links: usize,
    /// Whether stub domains get an internal ring in addition to the star
    /// onto the transit router.
    pub stub_ring: bool,
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl Default for TransitStubConfig {
    fn default() -> Self {
        // ~10*10 transit + 10*10*4*7 = 2900 routers ≈ Inet-3.0's 3037.
        TransitStubConfig {
            transit_domains: 10,
            routers_per_transit: 10,
            stubs_per_transit_router: 4,
            routers_per_stub: 7,
            clients: 100,
            plane_size: 1000.0,
            ms_per_unit: 0.062,
            min_link_ms: 0.5,
            client_stub_ms: 1.0,
            transit_spread: 40.0,
            stub_spread: 25.0,
            extra_domain_links: 20,
            stub_ring: true,
            seed: 0,
        }
    }
}

/// Intermediate output of topology generation: the router graph plus the
/// structural indices both routing backends need. Transit routers occupy
/// vertices `0..transit_count`, stub routers the next `stub_count`
/// vertices grouped by domain; clients are *not* in the graph yet.
struct Generated {
    graph: Graph,
    coords: Vec<Point>,
    transit_count: usize,
    stub_count: usize,
    /// Client attachment picks: indices into the flattened stub-router
    /// list (stub router `s` is vertex `transit_count + s`).
    picks: Vec<usize>,
}

impl TransitStubConfig {
    /// A reduced model (~90 routers) for fast unit and property tests.
    pub fn small() -> Self {
        TransitStubConfig {
            transit_domains: 3,
            routers_per_transit: 3,
            stubs_per_transit_router: 3,
            routers_per_stub: 3,
            clients: 16,
            extra_domain_links: 2,
            ..TransitStubConfig::default()
        }
    }

    /// A configuration sized for `clients` protocol nodes (the 1k–100k
    /// scale axis): the transit core stays at the default 100 routers so
    /// the two-level core matrix stays small, while stub capacity grows
    /// with the client count — at 100k clients that is ~143 stub domains
    /// per transit router, still O(n) routers and O(domains) tables.
    ///
    /// # Examples
    ///
    /// ```
    /// use egm_topology::TransitStubConfig;
    ///
    /// let c = TransitStubConfig::scaled(10_000);
    /// assert!(c.stub_router_count() >= 10_000);
    /// assert_eq!(c.transit_domains * c.routers_per_transit, 100);
    /// ```
    pub fn scaled(clients: usize) -> Self {
        let base = TransitStubConfig::default();
        let core = base.transit_domains * base.routers_per_transit;
        let needed = clients
            .div_ceil(core * base.routers_per_stub)
            .max(base.stubs_per_transit_router);
        TransitStubConfig {
            stubs_per_transit_router: needed,
            clients,
            ..base
        }
    }

    /// Sets the number of clients (builder style).
    pub fn with_clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Sets the generation seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total number of routers this configuration generates.
    pub fn router_count(&self) -> usize {
        let transit = self.transit_domains * self.routers_per_transit;
        transit + transit * self.stubs_per_transit_router * self.routers_per_stub
    }

    /// Total number of stub routers (the attachment points for clients).
    pub fn stub_router_count(&self) -> usize {
        self.transit_domains
            * self.routers_per_transit
            * self.stubs_per_transit_router
            * self.routers_per_stub
    }

    /// Generates the router graph and routes all clients, producing the
    /// [`RoutedModel`] oracle in the compact two-level layout (see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate: zero domains/routers/
    /// clients, or more clients than stub routers (clients must attach to
    /// *distinct* stub routers, §5.1).
    pub fn build(&self) -> RoutedModel {
        let g = self.generate();
        let transit = g.transit_count;
        let rps = self.routers_per_stub;
        let spt = self.stubs_per_transit_router;

        // Core: shortest paths over the transit mesh only. Exact because
        // stub domains are reachable solely through their own transit
        // router, so no core shortest path ever detours through a stub.
        let mut core_graph = Graph::new(transit);
        for a in 0..transit {
            for &(b, w) in g.graph.neighbors(a) {
                if b < transit && b > a {
                    core_graph.add_edge(a, b, w);
                }
            }
        }
        let mut core_latency_ms = vec![0.0; transit * transit];
        let mut core_hops = vec![0u32; transit * transit];
        for t in 0..transit {
            let sp = core_graph.shortest_paths(t);
            for u in 0..transit {
                core_latency_ms[t * transit + u] = if t == u { 0.0 } else { sp.latency_ms[u] };
                core_hops[t * transit + u] = if t == u { 0 } else { sp.hops[u] };
            }
        }
        symmetrize(&mut core_latency_ms, &mut core_hops, transit);

        // Per stub domain: shortest paths over its members plus its
        // transit router (matrix index `rps`). Domain `d` owns vertices
        // `transit + d*rps ..` and hangs off transit router `d / spt`.
        let domain_count = g.stub_count / rps;
        let mut domains = Vec::with_capacity(domain_count);
        for d in 0..domain_count {
            let base = transit + d * rps;
            let t_vertex = d / spt;
            let w = rps + 1;
            let mut dg = Graph::new(w);
            for m in 0..rps {
                for &(nb, weight) in g.graph.neighbors(base + m) {
                    if nb == t_vertex {
                        dg.add_edge(m, rps, weight);
                    } else if nb >= base && nb < base + rps && nb > base + m {
                        dg.add_edge(m, nb - base, weight);
                    }
                }
            }
            let mut latency_ms = vec![0.0; w * w];
            let mut hops = vec![0u32; w * w];
            for s in 0..w {
                let sp = dg.shortest_paths(s);
                for u in 0..w {
                    latency_ms[s * w + u] = if s == u { 0.0 } else { sp.latency_ms[u] };
                    hops[s * w + u] = if s == u { 0 } else { sp.hops[u] };
                }
            }
            symmetrize(&mut latency_ms, &mut hops, w);
            domains.push(DomainTable {
                core_index: t_vertex as u32,
                members: rps as u32,
                latency_ms,
                hops,
            });
        }

        // Clients: attachment records plus coordinates (clients sit at
        // their stub router's location). No client vertices are ever added
        // to a graph and no n×n matrix is materialized.
        let mut clients = Vec::with_capacity(self.clients);
        let mut client_coords = Vec::with_capacity(self.clients);
        for &s in &g.picks {
            clients.push(ClientAttachment {
                domain: (s / rps) as u32,
                member: (s % rps) as u32,
            });
            client_coords.push(g.coords[transit + s]);
        }

        RoutedModel::from_two_level(
            self.client_stub_ms,
            transit,
            core_latency_ms,
            core_hops,
            domains,
            &clients,
            client_coords,
            g.graph.vertex_count(),
        )
    }

    /// Legacy dense routing: adds the clients to the router graph and runs
    /// Dijkstra from every client, materializing `n × n` matrices. Kept
    /// for the equivalence tests that pin [`TransitStubConfig::build`]'s
    /// compact layout to the brute-force answer; O(n²) memory, so only
    /// suitable for small `n`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`TransitStubConfig::build`].
    pub fn build_dense(&self) -> RoutedModel {
        let g = self.generate();
        let mut graph = g.graph;
        let mut coords = g.coords;
        let mut client_vertices = Vec::with_capacity(self.clients);
        let mut client_coords = Vec::with_capacity(self.clients);
        for &s in &g.picks {
            let stub = g.transit_count + s;
            let v = graph.add_vertex();
            // Clients sit at their stub router's location.
            coords.push(coords[stub]);
            // Access links have a fixed latency regardless of distance.
            graph.add_edge(v, stub, self.client_stub_ms);
            client_vertices.push(v);
            client_coords.push(coords[stub]);
        }

        let n = self.clients;
        let mut latency = vec![0.0; n * n];
        let mut hops = vec![0u32; n * n];
        for (i, &src) in client_vertices.iter().enumerate() {
            let sp = graph.shortest_paths(src);
            for (j, &dst) in client_vertices.iter().enumerate() {
                latency[i * n + j] = if i == j { 0.0 } else { sp.latency_ms[dst] };
                // Hop distance is measured between the clients' stub
                // attachment points (router-level hops), so the two client
                // access links are not counted — matching how §5.1 reports
                // "hop distance between client nodes" for ModelNet.
                hops[i * n + j] = if i == j {
                    0
                } else {
                    sp.hops[dst].saturating_sub(2)
                };
            }
        }
        // Dijkstra is deterministic and the graph undirected, but float
        // summation order differs per direction; symmetrize to the mean.
        symmetrize(&mut latency, &mut hops, n);
        RoutedModel::from_matrices(latency, hops, client_coords, graph.vertex_count() - n)
    }

    /// Generates the router graph and draws the client attachment picks
    /// (steps 1–3 plus the attachment sampling of step 4). Shared by both
    /// routing backends so they see the identical topology for a seed.
    fn generate(&self) -> Generated {
        assert!(self.transit_domains > 0, "need at least one transit domain");
        assert!(
            self.routers_per_transit > 0,
            "need routers per transit domain"
        );
        assert!(self.clients > 0, "need at least one client");
        assert!(
            self.clients <= self.stub_router_count(),
            "clients ({}) exceed distinct stub routers ({})",
            self.clients,
            self.stub_router_count()
        );
        assert!(
            self.ms_per_unit > 0.0 && self.min_link_ms > 0.0,
            "latency scale must be positive"
        );

        let mut rng = Rng::seed_from_u64(self.seed);
        let mut graph = Graph::new(0);
        let mut coords: Vec<Point> = Vec::new();

        // 1. Transit domains: centers + clustered routers, full mesh inside.
        let mut domain_routers: Vec<Vec<usize>> = Vec::with_capacity(self.transit_domains);
        for _ in 0..self.transit_domains {
            let center = Point::new(
                rng.range_f64(0.1 * self.plane_size, 0.9 * self.plane_size),
                rng.range_f64(0.1 * self.plane_size, 0.9 * self.plane_size),
            );
            let mut routers = Vec::with_capacity(self.routers_per_transit);
            for _ in 0..self.routers_per_transit {
                let p = Point::new(
                    rng.normal(center.x, self.transit_spread),
                    rng.normal(center.y, self.transit_spread),
                )
                .clamped(self.plane_size);
                let v = graph.add_vertex();
                coords.push(p);
                routers.push(v);
            }
            for i in 0..routers.len() {
                for j in (i + 1)..routers.len() {
                    self.link(&mut graph, &coords, routers[i], routers[j]);
                }
            }
            domain_routers.push(routers);
        }
        let transit_count = graph.vertex_count();

        // 2. Inter-domain connectivity: random spanning tree + extra links.
        let mut order: Vec<usize> = (0..self.transit_domains).collect();
        sample::shuffle(&mut rng, &mut order);
        for w in order.windows(2) {
            let a = *sample::choose(&mut rng, &domain_routers[w[0]]).expect("non-empty domain");
            let b = *sample::choose(&mut rng, &domain_routers[w[1]]).expect("non-empty domain");
            self.link(&mut graph, &coords, a, b);
        }
        if self.transit_domains > 1 {
            for _ in 0..self.extra_domain_links {
                let da = rng.range_usize(0, self.transit_domains);
                let mut db = rng.range_usize(0, self.transit_domains);
                while db == da {
                    db = rng.range_usize(0, self.transit_domains);
                }
                let a = *sample::choose(&mut rng, &domain_routers[da]).expect("non-empty");
                let b = *sample::choose(&mut rng, &domain_routers[db]).expect("non-empty");
                if !graph.has_edge(a, b) {
                    self.link(&mut graph, &coords, a, b);
                }
            }
        }

        // 3. Stub domains: star onto their transit router (+ optional ring).
        for domain in &domain_routers {
            for &transit in domain {
                for _ in 0..self.stubs_per_transit_router {
                    let stub_center = Point::new(
                        rng.normal(coords[transit].x, 3.0 * self.stub_spread),
                        rng.normal(coords[transit].y, 3.0 * self.stub_spread),
                    )
                    .clamped(self.plane_size);
                    let mut members = Vec::with_capacity(self.routers_per_stub);
                    for _ in 0..self.routers_per_stub {
                        let p = Point::new(
                            rng.normal(stub_center.x, self.stub_spread),
                            rng.normal(stub_center.y, self.stub_spread),
                        )
                        .clamped(self.plane_size);
                        let v = graph.add_vertex();
                        coords.push(p);
                        members.push(v);
                        self.link(&mut graph, &coords, v, transit);
                    }
                    if self.stub_ring && members.len() > 2 {
                        for i in 0..members.len() {
                            let j = (i + 1) % members.len();
                            self.link(&mut graph, &coords, members[i], members[j]);
                        }
                    }
                }
            }
        }
        debug_assert!(graph.is_connected(), "generated graph must be connected");

        // 4 (sampling only). Clients pick distinct stub routers.
        let stub_count = graph.vertex_count() - transit_count;
        let picks = sample::distinct_indices(&mut rng, stub_count, self.clients);
        Generated {
            graph,
            coords,
            transit_count,
            stub_count,
            picks,
        }
    }

    /// Adds a distance-proportional link between two placed routers.
    fn link(&self, graph: &mut Graph, coords: &[Point], a: usize, b: usize) {
        if a == b || graph.has_edge(a, b) {
            return;
        }
        let latency = (coords[a].distance(coords[b]) * self.ms_per_unit).max(self.min_link_ms);
        graph.add_edge(a, b, latency);
    }
}

/// Symmetrizes flattened `n × n` latency/hop matrices in place: latency to
/// the directional mean (float summation order differs per direction),
/// hops to the directional minimum.
fn symmetrize(latency_ms: &mut [f64], hops: &mut [u32], n: usize) {
    for i in 0..n {
        for j in (i + 1)..n {
            let l = (latency_ms[i * n + j] + latency_ms[j * n + i]) / 2.0;
            latency_ms[i * n + j] = l;
            latency_ms[j * n + i] = l;
            let h = hops[i * n + j].min(hops[j * n + i]);
            hops[i * n + j] = h;
            hops[j * n + i] = h;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::TransitStubConfig;

    #[test]
    fn small_model_is_finite_and_symmetric() {
        let m = TransitStubConfig::small().with_seed(1).build();
        let n = m.client_count();
        assert_eq!(n, 16);
        for a in 0..n {
            for b in 0..n {
                let l = m.latency_ms(a, b);
                assert!(l.is_finite(), "unreachable pair ({a},{b})");
                assert_eq!(l, m.latency_ms(b, a));
                if a != b {
                    assert!(l >= 2.0 * 1.0, "two access links minimum, got {l}");
                    assert!(
                        m.hops(a, b) >= 1,
                        "distinct stubs are at least one router hop"
                    );
                }
            }
        }
    }

    #[test]
    fn same_seed_reproduces_model() {
        let a = TransitStubConfig::small().with_seed(7).build();
        let b = TransitStubConfig::small().with_seed(7).build();
        for i in 0..a.client_count() {
            for j in 0..a.client_count() {
                assert_eq!(a.latency_ms(i, j), b.latency_ms(i, j));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = TransitStubConfig::small().with_seed(1).build();
        let b = TransitStubConfig::small().with_seed(2).build();
        let mut any_diff = false;
        for i in 0..a.client_count() {
            for j in 0..a.client_count() {
                if a.latency_ms(i, j) != b.latency_ms(i, j) {
                    any_diff = true;
                }
            }
        }
        assert!(any_diff);
    }

    #[test]
    fn router_count_matches_formula() {
        let c = TransitStubConfig::default();
        assert_eq!(c.router_count(), 100 + 2800);
        let m = TransitStubConfig::small()
            .with_clients(4)
            .with_seed(0)
            .build();
        assert_eq!(m.router_count(), TransitStubConfig::small().router_count());
    }

    #[test]
    #[should_panic(expected = "exceed distinct stub routers")]
    fn too_many_clients_panics() {
        let mut c = TransitStubConfig::small();
        c.clients = c.stub_router_count() + 1;
        let _ = c.build();
    }

    #[test]
    fn default_model_matches_paper_shape() {
        // §5.1: mean hops 5.54 (74% in 5-6); mean latency 49.83ms
        // (50% in 39-60ms). We assert the calibrated shape loosely.
        let m = TransitStubConfig::default().with_seed(42).build();
        let s = m.stats();
        assert!(
            (4.0..=7.0).contains(&s.mean_hops),
            "mean hops {} out of calibration band",
            s.mean_hops
        );
        assert!(
            (38.0..=62.0).contains(&s.mean_latency_ms),
            "mean latency {} out of calibration band",
            s.mean_latency_ms
        );
        assert!(
            s.frac_latency_39_60 > 0.25,
            "band fraction {}",
            s.frac_latency_39_60
        );
        assert!(
            s.frac_hops_5_6 > 0.3,
            "hop band fraction {}",
            s.frac_hops_5_6
        );
    }

    #[test]
    fn routed_layout_holds_no_client_matrix() {
        let m = TransitStubConfig::default()
            .with_clients(100)
            .with_seed(5)
            .build();
        let shape = m.memory_shape();
        assert_eq!(shape.dense_cells, 0, "no n×n client matrix");
        assert_eq!(shape.core_cells, 2 * 100 * 100, "10×10 transit core");
        assert_eq!(shape.client_entries, 100);
    }

    #[test]
    fn two_level_matches_dense_reference() {
        // The proptest in tests/properties.rs fuzzes this; here one fixed
        // seed guards the decomposition in the unit suite.
        let config = TransitStubConfig::small().with_clients(12).with_seed(9);
        let compact = config.build();
        let dense = config.build_dense();
        for a in 0..12 {
            for b in 0..12 {
                let dl = dense.latency_ms(a, b);
                let cl = compact.latency_ms(a, b);
                assert!(
                    (dl - cl).abs() < 1e-9,
                    "latency mismatch at ({a},{b}): dense {dl} vs two-level {cl}"
                );
                assert_eq!(
                    dense.hops(a, b),
                    compact.hops(a, b),
                    "hop mismatch at ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn scaled_config_hosts_requested_clients() {
        for n in [1_000usize, 4_000, 10_000, 100_000, 1_000_000] {
            let c = TransitStubConfig::scaled(n);
            assert!(c.stub_router_count() >= n, "capacity for {n}");
            assert_eq!(
                c.transit_domains * c.routers_per_transit,
                100,
                "core stays small"
            );
            // Capacity tracks demand: never more than one extra stub
            // domain's worth per transit router, so router count (and
            // with it generation time and domain tables) stays O(n).
            let slack = c.stub_router_count() - n;
            if c.stubs_per_transit_router > TransitStubConfig::default().stubs_per_transit_router {
                assert!(
                    slack < 100 * c.routers_per_stub,
                    "overshoot for {n}: {slack}"
                );
            }
        }
        // Small client counts keep the default shape.
        assert_eq!(
            TransitStubConfig::scaled(100).stubs_per_transit_router,
            TransitStubConfig::default().stubs_per_transit_router
        );
    }
}
