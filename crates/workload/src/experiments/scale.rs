//! Scale-axis scenario presets: 1k / 4k / 10k / 100k-node runs.
//!
//! The paper's emergent-structure results are measured on a hundred
//! nodes; gossip overlays in the HyParView/Plumtree lineage are routinely
//! evaluated at 10k. These presets make that regime runnable here with
//! the same determinism guarantees as the figure experiments, leaning on
//! the scale refactors across the stack:
//!
//! * the **two-level routed topology** ([`TransitStubConfig::scaled`])
//!   keeps the network model O(n) instead of an `n × n` client matrix;
//! * the **calendar event queue** (O(1) amortized, cache-warm slab
//!   storage) replaces the binary heap by default at this scale —
//!   bit-identical dispatch order, ~1.5–1.75× the heap's event rate at
//!   10k ([`Scenario::event_queue`] switches back);
//! * **arena-backed node state** (`egm_core::arena::MsgArena`) replaces
//!   the per-node per-message hash maps with dense generation-stamped
//!   slots — one intern probe per message event;
//! * **log-based traffic accounting** appends 8-byte send records and
//!   folds them into a 16-byte-per-link payload table, with a **spill threshold**
//!   bounding tracked links ([`Scenario::link_spill_threshold`]);
//! * **index-free timer cancellation** keeps the event queue free of
//!   dead request retries (the dominant event class under lazy push);
//! * **one record of each delivery**: nodes log deliveries into the
//!   engine's chunked stream, which the delivery log drains into
//!   per-message entries sorted by node — no per-node record buffers and
//!   no per-(node, message) table;
//! * the **decentralized gossip-sorted ranking**
//!   ([`ScalePreset::rank_source`]) replaces the O(n²) centrality
//!   oracle, and the remaining fixed per-run cost (ranking + view
//!   bootstrap) is paid once per prepared setup
//!   ([`crate::runner::prepare`]) instead of per run;
//! * **horizon-based message retirement**
//!   ([`egm_core::ProtocolConfig::retire_after`], on for every preset)
//!   frees delivered arena slots once no protocol event can reference
//!   them, so steady-state RSS plateaus at the in-flight window instead
//!   of growing with total messages sent.
//!
//! Presets run through [`run_sweep`] like every figure experiment, so
//! multi-seed scale sweeps parallelize across cores with byte-identical
//! results. The `scale_events_per_sec` bench bin (crate `egm-bench`)
//! asserts peak RSS on these presets against [`ScalePreset::rss_budget_mb`]
//! and records it in `BENCH_events_per_sec.json`; the repository
//! benchmark (`benchmark/`) times them.
//!
//! # Memory budget (measured by the `scale_events_per_sec` bin with one
//! record of each delivery — the engine's chunked stream, then the
//! delivery log — and 8 B send records folded into a 16 B payload-only
//! link table, release build, sequential engine, 30 messages, Ranked
//! best=20 %, 2-vCPU x86-64; with per-node delivery vectors beside the
//! log it read 18 / 66 / 156 / 1 105 MB, with 16 B records and 32 B link
//! entries 19 / 68 / 155 / 1 268 MB, with a fixed 16 MB log window and a
//! copied table 26 / 75 / 173 / 1 384 MB, with the table held in up to
//! four shapes at once 35 / 110 / 246 / 2 006 MB)
//!
//! | preset | nodes     | routed model | peak process RSS |
//! |--------|-----------|--------------|------------------|
//! | 1k     | 1 000     | ~0.3 MB      | ~17 MB  |
//! | 4k     | 4 000     | ~0.5 MB      | ~66 MB  |
//! | 10k    | 10 000    | ~1 MB        | ~153 MB |
//! | 100k   | 100 000   | ~10 MB       | ~1 069 MB |
//!
//! Peak RSS is dominated by in-flight simulator events and per-node
//! protocol state, both O(n); nothing is O(n²). For comparison, a dense
//! client latency+hop matrix alone would be ~1.2 GB at 10k nodes, and a
//! dense per-(node, message) delivery table another ~5 MB per message.
//! With retirement on, total messages sent contributes to peak RSS
//! mostly through the one record of each delivery every run keeps (the
//! engine's delivery stream, then the delivery log built from it) — the
//! `scale_events_per_sec` bench's plateau mode (`EGM_SCALE_PLATEAU_MAX`)
//! bounds it.

use crate::runner::{run_sweep, RunOutcome};
use crate::scenario::{Scenario, TopologySource};
use egm_core::{MonitorSpec, RankSource, StrategySpec};
use egm_simnet::SimDuration;
use egm_topology::TransitStubConfig;

/// A scale-axis preset size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalePreset {
    /// 1 000 nodes — the CI smoke size.
    N1k,
    /// 4 000 nodes.
    N4k,
    /// 10 000 nodes — the HyParView/Plumtree evaluation regime.
    N10k,
    /// 100 000 nodes — the nightly decade jump; needs retirement to stay
    /// inside its RSS budget.
    N100k,
}

impl ScalePreset {
    /// Every preset, smallest first (the order error messages list them
    /// in).
    pub const ALL: [ScalePreset; 4] = [
        ScalePreset::N1k,
        ScalePreset::N4k,
        ScalePreset::N10k,
        ScalePreset::N100k,
    ];

    /// Number of protocol nodes.
    pub fn nodes(&self) -> usize {
        match self {
            ScalePreset::N1k => 1_000,
            ScalePreset::N4k => 4_000,
            ScalePreset::N10k => 10_000,
            ScalePreset::N100k => 100_000,
        }
    }

    /// Display label (`"1k"`, `"4k"`, `"10k"`, `"100k"`).
    pub fn label(&self) -> &'static str {
        match self {
            ScalePreset::N1k => "1k",
            ScalePreset::N4k => "4k",
            ScalePreset::N10k => "10k",
            ScalePreset::N100k => "100k",
        }
    }

    /// Parses a label, case-insensitively; `None` for anything
    /// unrecognized. Each preset answers to its short label (`"100k"`)
    /// and its plain node count (`"100000"`).
    pub fn parse(label: &str) -> Option<Self> {
        match label.to_ascii_lowercase().as_str() {
            "1k" | "1000" => Some(ScalePreset::N1k),
            "4k" | "4000" => Some(ScalePreset::N4k),
            "10k" | "10000" => Some(ScalePreset::N10k),
            "100k" | "100000" => Some(ScalePreset::N100k),
            _ => None,
        }
    }

    /// Reads `EGM_SCALE_PRESET` from the environment; unset selects 1k.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value, listing the valid labels: the
    /// scale bench doubles as a CI assertion, and silently falling back
    /// to the smallest preset would make a typoed budget check pass
    /// against the wrong workload.
    pub fn from_env() -> Self {
        match std::env::var("EGM_SCALE_PRESET") {
            Err(_) => ScalePreset::N1k,
            Ok(v) => ScalePreset::parse(&v).unwrap_or_else(|| {
                let valid: Vec<&str> = Self::ALL.iter().map(|p| p.label()).collect();
                panic!(
                    "unrecognized EGM_SCALE_PRESET {v:?}: valid presets are {}",
                    valid.join(", ")
                )
            }),
        }
    }

    /// Peak-RSS budget for this preset in MB: what the
    /// `scale_events_per_sec` bench asserts unless
    /// `EGM_SCALE_RSS_BUDGET_MB` sets another. Budgets leave ~2–4×
    /// headroom over the measured plateau so allocator noise never flakes
    /// CI, while still catching any return of an O(n²) or
    /// O(total-messages) term.
    pub fn rss_budget_mb(&self) -> u64 {
        match self {
            // Measured 17.4 MB; armed at 17 the bin fails.
            ScalePreset::N1k => 64,
            // Measured 65.8 MB; armed at 65 the bin fails.
            ScalePreset::N4k => 192,
            ScalePreset::N10k => 512,
            // The issue's acceptance bound: ≤ ~10× the 10k preset.
            ScalePreset::N100k => 2_900,
        }
    }

    /// Link-accounting bound for this size: individually tracked links
    /// are capped at ~256 per node so the per-link map stays tens of MB
    /// at worst instead of growing toward n².
    pub fn link_spill_threshold(&self) -> usize {
        self.nodes() * 256
    }

    /// Measure/shuffle cycles of the decentralized gossip-sorted ranking
    /// the scale presets run ([`RankSource::GossipSorted`]).
    ///
    /// Eight cycles expose each node to ~120 distinct peers (view 15,
    /// three shuffle ticks between measurements), which measured ≥ 0.8
    /// hub-choice overlap with the O(n²) oracle across the 1k–10k presets
    /// (`experiments::rank_quality::run_at_preset`) while staying O(n).
    pub const GOSSIP_ROUNDS: usize = 8;

    /// The ranking the presets use: decentralized gossip-sorted. The
    /// paper's §6.5 noise results predict — and [`rank_quality`]
    /// (`run_at_preset`) confirms at these sizes — that the protocol
    /// tolerates the residual ranking error, so the scale axis no longer
    /// pays the oracle's O(n²) fixed per-run sweep (~0.2–0.3 s at 10k).
    /// Pass [`RankSource::Oracle`] through
    /// [`Scenario::with_rank_source`] to compare against the oracle.
    ///
    /// [`rank_quality`]: crate::experiments::rank_quality
    pub fn rank_source(&self) -> RankSource {
        RankSource::GossipSorted {
            rounds: Self::GOSSIP_ROUNDS,
        }
    }

    /// The rank-source comparison triple `rank_quality::run_at_preset`
    /// measures: the oracle reference, a sampled baseline calibrating the
    /// overlap scale, and the gossip-sorted source the preset actually
    /// ships with. Oracle first — the other sources are scored against it.
    pub fn rank_ab_sources(&self) -> [RankSource; 3] {
        [
            RankSource::Oracle,
            RankSource::Sampled {
                samples_per_node: 32,
            },
            self.rank_source(),
        ]
    }

    /// Retirement horizon the presets run with: 10 s of simulated time
    /// after delivery. At zero loss the worst-case quiesce (gossip depth
    /// × (link delay + retry interval)) is well under 6 s at every preset
    /// size, so no live protocol event ever touches a retired slot — the
    /// `retire_determinism` suite asserts byte-identity against
    /// retirement-off runs.
    pub fn retire_horizon() -> SimDuration {
        SimDuration::from_ms(10_000.0)
    }

    /// The scenario this preset runs: a scaled transit–stub topology
    /// (100-router transit core, stub capacity ≥ n), the paper's §5.2
    /// protocol parameters, and the Ranked best=20 % strategy with the
    /// decentralized gossip-sorted ranking
    /// ([`ScalePreset::rank_source`]) over the latency-oracle monitor —
    /// the configuration whose emergent structure the paper studies,
    /// pushed along the scale axis without any O(n²) global sweep.
    /// Message retirement is on ([`ScalePreset::retire_horizon`]) so the
    /// working set plateaus.
    pub fn scenario(&self, messages: usize, seed: u64) -> Scenario {
        let n = self.nodes();
        let mut s = Scenario::paper_default();
        s.topology = TopologySource::TransitStub(TransitStubConfig::scaled(n));
        s.strategy = StrategySpec::Ranked { best_fraction: 0.2 };
        s.monitor = MonitorSpec::OracleLatency;
        s.messages = messages;
        // Denser injection than the paper's 500 ms keeps wall time and
        // event-queue depth reasonable as n grows.
        s.mean_interval_ms = 250.0;
        s.link_spill_threshold = Some(self.link_spill_threshold());
        s.rank_source = self.rank_source();
        s.protocol.retire_after = Some(Self::retire_horizon());
        s.seed = seed;
        s
    }
}

/// Runs scale presets through the parallel sweep runner, one run per
/// (preset, seed) pair in input order — the scale twin of the figure
/// sweeps.
///
/// # Panics
///
/// Panics if `messages == 0` (scenario invariant).
pub fn run_presets(presets: &[(ScalePreset, u64)], messages: usize) -> Vec<RunOutcome> {
    let scenarios = presets
        .iter()
        .map(|&(preset, seed)| preset.scenario(messages, seed))
        .collect();
    run_sweep(scenarios, None)
}

#[cfg(test)]
mod tests {
    use super::ScalePreset;

    #[test]
    fn preset_sizes_and_labels() {
        assert_eq!(ScalePreset::N1k.nodes(), 1_000);
        assert_eq!(ScalePreset::N4k.nodes(), 4_000);
        assert_eq!(ScalePreset::N10k.nodes(), 10_000);
        assert_eq!(ScalePreset::N100k.nodes(), 100_000);
        assert_eq!(ScalePreset::parse("10k"), Some(ScalePreset::N10k));
        assert_eq!(ScalePreset::parse("4000"), Some(ScalePreset::N4k));
        assert_eq!(ScalePreset::parse("huge"), None);
        // Labels round-trip through parse for every preset.
        for preset in ScalePreset::ALL {
            assert_eq!(ScalePreset::parse(preset.label()), Some(preset));
            assert_eq!(
                ScalePreset::parse(&preset.nodes().to_string()),
                Some(preset)
            );
        }
    }

    #[test]
    fn parse_accepts_decade_spellings() {
        for spelling in ["100k", "100K", "100000"] {
            assert_eq!(ScalePreset::parse(spelling), Some(ScalePreset::N100k));
        }
        for spelling in ["1m", "1M", "1000k", "1000000", "1mm"] {
            assert_eq!(ScalePreset::parse(spelling), None, "{spelling}");
        }
        assert_eq!(ScalePreset::parse(""), None);
    }

    #[test]
    fn scenarios_are_consistent() {
        for preset in ScalePreset::ALL {
            let s = preset.scenario(10, 7);
            assert_eq!(s.node_count(), preset.nodes());
            assert_eq!(s.messages, 10);
            assert_eq!(s.seed, 7);
            assert_eq!(
                s.link_spill_threshold,
                Some(preset.link_spill_threshold()),
                "scale runs must bound link accounting"
            );
            assert_eq!(
                s.rank_source,
                preset.rank_source(),
                "scale runs must rank without the O(n²) oracle"
            );
            assert!(!s.rank_source.is_oracle());
            assert_eq!(
                s.protocol.retire_after,
                Some(ScalePreset::retire_horizon()),
                "scale runs must bound steady-state memory"
            );
            // The horizon comfortably covers the retry interval (the
            // config validator's floor) and the worst-case quiesce.
            s.protocol.validate();
        }
    }

    #[test]
    fn rss_budgets_grow_with_size() {
        let budgets: Vec<u64> = ScalePreset::ALL.iter().map(|p| p.rss_budget_mb()).collect();
        for pair in budgets.windows(2) {
            assert!(pair[0] < pair[1], "budgets must be monotone: {budgets:?}");
        }
        // 100k within ~10× the 10k preset's budget (the 10k bin measures
        // ~156 MB, the 100k bin ~1 105 MB).
        assert!(ScalePreset::N100k.rss_budget_mb() <= 2_900);
    }

    #[test]
    fn scale_models_never_materialize_client_matrices() {
        // Building the 10k model is cheap (O(routers)); the memory-shape
        // assertion is the acceptance guard for the scale axis.
        let s = ScalePreset::N10k.scenario(1, 1);
        let model = s.build_model();
        assert_eq!(model.client_count(), 10_000);
        let shape = model.memory_shape();
        assert_eq!(shape.dense_cells, 0, "no n×n client matrix at 10k");
        assert!(
            shape.core_cells + shape.domain_cells < 1_000_000,
            "router tables stay small: {shape:?}"
        );
        assert_eq!(shape.client_entries, 10_000);
    }
}
