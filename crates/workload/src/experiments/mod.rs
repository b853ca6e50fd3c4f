//! The paper's evaluation, experiment by experiment.
//!
//! Each submodule regenerates one figure of §6 (or the §5.1 model
//! statistics) as structured rows plus a rendered text table, so the bench
//! harnesses in `egm-bench` print the same series the paper plots:
//!
//! | module | paper result |
//! |--------|--------------|
//! | [`netstats`] | §5.1 network model properties, §5.4 run statistics |
//! | [`fig4`] | emergent structure: top-5 % link share per strategy |
//! | [`fig5a`] | latency vs payload/msg tradeoff per strategy |
//! | [`fig5b`] | reliability under correlated node failures |
//! | [`fig5c`] | hybrid (combined) strategy tradeoff |
//! | [`fig6`] | structure degradation under monitor noise |
//! | [`ablation`] | extension: NeEM redundancy-suppression ablation |
//! | [`rank_quality`] | extension: decentralized ranking quality |
//! | [`scale`] | extension: 1k–10k-node scale-axis presets |
//! | [`fault_resilience`] | extension: scheduled fault scenarios × churn |
//!
//! Experiments default to a reduced **quick** scale so the whole suite
//! runs in seconds; set `EGM_SCALE=paper` to reproduce at the paper's full
//! scale (100 nodes × 400 messages).

pub mod ablation;
pub mod fault_resilience;
pub mod fig4;
pub mod fig5a;
pub mod fig5b;
pub mod fig5c;
pub mod fig6;
pub mod netstats;
pub mod rank_quality;
pub mod scale;

use crate::scenario::{Scenario, TopologySource};
use egm_topology::{RoutedModel, TransitStubConfig};
use std::sync::Arc;

/// Experiment scale: how many nodes and messages per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Protocol nodes (the paper uses 100, and 200 for the low-bandwidth
    /// configurations).
    pub nodes: usize,
    /// Multicast messages per run (400 in the paper).
    pub messages: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Reduced scale for fast regeneration (~seconds per figure).
    pub fn quick() -> Self {
        Scale {
            nodes: 50,
            messages: 120,
            seed: 42,
        }
    }

    /// The paper's full scale: 100 nodes, 400 messages.
    pub fn paper() -> Self {
        Scale {
            nodes: 100,
            messages: 400,
            seed: 42,
        }
    }

    /// Reads `EGM_SCALE` from the environment: `paper` selects
    /// [`Scale::paper`], `quick` or unset [`Scale::quick`].
    ///
    /// # Panics
    ///
    /// Panics on any other value: a typoed `paper` must not quietly
    /// print the reduced figures.
    pub fn from_env() -> Self {
        std::env::var("EGM_SCALE").map_or(Scale::quick(), |v| Scale::parse(&v))
    }

    /// The scale named by an `EGM_SCALE` value; panics naming the
    /// variable and the value unless it is `quick` or `paper`.
    fn parse(value: &str) -> Self {
        match value {
            "quick" => Scale::quick(),
            "paper" => Scale::paper(),
            _ => panic!("unrecognized EGM_SCALE {value:?}: expected quick or paper"),
        }
    }
}

/// The base scenario all figure experiments derive from: a transit–stub
/// model with `scale.nodes` clients and the paper's §5.2/§5.3 protocol
/// parameters.
pub fn base_scenario(scale: &Scale) -> Scenario {
    let mut s = Scenario::paper_default();
    s.topology =
        TopologySource::TransitStub(TransitStubConfig::default().with_clients(scale.nodes));
    s.messages = scale.messages;
    s.seed = scale.seed;
    // The overlay keeps shuffling during the run, as in NeEM (§5.2): the
    // paper's Fig. 4 emphasizes that connections are used briefly and
    // churned, so structure must emerge *despite* membership churn.
    s
}

/// Builds the shared network model for a figure (the paper holds the
/// model fixed while sweeping strategies).
pub fn shared_model(scale: &Scale) -> Arc<RoutedModel> {
    Arc::new(base_scenario(scale).build_model())
}

#[cfg(test)]
mod tests {
    use super::{base_scenario, shared_model, Scale};
    use crate::runner::{prepare, run_prepared};

    #[test]
    fn scales_differ_as_documented() {
        let q = Scale::quick();
        let p = Scale::paper();
        assert!(q.nodes < p.nodes);
        assert_eq!(p.nodes, 100);
        assert_eq!(p.messages, 400);
    }

    #[test]
    fn scale_names_parse() {
        assert_eq!(Scale::parse("quick"), Scale::quick());
        assert_eq!(Scale::parse("paper"), Scale::paper());
    }

    #[test]
    #[should_panic(expected = "unrecognized EGM_SCALE \"papr\"")]
    fn a_typoed_scale_panics_instead_of_running_quick() {
        Scale::parse("papr");
    }

    #[test]
    fn base_scenario_matches_scale() {
        let scale = Scale {
            nodes: 30,
            messages: 10,
            seed: 1,
        };
        let s = base_scenario(&scale);
        assert_eq!(s.node_count(), 30);
        assert_eq!(s.messages, 10);
        assert!(
            s.protocol.shuffle_interval.is_some(),
            "overlay churns as in NeEM"
        );
    }

    #[test]
    fn shared_model_matches_base_scenario() {
        let scale = Scale {
            nodes: 12,
            messages: 5,
            seed: 3,
        };
        let model = shared_model(&scale);
        assert_eq!(model.client_count(), 12);
        let scenario = base_scenario(&scale);
        let shared = run_prepared(&scenario, &prepare(&scenario, Some(model)));
        assert_eq!(shared.report.nodes, 12);
        // And is exactly the model a plain `run()` would build.
        assert_eq!(scenario.run().first_difference(&shared), None);
    }
}
