//! Heavy-traffic arrival processes: the workload axis that drives
//! publishes from a deterministic arrival-process generator instead of
//! the fixed uniform-gap plan in [`crate::traffic`].
//!
//! One mode, open loop ([`Arrival::Open`]): the offered rate is fixed by
//! an [`ArrivalProcess`]; publishes are scheduled up front as simulator
//! commands regardless of how the protocol keeps up. This is the
//! heavy-traffic / saturation axis — the generator never backs off.
//!
//! The generator draws from the harness RNG stream at the same call
//! position the uniform planner would, so runs are byte-identical across
//! shard widths, and a scenario with `arrival: None` replays
//! the historical uniform plan bit for bit.

use crate::traffic::PlannedMulticast;
use egm_rng::Rng;
use egm_simnet::{NodeId, SimDuration, SimTime};

/// A deterministic open-loop arrival-process generator. Rates are per
/// *simulated* second; gaps are drawn from the harness RNG via
/// inverse-CDF sampling, so a process is a pure function of (spec, rng
/// position).
///
/// A single-variant enum on purpose: the benchmark constructs
/// `ArrivalProcess::Poisson` and lists it in its API contract, so the
/// shape stays as it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals: exponential gaps with mean
    /// `1000 / rate_per_sec` ms.
    Poisson {
        /// Offered rate in messages per simulated second.
        rate_per_sec: f64,
    },
}

/// How publishes are driven when a scenario opts into the arrival axis
/// ([`crate::Scenario::arrival`]).
///
/// A single-variant enum on purpose: the benchmark constructs
/// `Arrival::Open` and lists it in its API contract, so the shape stays
/// as it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Open loop at a fixed offered rate: the schedule is planned up
    /// front from the process, exactly like the historical uniform plan
    /// but with process-shaped gaps.
    Open(ArrivalProcess),
}

/// Plans `messages` open-loop multicasts starting at `start`, rotating
/// round-robin over `senders` with gaps drawn from `process`. The
/// schedule has the same shape as [`crate::traffic::plan`] output —
/// dense sequence numbers, non-decreasing times — so everything
/// downstream (delivery log, traffic accounting) is agnostic to which
/// planner produced it.
///
/// # Panics
///
/// Panics if `senders` is empty or the rate is non-finite or
/// non-positive.
pub fn plan(
    process: &ArrivalProcess,
    senders: &[NodeId],
    messages: usize,
    start: SimTime,
    rng: &mut Rng,
) -> Vec<PlannedMulticast> {
    assert!(!senders.is_empty(), "need at least one sender");
    let ArrivalProcess::Poisson { rate_per_sec } = *process;
    assert!(
        rate_per_sec.is_finite() && rate_per_sec > 0.0,
        "Poisson rate must be positive and finite"
    );
    let mut out = Vec::with_capacity(messages);
    // Offset in ms from `start`: one exponential gap per arrival.
    let mut offset = 0.0f64;
    for seq in 0..messages {
        offset += rng.exponential(1000.0 / rate_per_sec);
        out.push(PlannedMulticast {
            seq: seq as u64,
            source: senders[seq % senders.len()],
            at: start + SimDuration::from_ms(offset),
        });
    }
    out
}

/// Steady-state throughput block measured over one run's post-warm-up
/// window (see [`crate::runner::RunOutcome::steady`]). The window spans
/// from traffic start (the end of [`crate::Scenario::warmup_ms`]) to the
/// end of the run (drain included), so it covers the whole traffic
/// phase and the rates are mild underestimates of the instantaneous
/// steady rate — comparable across runs of one scenario shape, which is
/// what the sustained bench pins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyState {
    /// Window start, absolute sim time in ms.
    pub window_start_ms: f64,
    /// Window end (end of run, drain included), absolute sim time in ms.
    pub window_end_ms: f64,
    /// Messages published within the window.
    pub published: usize,
    /// Deliveries of window-published messages.
    pub delivered: u64,
    /// Window publish throughput, messages per simulated second.
    pub publishes_per_sec: f64,
    /// Window delivery throughput, deliveries per simulated second.
    pub deliveries_per_sec: f64,
}

#[cfg(test)]
mod tests {
    use super::{plan, ArrivalProcess};
    use egm_rng::Rng;
    use egm_simnet::{NodeId, SimTime};

    fn senders(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn poisson_hits_the_offered_rate() {
        let mut rng = Rng::seed_from_u64(7);
        let p = ArrivalProcess::Poisson { rate_per_sec: 40.0 };
        let s = plan(&p, &senders(3), 20_000, SimTime::ZERO, &mut rng);
        assert_eq!(s.len(), 20_000);
        let span_s = s.last().unwrap().at.as_ms() / 1000.0;
        let rate = 20_000.0 / span_s;
        assert!((rate - 40.0).abs() < 1.0, "measured rate {rate}");
        // Round-robin sources, dense seqs, non-decreasing times.
        let mut last = SimTime::ZERO;
        for (i, p) in s.iter().enumerate() {
            assert_eq!(p.seq, i as u64);
            assert_eq!(p.source, NodeId(i % 3));
            assert!(p.at >= last);
            last = p.at;
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 25.0 };
        let mut a = Rng::seed_from_u64(11);
        let mut b = Rng::seed_from_u64(11);
        let sa = plan(&p, &senders(5), 500, SimTime::from_ms(100.0), &mut a);
        let sb = plan(&p, &senders(5), 500, SimTime::from_ms(100.0), &mut b);
        assert_eq!(sa, sb);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn malformed_rate_panics() {
        let mut rng = Rng::seed_from_u64(14);
        let p = ArrivalProcess::Poisson { rate_per_sec: 0.0 };
        let _ = plan(&p, &senders(1), 1, SimTime::ZERO, &mut rng);
    }
}
