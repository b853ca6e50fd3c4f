//! Heavy-traffic arrival processes: the workload axis that drives
//! publishes from a deterministic arrival-process generator instead of
//! the fixed uniform-gap plan in [`crate::traffic`].
//!
//! Two modes:
//!
//! - **Open loop** ([`Arrival::Open`]): the offered rate is fixed by an
//!   [`ArrivalProcess`]; publishes are scheduled up front as simulator
//!   commands regardless of how the protocol keeps up. This is the
//!   heavy-traffic / saturation axis — the generator never backs off.
//! - **Closed loop** ([`Arrival::Closed`]): each publish is gated on the
//!   delivery of the previous message at the next publisher (round-robin
//!   ownership), plus a fixed think time. The offered rate adapts to the
//!   protocol's actual dissemination latency. Implemented node-side by
//!   [`egm_core::PublishChain`]; the runner seeds sequence 0 and lets the
//!   chain self-schedule the rest.
//!
//! Every generator draws from the harness RNG stream at the same call
//! position the uniform planner would, so runs are byte-identical across
//! shard widths, and a scenario with `arrival: None` replays
//! the historical uniform plan bit for bit.
//!
//! Warm-up: each process knows analytically when its offered rate
//! reaches steady state ([`ArrivalProcess::warmup_ms`] — zero for the
//! stationary processes, the ramp length for [`ArrivalProcess::Diurnal`]).
//! [`detect_warmup_ms`] recovers the same knee empirically from a
//! planned schedule, for workloads whose process is not known.

use crate::traffic::PlannedMulticast;
use egm_rng::Rng;
use egm_simnet::{NodeId, SimDuration, SimTime};

/// A deterministic open-loop arrival-process generator. All rates are
/// per *simulated* second; gaps are drawn from the harness RNG via
/// inverse-CDF sampling, so a process is a pure function of (spec, rng
/// position).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals: exponential gaps with mean
    /// `1000 / rate_per_sec` ms.
    Poisson {
        /// Offered rate in messages per simulated second.
        rate_per_sec: f64,
    },
    /// On/off bursty arrivals: a Poisson process at `rate_per_sec` runs
    /// during `on_ms` windows separated by silent `off_ms` gaps. The
    /// long-run average rate is `rate_per_sec × on / (on + off)`.
    ///
    /// Implemented by *active-time mapping*: arrivals are drawn in
    /// continuous active time and mapped onto the on-windows, so the
    /// number of RNG draws per message is exactly one (same as Poisson)
    /// and never depends on how many off-windows elapse.
    Bursty {
        /// Offered rate during an on-window, messages per second.
        rate_per_sec: f64,
        /// Length of each active window in ms.
        on_ms: f64,
        /// Length of each silent gap in ms.
        off_ms: f64,
    },
    /// Diurnal ramp: a non-homogeneous Poisson process whose rate climbs
    /// linearly from `low_rate` to `high_rate` over `ramp_ms`, then holds
    /// at `high_rate`. Sampled by exact inversion of the cumulative
    /// intensity Λ(t) (quadratic on the ramp, linear after), one
    /// unit-exponential draw per message.
    Diurnal {
        /// Initial offered rate, messages per second (must be > 0).
        low_rate: f64,
        /// Steady-state offered rate, messages per second.
        high_rate: f64,
        /// Ramp length in ms.
        ramp_ms: f64,
    },
}

impl ArrivalProcess {
    /// Milliseconds after traffic start until the offered rate is in
    /// steady state: zero for the stationary processes, the ramp length
    /// for [`ArrivalProcess::Diurnal`].
    pub fn warmup_ms(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { .. } | ArrivalProcess::Bursty { .. } => 0.0,
            ArrivalProcess::Diurnal { ramp_ms, .. } => *ramp_ms,
        }
    }

    /// The long-run offered rate in messages per simulated second.
    pub fn steady_rate_per_sec(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec,
            ArrivalProcess::Bursty {
                rate_per_sec,
                on_ms,
                off_ms,
            } => rate_per_sec * on_ms / (on_ms + off_ms),
            ArrivalProcess::Diurnal { high_rate, .. } => *high_rate,
        }
    }

    fn validate(&self) {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => {
                assert!(
                    rate_per_sec.is_finite() && rate_per_sec > 0.0,
                    "Poisson rate must be positive and finite"
                );
            }
            ArrivalProcess::Bursty {
                rate_per_sec,
                on_ms,
                off_ms,
            } => {
                assert!(
                    rate_per_sec.is_finite() && rate_per_sec > 0.0,
                    "burst rate must be positive and finite"
                );
                assert!(on_ms.is_finite() && on_ms > 0.0, "on window must be > 0");
                assert!(off_ms.is_finite() && off_ms >= 0.0, "off gap must be >= 0");
            }
            ArrivalProcess::Diurnal {
                low_rate,
                high_rate,
                ramp_ms,
            } => {
                assert!(
                    low_rate.is_finite() && low_rate > 0.0,
                    "diurnal low rate must be positive and finite"
                );
                assert!(
                    high_rate.is_finite() && high_rate > 0.0,
                    "diurnal high rate must be positive and finite"
                );
                assert!(ramp_ms.is_finite() && ramp_ms >= 0.0, "ramp must be >= 0");
            }
        }
    }

    /// The offset in ms (from traffic start) of the next arrival, given
    /// the generator's accumulated state `acc`:
    ///
    /// - Poisson: `acc` is wall time; one exponential gap is added.
    /// - Bursty: `acc` is *active* time; the return value maps it onto
    ///   the on-windows.
    /// - Diurnal: `acc` is cumulative intensity Λ; the return value is
    ///   the exact inverse Λ⁻¹(acc).
    fn next_offset_ms(&self, acc: &mut f64, rng: &mut Rng) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => {
                *acc += rng.exponential(1000.0 / rate_per_sec);
                *acc
            }
            ArrivalProcess::Bursty {
                rate_per_sec,
                on_ms,
                off_ms,
            } => {
                *acc += rng.exponential(1000.0 / rate_per_sec);
                let cycles = (*acc / on_ms).floor();
                cycles * (on_ms + off_ms) + (*acc - cycles * on_ms)
            }
            ArrivalProcess::Diurnal {
                low_rate,
                high_rate,
                ramp_ms,
            } => {
                // Unit-rate Poisson in Λ space, inverted exactly. Rates
                // in per-ms units.
                *acc += rng.exponential(1.0);
                let lo = low_rate / 1000.0;
                let hi = high_rate / 1000.0;
                let ramp_total = (lo + hi) * ramp_ms / 2.0;
                if ramp_ms == 0.0 || (hi - lo).abs() < f64::EPSILON * hi.max(lo) {
                    // Degenerate ramp: constant rate hi (or lo == hi).
                    return if *acc <= ramp_total {
                        *acc / lo.max(hi)
                    } else {
                        ramp_ms + (*acc - ramp_total) / hi
                    };
                }
                if *acc <= ramp_total {
                    // Solve (hi-lo)/(2·ramp)·t² + lo·t = acc for t ≥ 0.
                    let a = (hi - lo) / ramp_ms;
                    (-lo + (lo * lo + 2.0 * a * *acc).sqrt()) / a
                } else {
                    ramp_ms + (*acc - ramp_total) / hi
                }
            }
        }
    }
}

/// How publishes are driven when a scenario opts into the arrival axis
/// ([`crate::Scenario::arrival`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Open loop at a fixed offered rate: the schedule is planned up
    /// front from the process, exactly like the historical uniform plan
    /// but with process-shaped gaps.
    Open(ArrivalProcess),
    /// Closed loop: the round-robin owner of sequence `s + 1` publishes
    /// `think_ms` after *it* delivers sequence `s`. Requires a
    /// fault-free, churn-free scenario (a silenced publisher would stall
    /// the chain) — the runner asserts this.
    Closed {
        /// Fixed think time between a delivery and the next publish, ms.
        think_ms: f64,
    },
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
/// Panics if `senders` is empty or the process parameters are malformed
/// (non-finite or non-positive rates, negative windows).
pub fn plan(
    process: &ArrivalProcess,
    senders: &[NodeId],
    messages: usize,
    start: SimTime,
    rng: &mut Rng,
) -> Vec<PlannedMulticast> {
    assert!(!senders.is_empty(), "need at least one sender");
    process.validate();
    let mut out = Vec::with_capacity(messages);
    let mut acc = 0.0f64;
    for seq in 0..messages {
        let offset = process.next_offset_ms(&mut acc, rng);
        out.push(PlannedMulticast {
            seq: seq as u64,
            source: senders[seq % senders.len()],
            at: start + SimDuration::from_ms(offset),
        });
    }
    out
}

/// Empirically detects the warm-up knee of a planned schedule: the
/// offset in ms (from `start`) of the first `bin_ms` bin whose arrival
/// count reaches 80 % of the steady rate, where the steady rate is the
/// mean count over the last half of the bins. Returns `0.0` for
/// schedules that are flat from the first bin (stationary processes) and
/// the full span when no bin qualifies (monotone ramps that never
/// plateau within the schedule).
///
/// This is a measurement utility — the runner uses the analytic
/// [`ArrivalProcess::warmup_ms`] when the process is known — and it is
/// deterministic: a pure function of the schedule.
pub fn detect_warmup_ms(schedule: &[PlannedMulticast], start: SimTime, bin_ms: f64) -> f64 {
    assert!(bin_ms.is_finite() && bin_ms > 0.0, "bin must be > 0");
    let Some(last) = schedule.last() else {
        return 0.0;
    };
    let span = (last.at - start).as_ms();
    let bins = ((span / bin_ms).ceil() as usize).max(1);
    let mut counts = vec![0u64; bins];
    for p in schedule {
        let idx = (((p.at - start).as_ms() / bin_ms) as usize).min(bins - 1);
        counts[idx] += 1;
    }
    let tail = &counts[bins / 2..];
    let steady = tail.iter().sum::<u64>() as f64 / tail.len() as f64;
    for (i, &c) in counts.iter().enumerate() {
        if c as f64 >= 0.8 * steady {
            return i as f64 * bin_ms;
        }
    }
    span
}

/// Steady-state throughput block measured over one run's post-warm-up
/// window (see [`crate::runner::RunOutcome::steady`]). The window spans
/// from traffic start plus the process's analytic warm-up to the end of
/// the run (drain included), so the rates are mild underestimates of the
/// instantaneous steady rate — comparable across runs of one scenario
/// shape, which is what the sustained bench pins.
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
    use super::{detect_warmup_ms, plan, Arrival, ArrivalProcess};
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
    fn bursty_arrivals_only_land_in_on_windows() {
        let mut rng = Rng::seed_from_u64(8);
        let p = ArrivalProcess::Bursty {
            rate_per_sec: 200.0,
            on_ms: 100.0,
            off_ms: 400.0,
        };
        let s = plan(&p, &senders(2), 5_000, SimTime::ZERO, &mut rng);
        for m in &s {
            let phase = m.at.as_ms() % 500.0;
            assert!(
                phase <= 100.0 + 1e-9,
                "arrival at {} ms in off window",
                m.at.as_ms()
            );
        }
        // Long-run rate = 200 × 100/500 = 40/s.
        let span_s = s.last().unwrap().at.as_ms() / 1000.0;
        let rate = 5_000.0 / span_s;
        assert!((rate - 40.0).abs() < 2.0, "measured long-run rate {rate}");
    }

    #[test]
    fn diurnal_ramps_from_low_to_high() {
        let mut rng = Rng::seed_from_u64(9);
        let p = ArrivalProcess::Diurnal {
            low_rate: 5.0,
            high_rate: 100.0,
            ramp_ms: 10_000.0,
        };
        let s = plan(&p, &senders(4), 30_000, SimTime::ZERO, &mut rng);
        let count_in = |lo: f64, hi: f64| {
            s.iter()
                .filter(|m| m.at.as_ms() >= lo && m.at.as_ms() < hi)
                .count() as f64
        };
        // First second ≈ low rate (the ramp barely moves), a post-ramp
        // second ≈ high rate.
        let early = count_in(0.0, 1000.0);
        let late = count_in(15_000.0, 16_000.0);
        assert!(early < 20.0, "early rate {early}/s");
        assert!((late - 100.0).abs() < 25.0, "late rate {late}/s");
        assert_eq!(p.warmup_ms(), 10_000.0);
    }

    #[test]
    fn generators_are_deterministic() {
        for p in [
            ArrivalProcess::Poisson { rate_per_sec: 25.0 },
            ArrivalProcess::Bursty {
                rate_per_sec: 80.0,
                on_ms: 50.0,
                off_ms: 150.0,
            },
            ArrivalProcess::Diurnal {
                low_rate: 2.0,
                high_rate: 60.0,
                ramp_ms: 4_000.0,
            },
        ] {
            let mut a = Rng::seed_from_u64(11);
            let mut b = Rng::seed_from_u64(11);
            let sa = plan(&p, &senders(5), 500, SimTime::from_ms(100.0), &mut a);
            let sb = plan(&p, &senders(5), 500, SimTime::from_ms(100.0), &mut b);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn detect_warmup_finds_the_diurnal_knee() {
        let mut rng = Rng::seed_from_u64(12);
        let p = ArrivalProcess::Diurnal {
            low_rate: 10.0,
            high_rate: 100.0,
            ramp_ms: 20_000.0,
        };
        let s = plan(&p, &senders(2), 40_000, SimTime::ZERO, &mut rng);
        let detected = detect_warmup_ms(&s, SimTime::ZERO, 1000.0);
        // The 80 %-of-steady threshold is crossed at
        // (0.8·hi − lo)/(hi − lo) ≈ 0.78 of the ramp.
        assert!(
            detected > 0.4 * 20_000.0 && detected < 1.1 * 20_000.0,
            "detected warm-up {detected} ms for a 20 s ramp"
        );
    }

    #[test]
    fn detect_warmup_is_zero_for_stationary_processes() {
        let mut rng = Rng::seed_from_u64(13);
        let p = ArrivalProcess::Poisson { rate_per_sec: 50.0 };
        let s = plan(&p, &senders(2), 10_000, SimTime::ZERO, &mut rng);
        assert_eq!(detect_warmup_ms(&s, SimTime::ZERO, 1000.0), 0.0);
    }

    #[test]
    fn steady_rate_accounts_for_duty_cycle() {
        let p = ArrivalProcess::Bursty {
            rate_per_sec: 100.0,
            on_ms: 100.0,
            off_ms: 300.0,
        };
        assert_eq!(p.steady_rate_per_sec(), 25.0);
        let open = Arrival::Open(p);
        assert_eq!(open, open.clone());
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn malformed_rate_panics() {
        let mut rng = Rng::seed_from_u64(14);
        let p = ArrivalProcess::Poisson { rate_per_sec: 0.0 };
        let _ = plan(&p, &senders(1), 1, SimTime::ZERO, &mut rng);
    }
}
