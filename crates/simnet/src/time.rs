//! Virtual time: microsecond-resolution instants and durations.

use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in microseconds since start.
///
/// # Examples
///
/// ```
/// use egm_simnet::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_ms(1.5);
/// assert_eq!(t.as_ms(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Constructs from milliseconds (fractions are rounded to the nearest
    /// microsecond).
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or non-finite.
    pub fn from_ms(ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "bad time {ms}ms");
        SimTime((ms * 1000.0).round() as u64)
    }

    /// Raw microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Constructs from milliseconds (rounded to the nearest microsecond).
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or non-finite.
    pub fn from_ms(ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "bad duration {ms}ms");
        SimDuration((ms * 1000.0).round() as u64)
    }

    /// Constructs from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Multiplies the duration by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor.is_finite() && factor >= 0.0, "bad factor {factor}");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::{SimDuration, SimTime};

    #[test]
    fn ms_round_trips() {
        assert_eq!(SimTime::from_ms(2.5).as_micros(), 2500);
        assert_eq!(SimTime::from_ms(2.5).as_ms(), 2.5);
        assert_eq!(SimDuration::from_ms(0.0004).as_micros(), 0);
        assert_eq!(SimDuration::from_secs(2).as_ms(), 2000.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ms(10.0) + SimDuration::from_ms(5.0);
        assert_eq!(t, SimTime::from_ms(15.0));
        assert_eq!(t - SimTime::from_ms(4.0), SimDuration::from_ms(11.0));
        // saturating subtraction
        assert_eq!(
            SimTime::from_ms(1.0) - SimTime::from_ms(9.0),
            SimDuration::ZERO
        );
        let mut u = SimTime::ZERO;
        u += SimDuration::from_ms(3.0);
        assert_eq!(u.as_ms(), 3.0);
        assert_eq!(
            SimDuration::from_ms(1.0) + SimDuration::from_ms(2.0),
            SimDuration::from_ms(3.0)
        );
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_ms(5.0);
        let late = SimTime::from_ms(8.0);
        assert_eq!(late.since(early).as_ms(), 3.0);
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(
            SimDuration::from_ms(10.0).mul_f64(0.25),
            SimDuration::from_ms(2.5)
        );
        assert_eq!(SimDuration::from_ms(10.0).mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "bad duration")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_ms(-1.0);
    }

    #[test]
    fn display_formats_ms() {
        assert_eq!(SimTime::from_ms(1.5).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_ms(0.25).to_string(), "0.250ms");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_ms(1.0) < SimTime::from_ms(2.0));
        assert!(SimDuration::from_ms(1.0) < SimDuration::from_ms(1.001));
    }
}
