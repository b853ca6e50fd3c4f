//! Planar geometry for pseudo-geographical placement.

/// A point on the pseudo-geographical plane.
///
/// Units are abstract "map units"; the generator converts distances to
/// milliseconds through [`TransitStubConfig::ms_per_unit`].
///
/// [`TransitStubConfig::ms_per_unit`]: crate::TransitStubConfig
///
/// # Examples
///
/// ```
/// use egm_topology::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in map units.
    pub x: f64,
    /// Vertical coordinate in map units.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Clamps the point into the square `[0, size] × [0, size]`.
    pub fn clamped(self, size: f64) -> Point {
        Point {
            x: self.x.clamp(0.0, size),
            y: self.y.clamp(0.0, size),
        }
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::Point;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 7.5);
        assert_eq!(a.distance(b), b.distance(a));
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn distance_triangle_inequality() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let c = Point::new(5.0, 5.0);
        assert!(a.distance(b) <= a.distance(c) + c.distance(b) + 1e-12);
    }

    #[test]
    fn clamped_respects_bounds() {
        let p = Point::new(-5.0, 1500.0).clamped(1000.0);
        assert_eq!(p, Point::new(0.0, 1000.0));
        let q = Point::new(500.0, 500.0).clamped(1000.0);
        assert_eq!(q, Point::new(500.0, 500.0));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Point::new(1.25, 3.0).to_string(), "(1.2, 3.0)");
    }
}
