//! Equal-width angle bins, with an `atan2`-free fast path.
//!
//! Three places bin a direction by angle with the same expression: the
//! range image's rows and columns, the blind-sector scan and the
//! consistency guard's azimuth index. [`AngleBins::bin`] is that
//! expression. [`AngleBins::classify`] bins an approximate angle from
//! [`atan2_approx`] and answers only when the answer cannot differ from
//! [`AngleBins::bin`] on libm's `atan2`, so callers take the exact path
//! only for the few points that sit near a bin edge.

use std::f64::consts::{FRAC_PI_2, PI};

/// Coefficients of Abramowitz & Stegun 4.4.49: `atan a ≈ a·Σ cₖ·a²ᵏ` on
/// `[0, 1]`, with a truncation error of at most 2e-8.
const ATAN_COEFFS: [f64; 9] = [
    1.0,
    -0.333_331_452_8,
    0.199_935_508_5,
    -0.142_088_994_4,
    0.106_562_639_3,
    -0.075_289_640_0,
    0.042_909_613_8,
    -0.016_165_736_7,
    0.002_866_225_7,
];

/// A bound, in radians, on `|atan2_approx(y, x) − atan2(y, x)|` plus
/// libm's own `atan2` error, for finite arguments.
///
/// The budget: A&S 4.4.49 truncates at 2e-8 (a sweep of 2²⁶ points of
/// `[0, 1]` measures 1.36e-8), the quotient `a` is rounded by at most
/// one ulp and `atan` has slope at most 1, and Estrin's scheme, the
/// reflections and the constants add a few ulps of `π`; libm's `atan2`
/// is within one ulp (4.4e-16). That sums to under 2.1e-8. The bound
/// is set almost fifty times wider: a wider bound only widens the margin
/// of [`AngleBins::classify`], which sends a few more points to the
/// exact path.
pub const ATAN2_APPROX_ERROR: f64 = 1e-6;

/// `atan(a)` for `a` in `[0, 1]` (A&S 4.4.49 by Estrin's scheme).
#[inline]
fn atan_unit(a: f64) -> f64 {
    let c = &ATAN_COEFFS;
    let s = a * a;
    let s2 = s * s;
    let s4 = s2 * s2;
    let s8 = s4 * s4;
    let q0 = (c[0] + c[1] * s) + (c[2] + c[3] * s) * s2;
    let q1 = (c[4] + c[5] * s) + (c[6] + c[7] * s) * s2;
    a * (q0 + q1 * s4 + c[8] * s8)
}

/// An approximation of `y.atan2(x)` within [`ATAN2_APPROX_ERROR`] of
/// it, or NaN.
///
/// Branch-free: the octant reduction uses selects, not `f64::min` and
/// `f64::max`, which would return the non-NaN operand and so turn a NaN
/// coordinate into a finite angle. The result is NaN whenever either
/// argument is NaN, both are zero or both are infinite; those are the
/// cases the exact path must decide.
///
/// # Examples
///
/// ```
/// use cooper_geometry::{atan2_approx, ATAN2_APPROX_ERROR};
///
/// let (y, x) = (-0.3, -2.0);
/// assert!((atan2_approx(y, x) - y.atan2(x)).abs() < ATAN2_APPROX_ERROR);
/// assert!(atan2_approx(0.0, 0.0).is_nan());
/// assert!(atan2_approx(f64::NAN, 1.0).is_nan());
/// ```
#[inline]
pub fn atan2_approx(y: f64, x: f64) -> f64 {
    let (ax, ay) = (x.abs(), y.abs());
    let steep = ay > ax;
    let (num, den) = if steep { (ax, ay) } else { (ay, ax) };
    let r = atan_unit(num / den);
    let r = if steep { FRAC_PI_2 - r } else { r };
    let r = if x < 0.0 { PI - r } else { r };
    r.copysign(y)
}

/// What an approximate angle says about its bin; see
/// [`AngleBins::classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApproxBin {
    /// The exact bin is this one.
    Inside(usize),
    /// The exact angle lies outside `[min, max]`.
    Outside,
    /// Too close to a bin edge or a range end to tell, or NaN: ask the
    /// exact path.
    NearEdge,
}

/// `count` equal bins over the closed angle range `[min, max]`.
///
/// # Examples
///
/// ```
/// use cooper_geometry::{atan2_approx, AngleBins, ApproxBin};
///
/// let bins = AngleBins::full_circle(8);
/// assert_eq!(bins.bin(0.1), Some(4));
/// assert_eq!(bins.classify(atan2_approx(0.1, 1.0)), ApproxBin::Inside(4));
/// assert_eq!(bins.bin_of(0.1, 1.0), Some(4));
/// // On an edge the approximation cannot decide.
/// assert_eq!(bins.classify(0.0), ApproxBin::NearEdge);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AngleBins {
    min: f64,
    max: f64,
    count: usize,
    /// `count / (max − min)`: bins per radian.
    scale: f64,
    /// Half-width, in bins, of the band around every edge in which
    /// [`AngleBins::classify`] defers to the exact path.
    margin: f64,
}

impl AngleBins {
    /// `count` bins over `[min, max]`. The caller validates the range:
    /// `min < max`, both finite, and `count > 0`.
    pub fn new(min: f64, max: f64, count: usize) -> Self {
        let scale = count as f64 / (max - min);
        AngleBins {
            min,
            max,
            count,
            scale,
            margin: 2.0 * scale * ATAN2_APPROX_ERROR + (count as f64 + 1.0) * 1e-14,
        }
    }

    /// `count` bins over `[−π, π]`, the range of `atan2`. Because
    /// `π − (−π)` is exactly `τ`, the bin expression is
    /// `((a + π) / τ · count) as usize`, clamped to `count − 1`.
    pub fn full_circle(count: usize) -> Self {
        AngleBins::new(-PI, PI, count)
    }

    /// The exact bin of `angle`: `((angle − min) / (max − min) · count)
    /// as usize`, clamped to `count − 1`, or `None` when `angle` lies
    /// outside `[min, max]`. A NaN angle bins to 0.
    #[inline]
    pub fn bin(&self, angle: f64) -> Option<usize> {
        if angle < self.min || angle > self.max {
            return None;
        }
        let t = (angle - self.min) / (self.max - self.min) * self.count as f64;
        Some((t as usize).min(self.count - 1))
    }

    /// [`AngleBins::bin`] of `y.atan2(x)`, calling `atan2` only when the
    /// approximation lands near an edge.
    #[inline]
    pub fn bin_of(&self, y: f64, x: f64) -> Option<usize> {
        match self.classify(atan2_approx(y, x)) {
            ApproxBin::Inside(bin) => Some(bin),
            ApproxBin::Outside => None,
            ApproxBin::NearEdge => self.bin(y.atan2(x)),
        }
    }

    /// Bins `approx`, an [`atan2_approx`] value, when that provably gives
    /// what [`AngleBins::bin`] gives on libm's `atan2` of the same
    /// arguments.
    ///
    /// Let `T(θ) = (θ − min) · count / (max − min)` in real arithmetic,
    /// and `E` = [`ATAN2_APPROX_ERROR`]. The fast value `t = (approx −
    /// min) · scale` and the exact path's value each differ from `T` of
    /// their own angle by at most 5 roundings relative to `T` (one
    /// subtraction, the division or the product, and `scale`'s own
    /// division), so by at most `5u·(count + 1)` with `u = 2⁻⁵³` while
    /// `t` lies in `[0, count]`. The two angles differ by at most `E`,
    /// which moves `T` by at most `scale · E`. So the exact value lies
    /// within `scale·E + 10u·(count + 1)` of `t`, and the margin
    /// `2·scale·E + 1e-14·(count + 1)` is wider than that.
    ///
    /// The bin expression is monotone in the angle, so the bin changes
    /// only at the edges `t = 0, 1, …, count`. When `t` is more than the
    /// margin from every one of them, the exact value is strictly
    /// between the same two edges: the exact angle lies inside the range
    /// and truncates to the same bin. When `t` is more than the margin
    /// below 0 or above `count`, the exact angle lies outside the range.
    /// Everything else, NaN included, is [`ApproxBin::NearEdge`].
    #[inline]
    pub fn classify(&self, approx: f64) -> ApproxBin {
        let t = (approx - self.min) * self.scale;
        // Saturating: negative and NaN `t` give 0, and then `frac` fails.
        let bin = t as usize;
        let frac = t - bin as f64;
        if frac > self.margin && frac < 1.0 - self.margin && bin < self.count {
            ApproxBin::Inside(bin)
        } else if t < -self.margin || t > self.count as f64 + self.margin {
            ApproxBin::Outside
        } else {
            ApproxBin::NearEdge
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polynomial_error_is_well_inside_the_bound() {
        let n = 1u32 << 20;
        let worst = (0..=n)
            .map(|i| {
                let a = f64::from(i) / f64::from(n);
                (atan_unit(a) - a.atan()).abs()
            })
            .fold(0.0, f64::max);
        assert!(worst < 2e-8, "A&S 4.4.49 error {worst:e}");
        assert!(worst * 10.0 < ATAN2_APPROX_ERROR);
    }

    #[test]
    fn approx_tracks_libm_around_the_circle() {
        for i in 0..20_000 {
            let t = -PI + (f64::from(i) + 0.5) / 20_000.0 * std::f64::consts::TAU;
            for r in [1e-300, 1e-3, 1.0, 40.0, 1e5, 1e300] {
                let (y, x) = (r * t.sin(), r * t.cos());
                let err = (atan2_approx(y, x) - y.atan2(x)).abs();
                assert!(err < 2.1e-8, "({y}, {x}): {err:e}");
            }
        }
    }

    #[test]
    fn approx_is_nan_exactly_where_the_exact_path_decides() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        for (y, x) in [
            (nan, 1.0),
            (1.0, nan),
            (0.0, 1.0 / inf),
            (-0.0, -0.0),
            (inf, -inf),
        ] {
            assert!(atan2_approx(y, x).is_nan(), "({y}, {x})");
        }
        // One infinite argument is exact.
        assert_eq!(atan2_approx(1.0, inf), 0.0);
        assert_eq!(atan2_approx(-1.0, inf).to_bits(), (-0.0f64).to_bits());
        assert_eq!(atan2_approx(1.0, -inf), PI);
        assert_eq!(atan2_approx(-inf, 3.0), -FRAC_PI_2);
    }

    #[test]
    fn edges_and_range_ends_defer() {
        let bins = AngleBins::new(-0.5, 0.5, 10);
        for k in 0..=10 {
            let edge = -0.5 + f64::from(k) * 0.1;
            assert_eq!(bins.classify(edge), ApproxBin::NearEdge, "edge {k}");
        }
        assert_eq!(bins.classify(f64::NAN), ApproxBin::NearEdge);
        assert_eq!(bins.classify(-0.6), ApproxBin::Outside);
        assert_eq!(bins.classify(0.6), ApproxBin::Outside);
        assert_eq!(bins.classify(f64::INFINITY), ApproxBin::Outside);
        assert_eq!(bins.classify(-0.45), ApproxBin::Inside(0));
        assert_eq!(bins.classify(0.45), ApproxBin::Inside(9));
        assert_eq!(bins.bin(0.5), Some(9));
        assert_eq!(bins.bin(0.51), None);
        assert_eq!(bins.bin(f64::NAN), Some(0));
    }

    #[test]
    fn full_circle_bin_is_the_atan2_expression() {
        for n in [1usize, 7, 72, 360, 900] {
            let bins = AngleBins::full_circle(n);
            for i in 0..5_000 {
                let a = -PI + f64::from(i) * (std::f64::consts::TAU / 4_999.0);
                let old = (((a + PI) / std::f64::consts::TAU * n as f64) as usize).min(n - 1);
                assert_eq!(bins.bin(a), Some(old), "n {n}, angle {a}");
            }
        }
    }

    #[test]
    fn bin_of_matches_exact_near_every_edge() {
        for (min, max, n) in [(-PI, PI, 900), (-0.26, 0.26, 16), (-1.2, 2.3, 333)] {
            let bins = AngleBins::new(min, max, n);
            for k in 0..=n {
                let edge = min + k as f64 / n as f64 * (max - min);
                for d in [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6] {
                    let a = edge + d;
                    for r in [1e-3, 1.0, 1e5] {
                        let (y, x) = (r * a.sin(), r * a.cos());
                        assert_eq!(bins.bin_of(y, x), bins.bin(y.atan2(x)), "{a} at {r}");
                    }
                }
            }
        }
    }
}
