//! 3×3 matrices and the paper's basic rotation matrices (Equation 1).

use std::fmt;
use std::ops::{Add, Mul, Sub};

use serde::{Deserialize, Serialize};

use crate::Vec3;

/// A row-major 3×3 matrix.
///
/// The Cooper paper builds its alignment rotation from the three basic
/// rotation matrices (its Equation 1):
///
/// ```text
/// R = Rz(α) · Ry(β) · Rx(γ)
/// ```
///
/// where α, β, γ are the yaw, pitch and roll read from the vehicle IMU.
/// [`Mat3::rotation_z`], [`Mat3::rotation_y`] and [`Mat3::rotation_x`]
/// are verbatim implementations of those matrices.
///
/// # Examples
///
/// ```
/// use cooper_geometry::{Mat3, Vec3};
///
/// // Rotating +x by 90° about z yields +y.
/// let r = Mat3::rotation_z(std::f64::consts::FRAC_PI_2);
/// let v = r * Vec3::X;
/// assert!((v - Vec3::Y).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat3 {
    /// Row-major entries: `m[row][col]`.
    m: [[f64; 3]; 3],
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Creates a matrix from row-major entries.
    #[inline]
    pub const fn from_rows(m: [[f64; 3]; 3]) -> Self {
        Mat3 { m }
    }

    /// Basic rotation about the z-axis by `alpha` radians (yaw).
    ///
    /// This is the paper's `Rz(α)`.
    pub fn rotation_z(alpha: f64) -> Self {
        let (s, c) = alpha.sin_cos();
        Mat3::from_rows([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    }

    /// Basic rotation about the y-axis by `beta` radians (pitch).
    ///
    /// This is the paper's `Ry(β)`.
    pub fn rotation_y(beta: f64) -> Self {
        let (s, c) = beta.sin_cos();
        Mat3::from_rows([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    }

    /// Basic rotation about the x-axis by `gamma` radians (roll).
    ///
    /// This is the paper's `Rx(γ)`.
    pub fn rotation_x(gamma: f64) -> Self {
        let (s, c) = gamma.sin_cos();
        Mat3::from_rows([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    }

    /// The paper's Equation 1: `R = Rz(α)·Ry(β)·Rx(γ)` for yaw `α`,
    /// pitch `β` and roll `γ` (radians).
    pub fn from_yaw_pitch_roll(alpha: f64, beta: f64, gamma: f64) -> Self {
        Mat3::rotation_z(alpha) * Mat3::rotation_y(beta) * Mat3::rotation_x(gamma)
    }

    /// Returns entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= 3` or `col >= 3`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f64 {
        self.m[row][col]
    }

    /// Returns row `r` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 3`.
    #[inline]
    pub fn row(&self, r: usize) -> Vec3 {
        Vec3::new(self.m[r][0], self.m[r][1], self.m[r][2])
    }

    /// Returns column `c` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= 3`.
    #[inline]
    pub fn column(&self, c: usize) -> Vec3 {
        Vec3::new(self.m[0][c], self.m[1][c], self.m[2][c])
    }

    /// Matrix transpose. For a rotation matrix this equals the inverse.
    pub fn transpose(&self) -> Mat3 {
        Mat3::from_rows([
            [self.m[0][0], self.m[1][0], self.m[2][0]],
            [self.m[0][1], self.m[1][1], self.m[2][1]],
            [self.m[0][2], self.m[1][2], self.m[2][2]],
        ])
    }

    /// Determinant.
    pub fn determinant(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// `true` when the matrix is orthonormal with determinant +1, i.e. a
    /// proper rotation, to within `tol`.
    pub fn is_rotation(&self, tol: f64) -> bool {
        let should_be_identity = *self * self.transpose();
        let mut max_dev: f64 = 0.0;
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 } else { 0.0 };
                max_dev = max_dev.max((should_be_identity.m[r][c] - expect).abs());
            }
        }
        max_dev <= tol && (self.determinant() - 1.0).abs() <= tol
    }

    /// Extracts `(yaw, pitch, roll)` assuming this matrix was produced by
    /// [`Mat3::from_yaw_pitch_roll`]. Pitch is returned in `[-π/2, π/2]`.
    pub fn to_yaw_pitch_roll(&self) -> (f64, f64, f64) {
        // R = Rz(a)Ry(b)Rx(g):
        //   m[2][0] = -sin(b)
        //   m[2][1] = cos(b) sin(g),  m[2][2] = cos(b) cos(g)
        //   m[1][0] = sin(a) cos(b),  m[0][0] = cos(a) cos(b)
        let sb = -self.m[2][0];
        let beta = sb.clamp(-1.0, 1.0).asin();
        let cb = beta.cos();
        if cb.abs() < 1e-9 {
            // Gimbal lock: yaw and roll are degenerate; put everything in yaw.
            let alpha = (-self.m[0][1]).atan2(self.m[1][1]);
            (alpha, beta, 0.0)
        } else {
            let gamma = self.m[2][1].atan2(self.m[2][2]);
            let alpha = self.m[1][0].atan2(self.m[0][0]);
            (alpha, beta, gamma)
        }
    }
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::IDENTITY
    }
}

impl fmt::Display for Mat3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..3 {
            writeln!(
                f,
                "[{:+.4} {:+.4} {:+.4}]",
                self.m[r][0], self.m[r][1], self.m[r][2]
            )?;
        }
        Ok(())
    }
}

impl Mul for Mat3 {
    type Output = Mat3;

    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut out = [[0.0; 3]; 3];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = (0..3).map(|k| self.m[r][k] * rhs.m[k][c]).sum();
            }
        }
        Mat3::from_rows(out)
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;

    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Add for Mat3 {
    type Output = Mat3;

    fn add(self, rhs: Mat3) -> Mat3 {
        let mut out = [[0.0; 3]; 3];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = self.m[r][c] + rhs.m[r][c];
            }
        }
        Mat3::from_rows(out)
    }
}

impl Sub for Mat3 {
    type Output = Mat3;

    fn sub(self, rhs: Mat3) -> Mat3 {
        let mut out = [[0.0; 3]; 3];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = self.m[r][c] - rhs.m[r][c];
            }
        }
        Mat3::from_rows(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    fn assert_vec_close(a: Vec3, b: Vec3) {
        assert!((a - b).norm() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn identity_is_noop() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Mat3::IDENTITY * v, v);
        assert_eq!(Mat3::default(), Mat3::IDENTITY);
    }

    #[test]
    fn rotation_z_quarter_turn() {
        let r = Mat3::rotation_z(FRAC_PI_2);
        assert_vec_close(r * Vec3::X, Vec3::Y);
        assert_vec_close(r * Vec3::Y, -Vec3::X);
        assert_vec_close(r * Vec3::Z, Vec3::Z);
    }

    #[test]
    fn rotation_y_quarter_turn() {
        let r = Mat3::rotation_y(FRAC_PI_2);
        assert_vec_close(r * Vec3::X, -Vec3::Z);
        assert_vec_close(r * Vec3::Z, Vec3::X);
        assert_vec_close(r * Vec3::Y, Vec3::Y);
    }

    #[test]
    fn rotation_x_quarter_turn() {
        let r = Mat3::rotation_x(FRAC_PI_2);
        assert_vec_close(r * Vec3::Y, Vec3::Z);
        assert_vec_close(r * Vec3::Z, -Vec3::Y);
        assert_vec_close(r * Vec3::X, Vec3::X);
    }

    #[test]
    fn equation_one_composition_order() {
        // Equation 1 applies roll first, then pitch, then yaw.
        let r = Mat3::from_yaw_pitch_roll(0.3, 0.2, 0.1);
        let manual = Mat3::rotation_z(0.3) * Mat3::rotation_y(0.2) * Mat3::rotation_x(0.1);
        for row in 0..3 {
            for col in 0..3 {
                assert!((r.at(row, col) - manual.at(row, col)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn rotations_are_proper() {
        for &(a, b, g) in &[
            (0.0, 0.0, 0.0),
            (FRAC_PI_4, 0.1, -0.2),
            (PI - 0.1, -1.0, 2.5),
            (-2.0, 1.2, -3.0),
        ] {
            let r = Mat3::from_yaw_pitch_roll(a, b, g);
            assert!(r.is_rotation(1e-12), "not a rotation for ({a},{b},{g})");
        }
    }

    #[test]
    fn transpose_is_inverse_for_rotations() {
        let r = Mat3::from_yaw_pitch_roll(1.0, -0.5, 0.25);
        let prod = r * r.transpose();
        assert!(prod.is_rotation(1e-12));
        let v = Vec3::new(4.0, -1.0, 2.0);
        assert_vec_close(r.transpose() * (r * v), v);
    }

    #[test]
    fn determinant_of_rotation_is_one() {
        let r = Mat3::from_yaw_pitch_roll(0.7, 0.3, -0.9);
        assert!((r.determinant() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn yaw_pitch_roll_round_trip() {
        for &(a, b, g) in &[
            (0.0, 0.0, 0.0),
            (0.5, 0.25, -0.125),
            (-2.8, 1.2, 3.0),
            (3.0, -1.4, -2.9),
        ] {
            let r = Mat3::from_yaw_pitch_roll(a, b, g);
            let (a2, b2, g2) = r.to_yaw_pitch_roll();
            let r2 = Mat3::from_yaw_pitch_roll(a2, b2, g2);
            // Angles may differ by 2π equivalences but the matrix must match.
            for row in 0..3 {
                for col in 0..3 {
                    assert!(
                        (r.at(row, col) - r2.at(row, col)).abs() < 1e-9,
                        "round trip failed for ({a},{b},{g})"
                    );
                }
            }
        }
    }

    #[test]
    fn rows_and_columns() {
        let m = Mat3::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        assert_eq!(m.row(1), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(m.column(2), Vec3::new(3.0, 6.0, 9.0));
    }

    #[test]
    fn add_sub_matrices() {
        let a = Mat3::IDENTITY;
        let z = a - a;
        assert_eq!(z.determinant(), 0.0);
        assert_eq!(a + z, a);
    }

    #[test]
    fn non_rotation_detected() {
        let scaled = Mat3::from_rows([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
        assert!(!scaled.is_rotation(1e-9));
        // A reflection has determinant -1.
        let reflect = Mat3::from_rows([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
        assert!(!reflect.is_rotation(1e-9));
    }
}
