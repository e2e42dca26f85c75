//! Univariate polynomials over [`crate::field::Fp`]: evaluation and Lagrange
//! interpolation, as needed by Shamir secret sharing.
//!
//! # Examples
//!
//! ```
//! use pba_crypto::field::Fp;
//! use pba_crypto::poly::Polynomial;
//!
//! // f(x) = 3 + 2x
//! let f = Polynomial::new(vec![Fp::new(3), Fp::new(2)]);
//! assert_eq!(f.eval(Fp::new(10)), Fp::new(23));
//! ```

use crate::field::{batch_inverse, Fp};
use crate::prg::Prg;

/// A polynomial stored by coefficients, lowest degree first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Polynomial {
    coeffs: Vec<Fp>,
}

impl Polynomial {
    /// Creates a polynomial from coefficients (constant term first).
    ///
    /// Trailing zero coefficients are retained as given; degree queries use
    /// the stored length.
    pub fn new(coeffs: Vec<Fp>) -> Self {
        assert!(
            !coeffs.is_empty(),
            "polynomial needs at least one coefficient"
        );
        Polynomial { coeffs }
    }

    /// Samples a uniformly random polynomial of the given `degree` with a
    /// fixed constant term `secret` — the Shamir sharing polynomial.
    pub fn random_with_constant(secret: Fp, degree: usize, prg: &mut Prg) -> Self {
        let mut coeffs = Vec::with_capacity(degree + 1);
        coeffs.push(secret);
        for _ in 0..degree {
            coeffs.push(Fp::random(prg));
        }
        Polynomial { coeffs }
    }

    /// The coefficients, constant term first.
    pub fn coefficients(&self) -> &[Fp] {
        &self.coeffs
    }

    /// Degree bound (number of coefficients − 1).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Evaluates the polynomial at `x` (Horner's rule).
    pub fn eval(&self, x: Fp) -> Fp {
        let mut acc = Fp::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }
}

/// Lagrange-interpolates the unique degree `< points.len()` polynomial through
/// `points` and evaluates it at `x = 0` (secret reconstruction).
///
/// # Panics
///
/// Panics if `points` is empty or contains duplicate x-coordinates.
pub fn interpolate_at_zero(points: &[(Fp, Fp)]) -> Fp {
    interpolate_at(points, Fp::ZERO)
}

/// Lagrange-interpolates and evaluates at an arbitrary `x`. The
/// `points.len()` basis denominators share one field inversion
/// ([`batch_inverse`]).
///
/// # Panics
///
/// Panics if `points` is empty or contains duplicate x-coordinates.
pub fn interpolate_at(points: &[(Fp, Fp)], x: Fp) -> Fp {
    assert!(!points.is_empty(), "interpolation needs at least one point");
    let mut nums = Vec::with_capacity(points.len());
    let mut dens = Vec::with_capacity(points.len());
    for (i, &(xi, _)) in points.iter().enumerate() {
        let mut num = Fp::ONE;
        let mut den = Fp::ONE;
        for (j, &(xj, _)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            assert!(xi != xj, "duplicate x-coordinate in interpolation");
            num *= x - xj;
            den *= xi - xj;
        }
        nums.push(num);
        dens.push(den);
    }
    batch_inverse(&mut dens);
    points
        .iter()
        .zip(nums)
        .zip(dens)
        .map(|((&(_, yi), num), den_inv)| yi * num * den_inv)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_constant_and_linear() {
        let c = Polynomial::new(vec![Fp::new(42)]);
        assert_eq!(c.eval(Fp::new(999)), Fp::new(42));
        let f = Polynomial::new(vec![Fp::new(1), Fp::new(2), Fp::new(3)]); // 1+2x+3x^2
        assert_eq!(f.eval(Fp::new(2)), Fp::new(1 + 4 + 12));
    }

    #[test]
    fn interpolation_recovers_polynomial() {
        let mut prg = Prg::from_seed_bytes(b"poly");
        for degree in 0..6 {
            let f = Polynomial::random_with_constant(Fp::new(777), degree, &mut prg);
            let points: Vec<(Fp, Fp)> = (1..=degree as u64 + 1)
                .map(|x| (Fp::new(x), f.eval(Fp::new(x))))
                .collect();
            assert_eq!(interpolate_at_zero(&points), Fp::new(777), "deg={degree}");
            // Also check an off-zero evaluation point.
            assert_eq!(interpolate_at(&points, Fp::new(100)), f.eval(Fp::new(100)));
        }
    }

    #[test]
    fn interpolation_with_extra_points_still_exact() {
        let mut prg = Prg::from_seed_bytes(b"extra");
        let f = Polynomial::random_with_constant(Fp::new(5), 3, &mut prg);
        let points: Vec<(Fp, Fp)> = (1..=7u64)
            .map(|x| (Fp::new(x), f.eval(Fp::new(x))))
            .collect();
        assert_eq!(interpolate_at_zero(&points), Fp::new(5));
    }

    #[test]
    fn too_few_points_give_wrong_secret_generically() {
        let mut prg = Prg::from_seed_bytes(b"few");
        let f = Polynomial::random_with_constant(Fp::new(123456), 4, &mut prg);
        let points: Vec<(Fp, Fp)> = (1..=4u64)
            .map(|x| (Fp::new(x), f.eval(Fp::new(x))))
            .collect();
        // Degree-4 polynomial from 4 points: interpolation yields the wrong
        // constant with overwhelming probability over the random coefficients.
        assert_ne!(interpolate_at_zero(&points), Fp::new(123456));
    }

    #[test]
    #[should_panic(expected = "duplicate x-coordinate")]
    fn duplicate_x_panics() {
        interpolate_at_zero(&[(Fp::new(1), Fp::new(2)), (Fp::new(1), Fp::new(3))]);
    }

    #[test]
    fn random_with_constant_sets_constant() {
        let mut prg = Prg::from_seed_bytes(b"const");
        let f = Polynomial::random_with_constant(Fp::new(9), 5, &mut prg);
        assert_eq!(f.eval(Fp::ZERO), Fp::new(9));
        assert_eq!(f.degree(), 5);
    }
}
