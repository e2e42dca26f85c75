//! Reed–Solomon decoding over `F_{2^61−1}`: recovers a degree-`< k`
//! polynomial from `m` evaluations of which up to `e` are adversarially
//! wrong, whenever `m ≥ k + 2e`.
//!
//! This is the error-corrected share reconstruction that makes the
//! committee coin toss robust: with a `2/3`-honest committee of size `c`
//! and sharing threshold `t = ⌊(c−1)/3⌋`, every dealer's secret is
//! recoverable from the echoed shares even when all `t` corrupt members
//! contribute garbage — the classic `c ≥ 3t + 1` regime.
//!
//! # Which decoder runs
//!
//! One contract: *the degree-`< k` polynomial within Hamming distance `e`
//! of the word, or [`RsError::TooManyErrors`]*. The answer is unique — two
//! such polynomials would agree on at least `m − 2e ≥ k` points and so be
//! equal — which is why any complete decoder returns the same
//! coefficients. A [`Decoder`] is built once per evaluation set and then
//! decodes any number of words over it:
//!
//! * **build** — the Lagrange basis of the first `k` points as a `k × k`
//!   coefficient table, and its values at the other `m − k` points as an
//!   `(m − k) × k` parity table; all denominators share one field
//!   inversion ([`batch_inverse`]). `O(m·k)` multiplications.
//! * **clean word** — `m − k` parity dot-products count the points the
//!   interpolant through the first `k` values misses; if that is `≤ e` the
//!   interpolant *is* the answer and one `k × k` mat-vec yields its
//!   coefficients. `O(m·k)`; an honest word always ends here.
//! * **dirty word** — Gao's decoder: interpolate all `m` points (`g₁`),
//!   run the extended Euclidean algorithm on `g₀ = ∏ (x − xᵢ)` and `g₁`
//!   until the remainder drops below degree `(m + k)/2`, and divide the
//!   remainder by its `g₁`-cofactor. `O(m²)`. Gao corrects up to
//!   `⌊(m − k)/2⌋ ≥ e` errors, so its candidate is re-checked with the
//!   same `wrong ≤ e` test before it is accepted. The `g₀` and weight
//!   tables of this path are built by the first word that needs them.
//!
//! The Berlekamp–Welch search this replaces (error counts `e, e − 1, …, 0`,
//! one Gaussian elimination each, singular whenever fewer shares are wrong
//! than guessed — so an honest word cost the most) is kept verbatim as the
//! oracle of `tests/proptest_crypto.rs::decoder_matches_berlekamp_welch`.
//!
//! # Examples
//!
//! ```
//! use pba_crypto::field::Fp;
//! use pba_crypto::poly::Polynomial;
//! use pba_crypto::reed_solomon::decode;
//!
//! // Degree-1 polynomial, 5 shares, 1 corrupted.
//! let f = Polynomial::new(vec![Fp::new(42), Fp::new(7)]);
//! let mut points: Vec<(Fp, Fp)> = (1..=5u64)
//!     .map(|x| (Fp::new(x), f.eval(Fp::new(x))))
//!     .collect();
//! points[2].1 = Fp::new(999_999); // corruption
//! let recovered = decode(&points, 2, 1).expect("decodable");
//! assert_eq!(recovered.eval(Fp::ZERO), Fp::new(42));
//! ```

use crate::field::{batch_inverse, Fp};
use crate::poly::Polynomial;
use std::fmt;
use std::sync::OnceLock;

/// Errors from Reed–Solomon decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RsError {
    /// Fewer than `k + 2e` points were supplied.
    NotEnoughPoints {
        /// Points supplied.
        have: usize,
        /// Points required.
        need: usize,
    },
    /// Two points share an x-coordinate.
    DuplicateX,
    /// No codeword lies within distance `e` of the word — more than `e`
    /// errors.
    TooManyErrors,
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::NotEnoughPoints { have, need } => {
                write!(f, "need {need} points to decode, have {have}")
            }
            RsError::DuplicateX => f.write_str("duplicate x-coordinate"),
            RsError::TooManyErrors => f.write_str("more errors than the code can correct"),
        }
    }
}

impl std::error::Error for RsError {}

/// Coefficients of the monic `∏ (x − r)` over `roots`, constant term first.
fn vanishing(roots: &[Fp]) -> Vec<Fp> {
    let mut p = Vec::with_capacity(roots.len() + 1);
    p.push(Fp::ONE);
    for &r in roots {
        // p ← p · (x − r)
        p.push(Fp::ZERO);
        for d in (1..p.len()).rev() {
            p[d] = p[d - 1] - r * p[d];
        }
        p[0] = -(r * p[0]);
    }
    p
}

/// The Lagrange denominators `∏_{j ≠ i} (xᵢ − xⱼ)` of `xs`, one per point.
fn denominators(xs: &[Fp]) -> Vec<Fp> {
    xs.iter()
        .enumerate()
        .map(|(i, &xi)| {
            xs.iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &xj)| xi - xj)
                .product()
        })
        .collect()
}

/// Adds `scale · p / (x − r)` into `out`, for a root `r` of the monic `p`
/// of degree `out.len()` (synthetic division, never materialised).
fn add_scaled_quotient(out: &mut [Fp], p: &[Fp], r: Fp, scale: Fp) {
    let mut q = scale;
    for d in (0..out.len()).rev() {
        out[d] += q;
        q = scale * p[d] + r * q;
    }
}

fn dot(a: &[Fp], b: &[Fp]) -> Fp {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Drops leading zero coefficients, so `len() − 1` is the degree and the
/// zero polynomial is empty.
fn trim(p: &mut Vec<Fp>) {
    p.truncate(p.iter().rposition(|c| !c.is_zero()).map_or(0, |d| d + 1));
}

/// Quotient and remainder of `num / den`; all four are trimmed and `den`
/// is not zero.
fn div_rem(mut num: Vec<Fp>, den: &[Fp]) -> (Vec<Fp>, Vec<Fp>) {
    let dn = den.len() - 1;
    let lead_inv = den[dn].inverse();
    let mut quot = vec![Fp::ZERO; num.len().saturating_sub(dn)];
    for i in (0..quot.len()).rev() {
        let coeff = num[i + dn] * lead_inv;
        quot[i] = coeff;
        for (n, &d) in num[i..].iter_mut().zip(den) {
            *n -= coeff * d;
        }
    }
    num.truncate(dn);
    trim(&mut num);
    (quot, num)
}

/// Tables of the error-correcting path over all `m` points.
#[derive(Debug)]
struct GaoTables {
    /// `g₀ = ∏ (x − xᵢ)`, `m + 1` coefficients.
    g0: Vec<Fp>,
    /// `1 / ∏_{j ≠ i} (xᵢ − xⱼ)` per point.
    weights: Vec<Fp>,
}

impl GaoTables {
    fn new(xs: &[Fp]) -> Self {
        let mut weights = denominators(xs);
        batch_inverse(&mut weights);
        GaoTables {
            g0: vanishing(xs),
            weights,
        }
    }
}

/// A Reed–Solomon decoder for one evaluation set `xs` and message length
/// `k`: the tables that depend only on where the code is evaluated are
/// computed once, and every word over `xs` is decoded against them (see
/// the [module docs](self) for the two paths and their cost).
#[derive(Debug)]
pub struct Decoder {
    xs: Vec<Fp>,
    k: usize,
    /// Row `i` = coefficients of the Lagrange basis polynomial `ℓᵢ` of the
    /// first `k` points (`k × k`, row-major).
    basis: Vec<Fp>,
    /// Row `j` = `ℓ₀(x_{k+j}), …, ℓ_{k−1}(x_{k+j})` (`(m − k) × k`).
    parity: Vec<Fp>,
    gao: OnceLock<GaoTables>,
}

impl Decoder {
    /// Builds the decoder of degree-`< k` polynomials evaluated at `xs`.
    ///
    /// # Errors
    ///
    /// * [`RsError::NotEnoughPoints`] if `xs.len() < k`;
    /// * [`RsError::DuplicateX`] on repeated x-coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, which is a caller bug; no `xs` panics.
    pub fn new(xs: &[Fp], k: usize) -> Result<Self, RsError> {
        assert!(k >= 1, "message polynomial needs at least one coefficient");
        let m = xs.len();
        if m < k {
            return Err(RsError::NotEnoughPoints { have: m, need: k });
        }
        let mut sorted: Vec<u64> = xs.iter().map(Fp::value).collect();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(RsError::DuplicateX);
        }

        // ℓᵢ(x) = master(x) / ((x − xᵢ) · denomᵢ) with master = ∏ (x − xᵢ)
        // over the first k points. The k denominators and the (m − k)·k
        // differences x_{k+j} − xᵢ are inverted together.
        let (head, tail) = xs.split_at(k);
        let mut inv = denominators(head);
        for &xj in tail {
            inv.extend(head.iter().map(|&xi| xj - xi));
        }
        let master_at: Vec<Fp> = inv[k..]
            .chunks_exact(k)
            .map(|diffs| diffs.iter().copied().product())
            .collect();
        batch_inverse(&mut inv);
        let (weights, diffs) = inv.split_at(k);

        let master = vanishing(head);
        let mut basis = vec![Fp::ZERO; k * k];
        for ((row, &xi), &w) in basis.chunks_exact_mut(k).zip(head).zip(weights) {
            add_scaled_quotient(row, &master, xi, w);
        }
        let parity = diffs
            .chunks_exact(k)
            .zip(master_at)
            .flat_map(|(row, at)| row.iter().zip(weights).map(move |(&d, &w)| at * d * w))
            .collect();
        Ok(Decoder {
            xs: xs.to_vec(),
            k,
            basis,
            parity,
            gao: OnceLock::new(),
        })
    }

    /// Decodes the word `ys` (`ys[i]` is the value received for `xs[i]`):
    /// the unique degree-`< k` polynomial that disagrees with at most `e`
    /// of the values, as exactly `k` coefficients.
    ///
    /// # Errors
    ///
    /// * [`RsError::NotEnoughPoints`] if `xs.len() < k + 2e`;
    /// * [`RsError::TooManyErrors`] if no such polynomial exists.
    ///
    /// # Panics
    ///
    /// Panics if `ys.len() != xs.len()`.
    pub fn decode(&self, ys: &[Fp], e: usize) -> Result<Polynomial, RsError> {
        let (m, k) = (self.xs.len(), self.k);
        assert_eq!(ys.len(), m, "one value per evaluation point");
        if m < k + 2 * e {
            return Err(RsError::NotEnoughPoints {
                have: m,
                need: k + 2 * e,
            });
        }
        // The interpolant through the first k values misses exactly the
        // parity positions whose prediction differs.
        let (head, tail) = ys.split_at(k);
        let wrong = self
            .parity
            .chunks_exact(k)
            .zip(tail)
            .filter(|&(row, &y)| dot(row, head) != y)
            .count();
        if wrong <= e {
            let mut coeffs = vec![Fp::ZERO; k];
            for (row, &y) in self.basis.chunks_exact(k).zip(head) {
                for (c, &b) in coeffs.iter_mut().zip(row) {
                    *c += y * b;
                }
            }
            return Ok(Polynomial::new(coeffs));
        }
        if e == 0 {
            return Err(RsError::TooManyErrors);
        }
        self.correct(ys, e)
    }

    /// Gao's decoder, for a word with an error among its first `k` values
    /// or more than `e` in total.
    fn correct(&self, ys: &[Fp], e: usize) -> Result<Polynomial, RsError> {
        let (m, k) = (self.xs.len(), self.k);
        let tables = self.gao.get_or_init(|| GaoTables::new(&self.xs));
        let mut g1 = vec![Fp::ZERO; m];
        for ((&x, &y), &w) in self.xs.iter().zip(ys).zip(&tables.weights) {
            add_scaled_quotient(&mut g1, &tables.g0, x, y * w);
        }
        trim(&mut g1);

        // Extended Euclid on (g₀, g₁), keeping only the g₁-cofactor v of
        // each remainder r = u·g₀ + v·g₁. With w ≤ (m − k)/2 errors the
        // first remainder of degree < (m + k)/2 is f·v, v the error locator.
        let (mut r0, mut r1) = (tables.g0.clone(), g1);
        let (mut v0, mut v1) = (Vec::new(), vec![Fp::ONE]);
        while 2 * r1.len() >= m + k + 2 {
            let (quot, rem) = div_rem(r0, &r1);
            // v ← v0 − quot · v1
            let mut v = v0;
            v.resize(quot.len() + v1.len() - 1, Fp::ZERO);
            for (i, &q) in quot.iter().enumerate() {
                for (c, &b) in v[i..].iter_mut().zip(&v1) {
                    *c -= q * b;
                }
            }
            (r0, r1, v0, v1) = (r1, rem, v1, v);
        }
        let (mut coeffs, rem) = div_rem(r1, &v1);
        if !rem.is_empty() || coeffs.len() > k {
            return Err(RsError::TooManyErrors);
        }
        coeffs.resize(k, Fp::ZERO);
        let poly = Polynomial::new(coeffs);
        let wrong = self
            .xs
            .iter()
            .zip(ys)
            .filter(|&(&x, &y)| poly.eval(x) != y)
            .count();
        if wrong <= e {
            Ok(poly)
        } else {
            Err(RsError::TooManyErrors)
        }
    }
}

/// One-shot form of [`Decoder`]: builds the decoder of the points'
/// x-coordinates and decodes their y-values, tolerating up to `e` wrong
/// evaluations.
///
/// # Errors
///
/// * [`RsError::NotEnoughPoints`] if `points.len() < k + 2e`;
/// * [`RsError::DuplicateX`] on repeated x-coordinates;
/// * [`RsError::TooManyErrors`] if no consistent codeword exists.
pub fn decode(points: &[(Fp, Fp)], k: usize, e: usize) -> Result<Polynomial, RsError> {
    assert!(k >= 1, "message polynomial needs at least one coefficient");
    let m = points.len();
    if m < k + 2 * e {
        return Err(RsError::NotEnoughPoints {
            have: m,
            need: k + 2 * e,
        });
    }
    let (xs, ys): (Vec<Fp>, Vec<Fp>) = points.iter().copied().unzip();
    Decoder::new(&xs, k)?.decode(&ys, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prg::Prg;

    fn random_poly(k: usize, prg: &mut Prg) -> Polynomial {
        Polynomial::new((0..k).map(|_| Fp::random(prg)).collect())
    }

    fn shares(poly: &Polynomial, m: usize) -> Vec<(Fp, Fp)> {
        (1..=m as u64)
            .map(|x| (Fp::new(x), poly.eval(Fp::new(x))))
            .collect()
    }

    #[test]
    fn decode_without_errors() {
        let mut prg = Prg::from_seed_bytes(b"rs0");
        for k in 1..6 {
            let poly = random_poly(k, &mut prg);
            let pts = shares(&poly, k + 4);
            let got = decode(&pts, k, 0).unwrap();
            assert_eq!(got.coefficients(), poly.coefficients());
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn decode_with_max_errors() {
        let mut prg = Prg::from_seed_bytes(b"rs1");
        for (k, e) in [(1usize, 1usize), (2, 1), (2, 2), (3, 2), (4, 3)] {
            let poly = random_poly(k, &mut prg);
            let m = k + 2 * e;
            let mut pts = shares(&poly, m);
            // Corrupt exactly e positions.
            for i in 0..e {
                pts[i * 2].1 = Fp::random(&mut prg);
            }
            let got = decode(&pts, k, e).unwrap_or_else(|err| panic!("k={k} e={e}: {err}"));
            assert_eq!(got.coefficients(), poly.coefficients(), "k={k} e={e}");
        }
    }

    #[test]
    fn decode_with_fewer_errors_than_budget() {
        let mut prg = Prg::from_seed_bytes(b"rs2");
        let poly = random_poly(3, &mut prg);
        let mut pts = shares(&poly, 3 + 2 * 3);
        pts[1].1 = Fp::random(&mut prg); // only 1 error, budget 3
        let got = decode(&pts, 3, 3).unwrap();
        assert_eq!(got.coefficients(), poly.coefficients());
    }

    #[test]
    fn committee_regime_c_3t_plus_1() {
        // c = 3t+1 members echo a degree-t sharing; t of them lie.
        let mut prg = Prg::from_seed_bytes(b"rs3");
        for t in 1..5usize {
            let c = 3 * t + 1;
            let poly = random_poly(t + 1, &mut prg);
            let mut pts = shares(&poly, c);
            for i in 0..t {
                pts[c - 1 - i].1 = Fp::random(&mut prg);
            }
            let got = decode(&pts, t + 1, t).unwrap();
            assert_eq!(
                got.eval(Fp::ZERO),
                poly.eval(Fp::ZERO),
                "secret mismatch at t={t}"
            );
        }
    }

    #[test]
    fn too_many_errors_detected() {
        let mut prg = Prg::from_seed_bytes(b"rs4");
        let poly = random_poly(2, &mut prg);
        let mut pts = shares(&poly, 6);
        // 3 errors with budget 1: must not silently return a wrong poly
        // consistent with <= 1 errors.
        for pt in pts.iter_mut().take(3) {
            pt.1 = Fp::random(&mut prg);
        }
        match decode(&pts, 2, 1) {
            Err(RsError::TooManyErrors) => {}
            Ok(got) => {
                let wrong = pts.iter().filter(|&&(x, y)| got.eval(x) != y).count();
                assert!(wrong <= 1, "accepted polynomial inconsistent with bound");
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn not_enough_points() {
        let pts = vec![(Fp::new(1), Fp::new(2))];
        assert_eq!(
            decode(&pts, 2, 1),
            Err(RsError::NotEnoughPoints { have: 1, need: 4 })
        );
    }

    #[test]
    fn duplicate_x_rejected() {
        let pts = vec![
            (Fp::new(1), Fp::new(2)),
            (Fp::new(1), Fp::new(3)),
            (Fp::new(2), Fp::new(4)),
            (Fp::new(3), Fp::new(5)),
        ];
        assert_eq!(decode(&pts, 2, 1), Err(RsError::DuplicateX));
    }

    #[test]
    fn zero_polynomial_decodes() {
        let pts: Vec<(Fp, Fp)> = (1..=5u64).map(|x| (Fp::new(x), Fp::ZERO)).collect();
        let got = decode(&pts, 2, 1).unwrap();
        assert_eq!(got.eval(Fp::new(77)), Fp::ZERO);
    }

    #[test]
    fn decoder_with_no_surplus_points_interpolates() {
        let mut prg = Prg::from_seed_bytes(b"rs5");
        let poly = random_poly(4, &mut prg);
        let (xs, ys): (Vec<Fp>, Vec<Fp>) = shares(&poly, 4).into_iter().unzip();
        let got = Decoder::new(&xs, 4).unwrap().decode(&ys, 0).unwrap();
        assert_eq!(got.coefficients(), poly.coefficients());
    }

    /// `m` distinct, non-contiguous x-coordinates in no particular order.
    fn scattered_xs(m: usize, prg: &mut Prg) -> Vec<Fp> {
        let mut xs: Vec<Fp> = Vec::with_capacity(m);
        while xs.len() < m {
            let x = Fp::random(prg);
            if !xs.contains(&x) {
                xs.push(x);
            }
        }
        xs
    }

    #[test]
    fn one_decoder_serves_clean_and_dirty_words() {
        let mut prg = Prg::from_seed_bytes(b"rs6");
        let (k, e) = (5usize, 4usize);
        let xs = scattered_xs(k + 2 * e + 1, &mut prg);
        let decoder = Decoder::new(&xs, k).unwrap();
        for errors in [0usize, 1, 4, 0, 3] {
            let poly = random_poly(k, &mut prg);
            let mut ys: Vec<Fp> = xs.iter().map(|&x| poly.eval(x)).collect();
            // Errors from the front, so the first k values are hit first.
            for y in ys.iter_mut().take(errors) {
                *y += Fp::ONE;
            }
            let got = decoder.decode(&ys, e).unwrap();
            assert_eq!(got.coefficients(), poly.coefficients(), "errors={errors}");
        }
    }

    #[test]
    fn error_tables_are_built_by_the_first_dirty_word() {
        let mut prg = Prg::from_seed_bytes(b"rs7");
        let (k, e) = (3usize, 2usize);
        let xs = scattered_xs(k + 2 * e, &mut prg);
        let decoder = Decoder::new(&xs, k).unwrap();
        let poly = random_poly(k, &mut prg);
        let clean: Vec<Fp> = xs.iter().map(|&x| poly.eval(x)).collect();

        decoder.decode(&clean, e).unwrap();
        // Errors confined to the parity positions leave the interpolant of
        // the first k values correct: still the clean path.
        let mut parity_hit = clean.clone();
        parity_hit[k] += Fp::ONE;
        parity_hit[k + 1] += Fp::ONE;
        assert_eq!(decoder.decode(&parity_hit, e).unwrap(), poly);
        // An inconsistent word with no error budget is rejected outright.
        assert_eq!(decoder.decode(&parity_hit, 0), Err(RsError::TooManyErrors));
        assert!(decoder.gao.get().is_none());

        let mut head_hit = clean;
        head_hit[0] += Fp::ONE;
        assert_eq!(decoder.decode(&head_hit, e).unwrap(), poly);
        assert!(decoder.gao.get().is_some());
    }

    #[test]
    fn budget_below_capacity_is_enforced() {
        // m = k + 6 could correct 3 errors; a caller that allows 1 must not
        // be handed the codeword two errors away.
        let mut prg = Prg::from_seed_bytes(b"rs8");
        let poly = random_poly(3, &mut prg);
        let mut pts = shares(&poly, 9);
        pts[0].1 += Fp::ONE;
        pts[5].1 += Fp::ONE;
        assert_eq!(decode(&pts, 3, 1), Err(RsError::TooManyErrors));
        assert_eq!(decode(&pts, 3, 2).unwrap(), poly);
        assert_eq!(decode(&pts, 3, 3).unwrap(), poly);
    }

    #[test]
    fn decoder_new_rejects_bad_evaluation_sets() {
        let xs = [Fp::new(4), Fp::new(9), Fp::new(4)];
        assert_eq!(Decoder::new(&xs, 2).unwrap_err(), RsError::DuplicateX);
        // x-coordinates are compared as field elements.
        let wrapped = [Fp::new(1), Fp::new(crate::field::MODULUS + 1)];
        assert_eq!(Decoder::new(&wrapped, 1).unwrap_err(), RsError::DuplicateX);
        assert_eq!(
            Decoder::new(&xs[..2], 3).unwrap_err(),
            RsError::NotEnoughPoints { have: 2, need: 3 }
        );
        assert_eq!(
            Decoder::new(&[], 1).unwrap_err(),
            RsError::NotEnoughPoints { have: 0, need: 1 }
        );
        let decoder = Decoder::new(&xs[..2], 2).unwrap();
        assert_eq!(
            decoder.decode(&[Fp::ONE, Fp::ONE], 1),
            Err(RsError::NotEnoughPoints { have: 2, need: 4 })
        );
    }

    // Size guards rather than timers: at m = 512 the search over error
    // counts this module used to run is up to 171 Gaussian eliminations of
    // up to 511 unknowns — minutes in the debug profile — so a regression
    // to it stalls the suite instead of flaking a threshold.
    const BIG_M: usize = 512;
    const BIG_K: usize = 171;
    const BIG_E: usize = 170;

    #[test]
    fn large_clean_word_decodes() {
        let mut prg = Prg::from_seed_bytes(b"rs-big-clean");
        let poly = random_poly(BIG_K, &mut prg);
        let got = decode(&shares(&poly, BIG_M), BIG_K, BIG_E).unwrap();
        assert_eq!(got.coefficients(), poly.coefficients());
    }

    #[test]
    fn large_word_with_full_error_budget_decodes() {
        let mut prg = Prg::from_seed_bytes(b"rs-big-dirty");
        let poly = random_poly(BIG_K, &mut prg);
        let mut pts = shares(&poly, BIG_M);
        // Every third point lies: 170 errors, 57 of them among the first k.
        for pt in pts.iter_mut().step_by(3).take(BIG_E) {
            pt.1 = Fp::random(&mut prg);
        }
        let wrong = pts.iter().filter(|&&(x, y)| poly.eval(x) != y).count();
        assert_eq!(wrong, BIG_E);
        let got = decode(&pts, BIG_K, BIG_E).unwrap();
        assert_eq!(got.coefficients(), poly.coefficients());
    }
}
