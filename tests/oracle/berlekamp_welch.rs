//! The Berlekamp–Welch decoder `pba_crypto::reed_solomon` shipped until
//! its per-evaluation-set `Decoder` replaced it, kept verbatim (minus two
//! dead lines) as the oracle the new decoder is compared against: error
//! counts `e, e − 1, …, 0`, one Gaussian elimination on a
//! `(k + 2·errs)²` system each. Complete for the contract "the unique
//! degree-`< k` polynomial within distance `e`, or `TooManyErrors`", and
//! slowest on an honest word, where every system above `errs = 0` is
//! singular.

use pba_crypto::field::Fp;
use pba_crypto::poly::Polynomial;
use pba_crypto::reed_solomon::RsError;

/// Solves a square linear system `A·x = b` over `F_p` by Gaussian
/// elimination. Returns `None` if `A` is singular.
#[allow(clippy::needless_range_loop)] // index-based elimination reads clearer here
fn solve_linear(mut a: Vec<Vec<Fp>>, mut b: Vec<Fp>) -> Option<Vec<Fp>> {
    let n = b.len();
    for col in 0..n {
        // Find pivot.
        let pivot = (col..n).find(|&r| !a[r][col].is_zero())?;
        a.swap(col, pivot);
        b.swap(col, pivot);
        let inv = a[col][col].inverse();
        for j in col..n {
            a[col][j] *= inv;
        }
        b[col] *= inv;
        for r in 0..n {
            if r != col && !a[r][col].is_zero() {
                let factor = a[r][col];
                for j in col..n {
                    let v = a[col][j];
                    a[r][j] -= factor * v;
                }
                let bv = b[col];
                b[r] -= factor * bv;
            }
        }
    }
    Some(b)
}

/// Divides polynomial `num` by `den`, returning the quotient if the
/// division is exact.
fn poly_div_exact(num: &[Fp], den: &[Fp]) -> Option<Vec<Fp>> {
    let dn = den.iter().rposition(|c| !c.is_zero())?;
    let nn = match num.iter().rposition(|c| !c.is_zero()) {
        Some(v) => v,
        None => return Some(vec![Fp::ZERO]), // 0 / den = 0
    };
    if nn < dn {
        return None;
    }
    let mut rem: Vec<Fp> = num.to_vec();
    let mut quot = vec![Fp::ZERO; nn - dn + 1];
    let lead_inv = den[dn].inverse();
    for i in (0..quot.len()).rev() {
        let coeff = rem[i + dn] * lead_inv;
        quot[i] = coeff;
        for j in 0..=dn {
            rem[i + j] -= coeff * den[j];
        }
    }
    rem.iter().all(Fp::is_zero).then_some(quot)
}

/// Berlekamp–Welch: decodes the unique degree-`< k` polynomial from
/// `points`, tolerating up to `e` wrong evaluations.
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
    {
        let mut xs: Vec<u64> = points.iter().map(|(x, _)| x.value()).collect();
        xs.sort_unstable();
        if xs.windows(2).any(|w| w[0] == w[1]) {
            return Err(RsError::DuplicateX);
        }
    }
    if e == 0 {
        // Plain interpolation on the first k points, then consistency check.
        let poly = interpolate(&points[..k]);
        return if points.iter().all(|&(x, y)| poly.eval(x) == y) {
            Ok(poly)
        } else {
            Err(RsError::TooManyErrors)
        };
    }

    // Berlekamp–Welch: find E (monic, deg e) and Q (deg < k + e) with
    //   Q(x_i) = y_i · E(x_i)  for all i.
    // Unknowns: e coefficients of E (monic) + (k + e) of Q.
    // Try decreasing error counts: with fewer than `e` actual errors the
    // degree-e system can be singular, so fall back gracefully.
    for errs in (0..=e).rev() {
        if m < k + 2 * errs {
            continue;
        }
        let unknowns = errs + k + errs;
        let mut a: Vec<Vec<Fp>> = Vec::with_capacity(unknowns);
        let mut b: Vec<Fp> = Vec::with_capacity(unknowns);
        for &(x, y) in points.iter().take(unknowns) {
            let mut row = Vec::with_capacity(unknowns);
            // E coefficients e_0..e_{errs-1} (monic leading coeff folded into rhs).
            let mut xp = Fp::ONE;
            for _ in 0..errs {
                row.push(y * xp);
                xp *= x;
            }
            let x_to_errs = xp; // x^errs
                                // Q coefficients q_0..q_{k+errs-1}, negated.
            let mut xq = Fp::ONE;
            for _ in 0..(k + errs) {
                row.push(-xq);
                xq *= x;
            }
            a.push(row);
            b.push(-(y * x_to_errs));
        }
        let Some(solution) = solve_linear(a, b) else {
            continue;
        };
        // Rebuild E (monic) and Q.
        let mut e_coeffs: Vec<Fp> = solution[..errs].to_vec();
        e_coeffs.push(Fp::ONE);
        let q_coeffs: Vec<Fp> = solution[errs..].to_vec();
        let Some(f_coeffs) = poly_div_exact(&q_coeffs, &e_coeffs) else {
            continue;
        };
        let mut coeffs = f_coeffs;
        coeffs.truncate(k);
        while coeffs.len() < k {
            coeffs.push(Fp::ZERO);
        }
        let poly = Polynomial::new(coeffs);
        // Accept iff consistent with all but <= e points.
        let wrong = points.iter().filter(|&&(x, y)| poly.eval(x) != y).count();
        if wrong <= e {
            return Ok(poly);
        }
    }
    Err(RsError::TooManyErrors)
}

#[allow(clippy::needless_range_loop)] // coefficient-index arithmetic is clearer by index
fn interpolate(points: &[(Fp, Fp)]) -> Polynomial {
    // Lagrange interpolation, building coefficients.
    let k = points.len();
    let mut coeffs = vec![Fp::ZERO; k];
    for (i, &(xi, yi)) in points.iter().enumerate() {
        // Basis polynomial l_i(x) = prod_{j!=i} (x - x_j) / (x_i - x_j)
        let mut basis = vec![Fp::ZERO; k];
        basis[0] = Fp::ONE;
        let mut deg = 0;
        let mut denom = Fp::ONE;
        for (j, &(xj, _)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            // basis *= (x - xj)
            let mut next = vec![Fp::ZERO; k];
            for d in 0..=deg {
                next[d + 1] += basis[d];
                next[d] -= basis[d] * xj;
            }
            basis = next;
            deg += 1;
            denom *= xi - xj;
        }
        let scale = yi * denom.inverse();
        for d in 0..k {
            coeffs[d] += basis[d] * scale;
        }
    }
    Polynomial::new(coeffs)
}
