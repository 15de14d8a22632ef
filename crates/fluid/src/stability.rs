//! Theorem 1: stability of PowerTCP's control law.
//!
//! The paper linearizes (Eq. 16/17) around the equilibrium
//! `(w_e, q_e) = (bτ + β̂, β̂)`:
//!
//! ```text
//! [ δq̇ ]   [ −1/τ   1/τ ] [ δq ]
//! [ δẇ ] = [   0    −γr ] [ δw ]
//! ```
//!
//! with eigenvalues `−1/τ` and `−γr`, both negative — Lyapunov- and
//! asymptotically stable. This module computes the eigenvalues of a
//! general 2×2 (so the test actually checks the matrix, not a hardcoded
//! answer) and exposes the paper's Jacobian.

use crate::laws::FluidParams;

/// Eigenvalues of a real 2×2 matrix `[[a, b], [c, d]]`. Returns the real
/// parts and the (common) imaginary magnitude (0 for real spectra).
pub fn eigenvalues_2x2(a: f64, b: f64, c: f64, d: f64) -> ((f64, f64), f64) {
    let tr = a + d;
    let det = a * d - b * c;
    let disc = tr * tr / 4.0 - det;
    if disc >= 0.0 {
        let r = disc.sqrt();
        ((tr / 2.0 + r, tr / 2.0 - r), 0.0)
    } else {
        ((tr / 2.0, tr / 2.0), (-disc).sqrt())
    }
}

/// The paper's linearized system matrix (Eq. 16/17).
pub fn powertcp_jacobian(p: &FluidParams) -> [[f64; 2]; 2] {
    [[-1.0 / p.base_rtt, 1.0 / p.base_rtt], [0.0, -p.gamma_r]]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether both eigenvalues' real parts are strictly negative:
    /// asymptotic stability of the linearization.
    fn stable(m: [[f64; 2]; 2]) -> bool {
        let ((r1, r2), _) = eigenvalues_2x2(m[0][0], m[0][1], m[1][0], m[1][1]);
        r1 < 0.0 && r2 < 0.0
    }

    #[test]
    fn eigen_closed_forms() {
        // Diagonal.
        let ((a, b), im) = eigenvalues_2x2(2.0, 0.0, 0.0, -3.0);
        assert_eq!(im, 0.0);
        assert_eq!((a, b), (2.0, -3.0));
        // Rotation-like: pure imaginary.
        let ((r1, r2), im) = eigenvalues_2x2(0.0, 1.0, -1.0, 0.0);
        assert_eq!(r1, 0.0);
        assert_eq!(r2, 0.0);
        assert!((im - 1.0).abs() < 1e-12);
    }

    #[test]
    fn theorem1_eigenvalues_are_negative() {
        let p = FluidParams::paper_example();
        let j = powertcp_jacobian(&p);
        let ((r1, r2), im) = eigenvalues_2x2(j[0][0], j[0][1], j[1][0], j[1][1]);
        assert_eq!(im, 0.0, "spectrum is real");
        // The eigenvalues are exactly −1/τ and −γr.
        let mut got = [r1, r2];
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut want = [-1.0 / p.base_rtt, -p.gamma_r];
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() / w.abs() < 1e-12, "{g} vs {w}");
        }
        assert!(stable(j));
    }

    #[test]
    fn stability_holds_across_parameters() {
        // Any positive τ and γr keeps both eigenvalues negative.
        for tau in [1e-6, 20e-6, 1e-3] {
            for gr in [1e3, 4.5e4, 1e7] {
                let p = FluidParams {
                    bandwidth: 12.5e9,
                    base_rtt: tau,
                    beta_hat: 1000.0,
                    gamma_r: gr,
                    hpcc_eta: 1.0,
                };
                assert!(stable(powertcp_jacobian(&p)));
            }
        }
    }

    #[test]
    fn unstable_matrix_detected() {
        assert!(!stable([[1.0, 0.0], [0.0, -1.0]]));
    }
}
