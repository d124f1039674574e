"""Melnikov integrals and the codim-2 splitting matrix.

In the codim-2 regime the heteroclinic wall of the unperturbed (c_cp = 0)
family persists only for parameters on a curve; the derivative of the
manifold-splitting displacement with respect to eta = (c_cp, s - s0,
Omega - Omega0) is the 2x3 splitting matrix

    M = [[beta*I_CC,  alpha*r*I_S - r*I_C,   I_S + alpha*I_C],
         [beta*I_CS, -alpha*r*I_C - r*I_S,  -I_C + alpha*I_S]],
    r = sqrt(-mu),

whose kernel gives the first-order parameter selection.  The four integrals
I_C, I_S, I_CC, I_CS admit closed forms; an independent adaptive-quadrature
oracle over the defining integrands is provided for cross-checking.

Note: the closed form used for I_CS carries the coefficient
(1 - alpha^2)(1 - E)c on its first term.  Direct quadrature of the defining
integrand (and an independent residue computation) instead gives
(alpha^2 - 1)(1 - E)c; see ``melnikov_integrals_closed_corrected``.  The
primary function keeps the former convention because the reference matrix
entries, kernel direction and splitting evaluations downstream are all
defined with it; the corrected variant is exposed for comparison.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .classify import CODIM2, Regime, classify_regime
from .errors import MelnikovDomainError, OrientationError, RegimeError
from .model import MaterialParams

__all__ = [
    "MelnikovIntegrals",
    "SplittingMatrix",
    "melnikov_integrals_closed",
    "melnikov_integrals_closed_corrected",
    "melnikov_integrals_quadrature",
    "splitting_matrix",
    "determinant_identity_check",
]


@dataclass(frozen=True)
class MelnikovIntegrals:
    """The four scalar integrals entering the splitting matrix."""

    i_c: float
    i_s: float
    i_cc: float
    i_cs: float

    def as_tuple(self):
        return (self.i_c, self.i_s, self.i_cc, self.i_cs)


@dataclass(frozen=True)
class SplittingMatrix:
    """2x3 splitting matrix with column order (c_cp, s - s0, Omega - Omega0)
    and its unit kernel direction (sign fixed by a non-negative first
    component, falling back to a non-negative second component), with the
    regime and the closed-form integrals it was built from."""

    m: np.ndarray
    kernel: np.ndarray
    regime: Regime
    integrals: MelnikovIntegrals

    @property
    def kernel_per_unit_ccp(self):
        """Kernel rescaled to unit c_cp component: returns (ds, dOmega)."""
        k = self.kernel
        if k[0] == 0:
            raise ZeroDivisionError("kernel has zero c_cp component")
        return (k[1] / k[0], k[2] / k[0])


def _check_domain(alpha: float, mu: float, s0: float) -> float:
    if not (alpha > 0 and mu < 0):
        raise ValueError("requires alpha > 0 and mu < 0")
    r = math.sqrt(-mu)
    if not (0.0 <= s0 < 2.0 * r / alpha):
        raise MelnikovDomainError(
            f"s0 = {s0} outside [0, 2*sqrt(-mu)/alpha = {2 * r / alpha})")
    return r


def _closed(alpha: float, mu: float, s0: float,
            cs_first_coeff: float) -> MelnikovIntegrals:
    r = _check_domain(alpha, mu, s0)
    if s0 == 0.0:
        return MelnikovIntegrals(i_c=1.0 / (2.0 * r), i_s=0.0, i_cc=0.0,
                                 i_cs=0.0)
    x = math.pi * s0 / r
    E = math.exp(x)
    # 1 - E and D = 1 + E^2 - 2E cos(alpha x) cancel as s0 -> 0 (D to exact
    # zero for s0 below ~1e-8); these forms are identical and free of it
    one_minus_e = -math.expm1(x)
    c = math.cos(0.5 * alpha * x)
    sg = math.sin(0.5 * alpha * x)
    D = one_minus_e * one_minus_e + 4.0 * E * sg * sg
    F = math.exp(0.5 * x)
    pref2 = math.pi * s0 * s0 * r * F / (4.0 * mu * mu)
    pref1 = math.pi * s0 * F / (2.0 * mu)
    i_cc = pref2 * (2.0 * alpha * one_minus_e * c
                    + (1.0 - alpha ** 2) * (1.0 + E) * sg) / D
    i_cs = pref2 * (cs_first_coeff * one_minus_e * c
                    + 2.0 * alpha * (1.0 + E) * sg) / D
    i_c = pref1 * (one_minus_e * c - alpha * (1.0 + E) * sg) / D
    i_s = pref1 * (alpha * one_minus_e * c + (1.0 + E) * sg) / D
    return MelnikovIntegrals(i_c=i_c, i_s=i_s, i_cc=i_cc, i_cs=i_cs)


def melnikov_integrals_closed(alpha: float, mu: float,
                              s0: float) -> MelnikovIntegrals:
    """Closed-form integrals; defined for 0 <= s0 < 2*sqrt(-mu)/alpha.

    With E = e^{pi s0/r}, D = 1 + E^2 - 2E cos(pi alpha s0/r),
    c = cos(pi alpha s0/(2r)), sg = sin(pi alpha s0/(2r)), F = e^{pi s0/(2r)},
    r = sqrt(-mu):

        I_CC = (pi s0^2 r F)/(4 mu^2) [2 alpha (1-E) c + (1-alpha^2)(1+E) sg]/D
        I_CS = (pi s0^2 r F)/(4 mu^2) [(1-alpha^2)(1-E) c + 2 alpha (1+E) sg]/D
        I_C  = (pi s0 F)/(2 mu) [(1-E) c - alpha (1+E) sg]/D
        I_S  = (pi s0 F)/(2 mu) [alpha (1-E) c + (1+E) sg]/D

    D is evaluated in the identical form expm1(pi s0/r)^2 + 4E sg^2, and 1-E
    as -expm1(pi s0/r), so the forms stay accurate as s0 -> 0 instead of
    cancelling.  At s0 = 0 the limits (1/(2r), 0, 0, 0) are returned
    directly.  See the module docstring about the I_CS convention.
    """
    return _closed(alpha, mu, s0, cs_first_coeff=1.0 - alpha ** 2)


def melnikov_integrals_closed_corrected(alpha: float, mu: float,
                                        s0: float) -> MelnikovIntegrals:
    """As ``melnikov_integrals_closed`` but with the I_CS first-term
    coefficient (alpha^2 - 1), which agrees with direct quadrature of the
    defining integrand (and with the measured slope of continued branches)."""
    return _closed(alpha, mu, s0, cs_first_coeff=alpha ** 2 - 1.0)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

def _bump(xi: np.ndarray, r: float, a_s0: float) -> np.ndarray:
    """e^{(a_s0 + 2r) xi} (1 - e^{2r xi}) / (1 + e^{2r xi})^3, evaluated in a
    form stable for both tails."""
    xi = np.asarray(xi, dtype=float)
    out = np.empty_like(xi)
    pos = xi > 0
    t = np.exp(-2.0 * r * xi[pos])
    out[pos] = np.exp((a_s0 - 2.0 * r) * xi[pos]) * (t - 1.0) / (1.0 + t) ** 3
    e = np.exp(2.0 * r * xi[~pos])
    out[~pos] = np.exp((a_s0 + 2.0 * r) * xi[~pos]) * (1.0 - e) / (1.0 + e) ** 3
    return out


def _sech_weight(xi: np.ndarray, r: float, a_s0: float) -> np.ndarray:
    """e^{a_s0 xi} / ((1 + e^{2r xi})(1 + e^{-2r xi})), stably evaluated."""
    xi = np.asarray(xi, dtype=float)
    u = np.exp(-2.0 * r * np.abs(xi))
    return np.exp(a_s0 * xi) * u / (1.0 + u) ** 2


def melnikov_integrals_quadrature(alpha: float, mu: float, s0: float,
                                  ) -> MelnikovIntegrals:
    """Adaptive quadrature of the defining integrands over (-X, X) with X
    chosen so both exponential tails fall below 1e-16:

        I_CC = int (1 - e^{2r xi}) e^{(alpha s0 + 2r) xi}
                     cos(-s0 xi) / (1 + e^{2r xi})^3 dxi
        I_CS = the same with sin(-s0 xi)
        I_C  = int e^{alpha s0 xi} cos(-s0 xi)
                     / ((1 + e^{2r xi})(1 + e^{-2r xi})) dxi
        I_S  = the same with sin(-s0 xi)

    Each integral is done half by half, on [-X, 0] and [0, X], with
    QUADPACK's rule for cos and sin weights (``weight=``, ``wvar=-s0``).
    The split at xi = 0 matters: the I_CC integrand is odd at s0 = 0, and
    on the symmetric interval its odd part cancels out of the error
    estimate, which then accepts an unresolved remainder.  The weighted
    rule integrates the oscillation exactly, where a plain Gauss-Kronrod
    rule warns of roundoff (alpha = 0.5, mu = -1, s0 = 3: the tail decays
    at rate 0.5 under 95 periods).  Where a slow tail cancels, epsabs
    rises from 1e-14 to 100 eps int |f| (f keeps one sign on a half),
    twice QUADPACK's roundoff floor.  ``IntegrationWarning`` propagates.
    """
    r = _check_domain(alpha, mu, s0)
    a_s0 = alpha * s0
    X = max(50.0 / r, 50.0 / (2.0 * r - a_s0))
    tol = 100.0 * np.finfo(float).eps

    def do(f, weight):
        """int_{-X}^{X} f(x) weight(-s0 x) dx"""
        return sum(quad(f, lo, hi, weight=weight, wvar=-s0, limit=400,
                        epsabs=max(1e-14, tol * abs(quad(f, lo, hi)[0])),
                        epsrel=1e-12)[0] for lo, hi in ((-X, 0.0), (0.0, X)))

    bump = functools.partial(_bump, r=r, a_s0=a_s0)
    sech_weight = functools.partial(_sech_weight, r=r, a_s0=a_s0)
    return MelnikovIntegrals(i_c=do(sech_weight, "cos"),
                             i_s=do(sech_weight, "sin"),
                             i_cc=do(bump, "cos"), i_cs=do(bump, "sin"))


# ---------------------------------------------------------------------------
# Splitting matrix
# ---------------------------------------------------------------------------

def assemble_matrix(alpha: float, beta: float, mu: float,
                    ints: MelnikovIntegrals) -> np.ndarray:
    """Assemble the 2x3 splitting matrix from the four integrals."""
    r = math.sqrt(-mu)
    i_c, i_s, i_cc, i_cs = ints.as_tuple()
    return np.array([
        [beta * i_cc, alpha * r * i_s - r * i_c, i_s + alpha * i_c],
        [beta * i_cs, -alpha * r * i_c - r * i_s, -i_c + alpha * i_s],
    ])


def _kernel(m: np.ndarray) -> np.ndarray:
    _, _, vt = np.linalg.svd(m)
    k = vt[-1]
    if k[0] != 0.0:
        if k[0] < 0:
            k = -k
    elif k[1] < 0:
        k = -k
    # clean exact zeros produced by a zero first column
    k = np.where(np.abs(k) < 1e-15 * np.max(np.abs(k)), 0.0, k)
    n = np.linalg.norm(k)
    return k / n


def splitting_matrix(mp: MaterialParams) -> SplittingMatrix:
    """Splitting matrix at the homogeneous point s0(mp), for c_cp = 0 and the
    codim-2 regime beta/alpha <= h < h^* (s0 = 0 included via its limit
    matrix [[0, -1/2, alpha/(2r)], [0, -alpha/2, -1/(2r)]]).  s0 is the
    regime's, so the zero-speed tie of ``classify_regime`` selects the limit
    matrix.

    Raises ``OrientationError`` for a left-moving wall (h < beta/alpha) and
    ``RegimeError`` outside the codim-2 regime.
    """
    if mp.c_cp != 0.0:
        raise ValueError("the splitting matrix is computed about c_cp = 0")
    regime = classify_regime(mp)
    if regime.reflected:
        raise OrientationError("h < beta/alpha: the wall moves left, and "
                               "the matrix is stated for right-moving walls")
    if regime.kind != CODIM2:
        raise RegimeError(
            f"splitting matrix requires the codim-2 regime, got {regime.kind}")
    s0 = regime.s0
    r = math.sqrt(-mp.mu)
    ints = melnikov_integrals_closed(mp.alpha, mp.mu, s0)
    if s0 == 0.0:
        m = np.array([[0.0, -0.5, mp.alpha / (2.0 * r)],
                      [0.0, -0.5 * mp.alpha, -1.0 / (2.0 * r)]])
    else:
        m = assemble_matrix(mp.alpha, mp.beta, mp.mu, ints)
    return SplittingMatrix(m=m, kernel=_kernel(m), regime=regime,
                           integrals=ints)


def determinant_identity_check(alpha: float, mu: float, s0: float,
                               ints: MelnikovIntegrals):
    """Evaluate both sides of the determinant identity for the second and
    third splitting-matrix columns, from the integrals ``ints`` at
    (alpha, mu, s0):

        lhs = (alpha*I_S - I_C)^2 + (I_S + alpha*I_C)^2
        rhs = (1 + alpha^2)^2 pi^2 s0^2 e^{pi s0 / sqrt(-mu)}

    Both sides are returned as stated.  A direct expansion shows that the
    two expressions differ by the factor 1/(4 mu^2 D) with
    D = 1 + E^2 - 2E cos(pi alpha s0/sqrt(-mu)); callers comparing them
    should be aware the stated rhs omits it.
    """
    if not (0.0 < s0):
        raise ValueError("requires s0 > 0")
    lhs = ((alpha * ints.i_s - ints.i_c) ** 2
           + (ints.i_s + alpha * ints.i_c) ** 2)
    rhs = ((1.0 + alpha ** 2) ** 2 * math.pi ** 2 * s0 ** 2
           * math.exp(math.pi * s0 / math.sqrt(-mu)))
    return lhs, rhs
