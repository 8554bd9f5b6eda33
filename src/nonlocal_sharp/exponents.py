"""Closed-form boundary-decay exponents and regime classification.

Everything here is arithmetic on the parameter tuple (N, s, gamma, p) with
m = 1/p; `ProblemParams` validates its operator part (s, gamma).  These
formulas are the ground truth the numerical fits are checked against:

* mu = min(gamma, 2s/(1-p)) is the decay exponent of the semilinear
  solution, sigma = mu/gamma the same exponent measured against the first
  eigenfunction; at gamma = 2s/(1-p) the profile picks up the factor
  (1 + |log delta|^{1/(1-p)}).
* The three-regime envelope B_q (linear / log / power) governs L^q norms of
  the Green function centred near the boundary.
* The HLS ladder p_{k+1} = N p_k / (N - 2 s p_k) is the smoothing bootstrap
  used to bound eigenfunctions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_order(s: float) -> None:
    """The one range of the fractional order s: (0, 1]; NaN is rejected."""
    if not 0.0 < s <= 1.0:
        raise ValueError("fractional order s must lie in (0, 1]")


def _check_dimension(N: int) -> None:
    """The one rule of N, a positive integer: NaN fails N >= 1, and inf % 1 is NaN."""
    if not (N >= 1 and N % 1 == 0):
        raise ValueError("dimension N must be a positive integer")


@dataclass(frozen=True)
class ProblemParams:
    """The operator's parameters (s, gamma), validated once for every caller.

    The nonlinearity power p is no operator parameter: `predict_mu` and
    `SolverConfig`, which read it, check it by `_check_p`.
    """

    s: float
    gamma: float

    def __post_init__(self):
        _check_order(self.s)
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("boundary exponent gamma must lie in (0, 1]")


class EigenvalueProblemSignal(ValueError):
    """Raised when p = 1 is requested: that is the eigenvalue problem."""


def _check_p(p: float) -> None:
    """The one range of the nonlinearity power p: (0, 1); p = 1 raises EigenvalueProblemSignal."""
    if p == 1.0:
        raise EigenvalueProblemSignal("p = 1 is the eigenvalue problem, outside 0 < p < 1; "
                                      "use the eigen command (leading_eigenpairs)")
    if not 0.0 < p < 1.0:  # NaN fails both comparisons
        raise ValueError("nonlinearity power p must lie in 0 < p < 1")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


@dataclass(frozen=True)
class ExponentPrediction:
    mu: float
    sigma: float
    regime: str  # "eigen-dominated" | "scaling-dominated" | "critical"
    log_exponent: float | None = None

    def profile(self, delta):
        """Predicted boundary profile evaluated at distances delta."""
        import numpy as np

        delta = np.asarray(delta, dtype=float)
        if self.regime == "critical":
            gamma = self.mu
            return delta ** gamma * (1.0 + np.abs(np.log(delta)) ** self.log_exponent)
        return delta ** self.mu


def predict_mu(s: float, gamma: float, p: float,
               force_critical: bool = False) -> ExponentPrediction:
    """Sharp boundary exponent mu = min(gamma, 2s/(1-p)) and sigma = mu/gamma.

    The critical threshold gamma = 2s/(1-p) is detected with relative
    tolerance 1e-12; pass force_critical=True to pin it for parameters that
    are critical by construction.  p = 1 raises EigenvalueProblemSignal (`_check_p`).
    """
    ProblemParams(s=s, gamma=gamma)
    _check_p(p)
    scaling = 2.0 * s / (1.0 - p)
    if force_critical or _close(gamma, scaling):
        return ExponentPrediction(mu=gamma, sigma=1.0, regime="critical",
                                  log_exponent=1.0 / (1.0 - p))
    if gamma < scaling:
        return ExponentPrediction(mu=gamma, sigma=1.0, regime="eigen-dominated")
    return ExponentPrediction(mu=scaling, sigma=scaling / gamma, regime="scaling-dominated")


@dataclass(frozen=True)
class BqClassification:
    regime: str  # "linear" | "log" | "power"
    phi_exponent: float
    log_exponent: float | None
    q_low: float
    q_high: float


def _check_q(N: int, s: float, q: float) -> float:
    """Check the one q range of G's q-norms, 0 < q < q_high; return q_high = N/(N-2s) or inf."""
    q_high = N / (N - 2.0 * s) if N > 2.0 * s else math.inf
    if not 0.0 < q < q_high:
        raise ValueError(f"q must lie in (0, {q_high}); the q-norm diverges otherwise")
    return q_high


def classify_bq(N: int, s: float, gamma: float, q: float) -> BqClassification:
    """Regime of the envelope B_q as a function of q.

    B_q(t) = t for q < N/(N-2s+gamma), t(1+|log t|^{1/q}) at the threshold,
    and t^{(N-q(N-2s))/(q gamma)} for larger q (up to the integrability
    limit N/(N-2s)).  N must be a positive integer.
    """
    _check_dimension(N)
    ProblemParams(s=s, gamma=gamma)
    q_high = _check_q(N, s, q)
    q_low = N / (N - 2.0 * s + gamma)
    if _close(q, q_low):
        return BqClassification("log", 1.0, 1.0 / q, q_low, q_high)
    if q < q_low:
        return BqClassification("linear", 1.0, None, q_low, q_high)
    return BqClassification("power", (N - q * (N - 2.0 * s)) / (q * gamma), None, q_low, q_high)


@dataclass(frozen=True)
class HlsLadder:
    sequence: tuple
    k_star: int


def hls_ladder(N: int, s: float) -> HlsLadder:
    """Smoothing bootstrap p_{k+1} = N p_k / (N - 2 s p_k), from p_0 = 2.

    Stops at the first exponent above N/(2s); at p_k = N/(2s) the
    denominator is 0 and the next exponent is +inf, which counts as a step.
    Raises ValueError unless N is a positive integer and 0 < s <= 1.
    """
    _check_dimension(N)
    _check_order(s)
    target = N / (2.0 * s)
    seq = [2.0]
    while seq[-1] <= target:
        denom = N - 2.0 * s * seq[-1]
        seq.append(N * seq[-1] / denom if denom > 0.0 else math.inf)
        # 1/p_k = 1/2 - 2sk/N, so the ladder takes about N/(4s) steps:
        # this stops it for s below about N/40000
        if len(seq) > 10_001:
            raise RuntimeError("ladder failed to terminate")
    return HlsLadder(sequence=tuple(seq), k_star=len(seq) - 1)


@dataclass(frozen=True)
class CaseLabel:
    label: str  # DIRECT | I | II.A.1 | II.A.2 | II.B | III | IV
    sigma_out: float
    log_flag: bool
    nu_1: float | None = None
    nu_infinity: float | None = None


def nu_case_machine(s: float, gamma: float, m: float,
                    force_critical: bool = False) -> CaseLabel:
    """Case analysis of the exponent-improving iteration, for m = 1/p > 1.

    The iteration starts from nu_1 = 2s/(m gamma) and either reaches the
    eigenfunction exponent (sigma = 1) in finitely many steps, converges to
    sigma = 2 s m / (gamma (m-1)) < 1, or hits the critical threshold where
    the logarithmic factor |log|^{m/(m-1)} appears.  m must lie in (1, inf).
    """
    if not 1.0 < m < math.inf:
        raise ValueError("case machine requires a finite m > 1")
    ProblemParams(s=s, gamma=gamma)
    two_s = 2.0 * s
    t_case1 = two_s * (m + 1.0) / m          # upper edge of Case I
    t_crit = two_s * m / (m - 1.0)           # critical threshold
    nu_1 = two_s / (m * gamma)
    nu_inf = two_s / (gamma * (m - 1.0))

    if not force_critical:
        if _close(gamma, two_s):
            return CaseLabel("IV", sigma_out=1.0, log_flag=False)
        if gamma < two_s:
            return CaseLabel("DIRECT", sigma_out=1.0, log_flag=False)
        if _close(gamma, t_case1):
            return CaseLabel("III", sigma_out=1.0, log_flag=False, nu_1=nu_1)
        if gamma < t_case1:
            return CaseLabel("I", sigma_out=1.0, log_flag=False)
    if force_critical or _close(gamma, t_crit):
        return CaseLabel("II.A.2", sigma_out=1.0, log_flag=True,
                         nu_1=nu_1, nu_infinity=nu_inf)
    if gamma < t_crit:
        return CaseLabel("II.B", sigma_out=1.0, log_flag=False,
                         nu_1=nu_1, nu_infinity=nu_inf)
    return CaseLabel("II.A.1", sigma_out=two_s * m / (gamma * (m - 1.0)),
                     log_flag=False, nu_1=nu_1, nu_infinity=nu_inf)
