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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import zeta

from .errors import InvalidInputError, NumericError

# Relative slack absorbing float rounding when data sits on the equality case.
REL_TOL = 1e-12
# Absolute slack of a square-root sum against its certified cap.
CAP_SLACK = 1e-12
# Slack for the rounding of a stored successor, in ulps of x_{j+1} times C
# (see check_hypothesis).
ROOT_ULPS = 2.0


def _require_params(C, tau, inclusive: bool = False) -> None:
    """Validate scalar or array constants; every entry must be admissible:
    C >= 1 and tau in (1/3, 1), or (1/3, 1] when inclusive."""
    if not np.all(np.isfinite(C) & (C >= 1.0)):
        raise InvalidInputError(f"need C >= 1, got C={C}")
    hi_ok = tau <= 1.0 if inclusive else tau < 1.0
    if not np.all(np.isfinite(tau) & (tau > 1.0 / 3.0) & hi_ok):
        bracket = "]" if inclusive else ")"
        raise InvalidInputError(f"need tau in (1/3, 1.0{bracket}, got tau={tau}")


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


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    """Result of the drop-law check, plus the square-root increment sum."""

    C: float
    tau: float
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
    of the cap, which criterion 3 reports as the largest ratio of a
    square-root increment sum to its cap.
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

    def endpoint_bound(self, dF1: float, dF2: float) -> float:
        """The endpoint-controlled bound c |dF1|^alpha + c |dF2|^alpha."""
        return self.cap(abs(dF1)) + self.cap(abs(dF2))


def check_hypothesis(seq: MonotoneSequence, C: float, tau: float) -> HypothesisReport:
    """Check x_{j+1}^(1+tau) <= C (x_j - x_{j+1}) at every step of seq.

    Comparisons carry two slacks, so that data saturating the inequality
    exactly (up to float rounding) still passes:

    - REL_TOL, relative to the larger side, covers the rounding of the power,
      the difference and the product (a few eps each).
    - ROOT_ULPS * C * ulp(x_{j+1}) covers the rounding of the stored
      successor.  Let t be the exact root of t^(1+tau) = C (x_j - t) and
      x_{j+1} = t + e the stored value, with |e| <= ulp(x_{j+1}), because
      extremal_step stops within rounding of the root.  The left side then
      moves by the relative amount (1 + tau) e / t, inside REL_TOL, but the
      right side is C (x_j - t) - C e: an absolute shift of up to
      C ulp(x_{j+1}), which is eps x_{j+1} / (x_j - x_{j+1}) relative to the
      drop.  Along a long chain the drops shrink faster than the values
      (x_j ~ j^(-1/tau), drops ~ x_j^(1+tau)), so on a long enough chain
      this term outgrows REL_TOL.  ROOT_ULPS = 2 is twice the one-ulp bound.
    """
    _require_params(C, tau)
    x = seq.values
    if x[0] > 1.0 + REL_TOL:
        raise InvalidInputError(f"certificate input needs x_1 <= 1, got x_1={x[0]}")
    (first,), (total,) = _drop_law(x[None], C, tau)
    return HypothesisReport(C=C, tau=tau, first_violation=first, sqrt_diff_sum=total)


def _drop_law(x: np.ndarray, C: float, tau: float) -> tuple[list, list]:
    """The comparison of check_hypothesis on each row of x, (rows, n), whose
    values are already known to be finite, positive, non-increasing and at
    most 1 + REL_TOL, with admissible (C, tau): per row the 1-based first
    violating step (None if none) and the square-root increment sum.  The two
    slacks are added only when the plain comparison fails somewhere in x:
    both are non-negative and rounding is monotone, so the verdict is the
    same.  They are then added everywhere, which on a chain that saturates
    the law (half its steps fail the plain comparison) costs less than
    gathering the failing steps."""
    diffs = x[:, :-1] - x[:, 1:]
    lhs = x[:, 1:] ** (1.0 + tau)
    rhs = C * diffs
    first = [None] * len(x)
    ok = lhs <= rhs
    if not ok.all():
        ok = lhs <= rhs + REL_TOL * np.maximum(lhs, rhs) + ROOT_ULPS * C * np.spacing(x[:, 1:])
        first = [int(j) + 1 if not row[j] else None for row, j in zip(ok, ok.argmin(axis=1))]
    return first, np.sqrt(diffs).sum(axis=1).tolist()


def tail_series_sum(C: float, delta: float) -> float:
    """Evaluate sum_{j>=1} (1 + j/(12C))^(-1-delta) as a Hurwitz zeta value.

    With a = 12C and s = 1 + delta the series is a^s sum_{j>=1} (a + j)^(-s)
    = a^s zeta(s, a + 1).
    """
    if delta <= 0.0 or C < 1.0:
        raise InvalidInputError(f"need delta > 0 and C >= 1, got delta={delta}, C={C}")
    a = 12.0 * C
    s = 1.0 + delta
    return float(a**s * zeta(s, a + 1.0))


@lru_cache(maxsize=256)
def _constructive_bound_cached(C: float, tau: float) -> CertificateConstants:
    delta = (1.0 / tau - 1.0) / 3.0
    try:
        tail = tail_series_sum(C, delta)
        c = math.sqrt((2.0 / delta) * (1.0 + 2.0 * (12.0 * C) ** delta * tail))
    except OverflowError:
        c = math.inf
    if not math.isfinite(c):
        raise InvalidInputError(f"C={C} is too large: the constant c overflows at tau={tau}")
    alpha = tau * delta / 2.0
    consts = CertificateConstants(C=C, tau=tau, c=c, alpha=alpha, delta=delta, tail_sum=tail)
    # Release gate: the equality-saturating sequence is the worst case the
    # generator can produce; the certified cap must dominate its sum.
    worst = extremal_chain(C, tau, n_steps=2000)
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
    gap series and compare its square-root increment sum with consts.cap(x1):
    certify_parts on values flattened to one row."""
    return certify_parts(np.asarray(values, dtype=float).reshape(1, -1), consts)[0]


def certify_parts(rows: np.ndarray, consts: CertificateConstants) -> list[PartCertificate]:
    """certify_part on each row of a 2-d array, with one drop-law call.

    Entries at or below POSITIVE_FLOOR (and NaNs) are dropped, and a running
    minimum irons out sub-tolerance integrator noise (real descent data is
    already non-increasing, and then it is skipped).  A block with a dropped
    entry is certified row by row, each row a block of its own.  Fewer than
    two entries certify trivially; x1 above 1 + REL_TOL, the rounding slack
    check_hypothesis allows (+inf included), lies outside the certificate's
    domain and fails with cap 0.  What is left is finite, positive,
    non-increasing and at most 1 + REL_TOL, and consts holds constants
    constructive_bound validated, so the drop law is checked without
    validating either again.
    """
    keep = rows > POSITIVE_FLOOR
    if not keep.all():
        return [certify_parts(row[kept][None], consts)[0] for row, kept in zip(rows, keep)]
    if (rows[:, 1:] > rows[:, :-1]).any():
        rows = np.minimum.accumulate(rows, axis=1)
    n = rows.shape[1]
    x1 = rows[:, 0].tolist() if n else [0.0] * len(rows)
    if n < 2:
        return [PartCertificate(n, v, True, None, 0.0, 0.0, True) for v in x1]
    inside = [v <= 1.0 + REL_TOL for v in x1]
    found = zip(*_drop_law(rows if all(inside) else rows[inside], consts.C, consts.tau))
    parts = []
    for v, ok in zip(x1, inside):
        j, total, cap = (*next(found), consts.cap(v)) if ok else (None, 0.0, 0.0)
        parts.append(PartCertificate(n, v, ok and j is None, j, total, cap,
                                     ok and total <= cap + CAP_SLACK))
    return parts


# Newton steps after which a root solve counts as failed.  For 0 < x <= 1, the
# range every caller uses, the iterates settle within 6 steps for C in
# [1, 1e8] and tau in (1/3, 1]; a far larger x converges slowly.
NEWTON_MAX_ITER = 50


def _successors(x: float, C: float, tau: float):
    """Yield extremal_step's root for x, then for each root yielded in turn."""
    p, t = 1.0 + tau, x
    while True:
        for _ in range(NEWTON_MAX_ITER):
            t_tau = t**tau
            nxt = t - (t * t_tau + C * (t - x)) / (p * t_tau + C)
            if nxt >= t:
                break
            t = nxt
        else:
            raise NumericError(f"root solve did not settle in {NEWTON_MAX_ITER} Newton steps "
                               f"for C={C}, tau={tau}")
        yield t
        x = t


def extremal_step(x, C: float, tau: float):
    """Unique positive root t of t^(1+tau) + C t = C x (the zero-slack successor).

    x is an array of floats, one root per entry.  The map
    f(t) = t^(1+tau) + C (t - x) is strictly increasing and convex on t > 0,
    with f(0) = -C x < 0 and f(x) = x^(1+tau) > 0, so the root is unique and
    lies in (0, x).  Newton's method started at t = x stays above the root
    (by convexity a tangent meets zero at or right of the root) and falls
    monotonically onto it, so it needs no bracket or safeguard.  It stops as
    soon as no entry decreases any more: the iterate has reached the root to
    rounding; each converged entry is frozen while the rest advance.  A NaN
    never stops the iteration, and NumericError is raised after
    NEWTON_MAX_ITER steps.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & (x < math.inf)):
        raise InvalidInputError("need finite x > 0 in every entry")
    p = 1.0 + tau
    t = x
    for _ in range(NEWTON_MAX_ITER):
        t_tau = t**tau
        nxt = t - (t * t_tau + C * (t - x)) / (p * t_tau + C)
        stay = nxt >= t
        if stay.all():
            return t
        t = np.where(stay, t, nxt)
    raise NumericError(f"root solve did not settle in {NEWTON_MAX_ITER} Newton steps "
                       f"for C={C}, tau={tau}")


MAX_SEQUENCE_STEPS = 1_000_000  # longest generated sequence, bounding its time and memory


def extremal_sequence(C: float, tau: float, x1: float, n_steps: int) -> MonotoneSequence:
    """Sequence saturating the drop law with equality at every step.

    Starting from x1, each successor solves x_{j+1}^(1+tau) = C (x_j - x_{j+1})
    exactly, read from `_successors`.  n_steps counts root solves, so the
    result has n_steps + 1 entries.  tau = 1 is allowed here (the step map
    stays monotone); the certificate routines themselves require tau < 1.
    """
    _require_params(C, tau, inclusive=True)
    if not 0.0 < x1 <= 1.0:
        raise InvalidInputError(f"need 0 < x1 <= 1, got {x1}")
    if not 1 <= n_steps <= MAX_SEQUENCE_STEPS:
        raise InvalidInputError(f"need 1 <= n_steps <= {MAX_SEQUENCE_STEPS}, got {n_steps}")
    roots = np.fromiter(_successors(float(x1), C, tau), float, count=n_steps)
    return MonotoneSequence(np.concatenate(([float(x1)], roots)))


@lru_cache(maxsize=256)
def _chain_store(C: float, tau: float) -> list[np.ndarray]:
    """One slot per (C, tau) holding the longest chain built so far."""
    return [np.ones(1)]


def extremal_chain(C: float, tau: float, n_steps: int) -> MonotoneSequence:
    """extremal_sequence(C, tau, x1=1.0, n_steps), read from one read-only store
    per (C, tau) that every caller shares.  A longer request extends the
    stored chain by an extremal_sequence from its last entry, so every prefix
    keeps the bits of a fresh extremal_sequence."""
    if n_steps < 1:
        raise InvalidInputError(f"need n_steps >= 1, got {n_steps}")
    store = _chain_store(float(C), float(tau))
    if store[0].size <= n_steps:
        tail = extremal_sequence(C, tau, float(store[0][-1]), n_steps + 1 - store[0].size)
        store[0] = np.concatenate([store[0], tail.values[1:]])
        store[0].flags.writeable = False
    return MonotoneSequence(store[0][:n_steps + 1])


def random_admissible_batch(C: float, tau: float, rng: np.random.Generator,
                            n_seq: int, n_steps: int) -> np.ndarray:
    """n_seq random sequences satisfying the drop law strictly, as the rows of
    an (n_seq, n_steps + 1) array, checked like MonotoneSequence.

    At each step the admissible successors form the interval (0, t*], where t*
    is the zero-slack root; the successor is drawn uniformly from it, which
    spans the whole admissible set, and x1 is uniform on (0, 1].  One
    rng.random((n_seq, n_steps + 1)) call supplies the draws; its row-major
    order is the per-sequence order (x1, then one draw per successor), so the
    batch consumes the stream exactly as n_seq sequences drawn one after
    another.  The rows are generated together, one array root solve per
    column.  A successor that underflows to zero ends its row: it and every
    later entry are 0.0, so each row is positive up to its first zero.
    """
    _require_params(C, tau, inclusive=True)
    if n_seq < 1 or n_steps < 1:
        raise InvalidInputError(f"need n_seq >= 1 and n_steps >= 1, got {n_seq}, {n_steps}")
    draws = rng.random((n_seq, n_steps + 1))
    vals = np.empty_like(draws)
    vals[:, 0] = 1.0 - draws[:, 0]
    for j in range(1, n_steps + 1):
        x = vals[:, j - 1]
        live = x > 0.0
        root = extremal_step(np.where(live, x, 1.0), C, tau)
        vals[:, j] = np.where(live, (1.0 - draws[:, j]) * root, 0.0)  # uniform on (0, root]
    if not np.all(np.isfinite(vals)):
        raise InvalidInputError("sequence contains non-finite entries")
    if not np.all(vals[:, 0] > 0.0) or not np.all(vals >= 0.0):
        raise InvalidInputError("sequence entries must be strictly positive")
    if np.any(np.diff(vals, axis=1) > 0.0):
        raise InvalidInputError("sequence must be non-increasing")
    return vals


def random_admissible_sequence(C: float, tau: float, rng: np.random.Generator,
                               n_steps: int) -> MonotoneSequence:
    """Random sequence satisfying the drop law strictly: the one-row case of
    random_admissible_batch, truncated where an entry underflows to zero.

    All n_steps successors are drawn even when one underflows, so only after
    an underflow, which needs a product below 5e-324, can the stream differ
    from drawing successor by successor and stopping there.
    """
    row = random_admissible_batch(C, tau, rng, 1, n_steps)[0]
    return MonotoneSequence(row[row > 0.0])


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
        # bool is an int subclass and numpy parses numeric strings, so test each type
        bad = [x for x in data if type(x) not in (int, float)]
        if bad:
            raise InvalidInputError(f"JSON input must be an array of numbers: got {json.dumps(bad[0])}")
        try:
            vals = np.asarray(data, dtype=float)
        except OverflowError as exc:  # an integer beyond the float range
            raise InvalidInputError(f"JSON input must be an array of numbers: {exc}") from exc
        return MonotoneSequence(vals)
    try:
        vals = [float(line) for line in stripped.splitlines() if line.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"bad decimal line: {exc}") from exc
    return MonotoneSequence(np.asarray(vals))
