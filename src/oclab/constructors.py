"""Constructions of overcomplete families in finite-truncation models.

Each builder here returns checked exact vectors, plus the checked values
a report needs, so none is computed twice: the incomplete-model sequence
returns its (distance, bound) gaps, the geometric variant its schedule
onsets, and the sliding-hump extraction the cuts its certificate replays.
Each claimed property is re-checked apart from its builder, by the
certify module or, from the written report, by :mod:`oclab.verify`:
geometric node families, hyperplane-avoiding sequences in R^d, Riesz-step
separated families, the convergent sequences living in an
incomplete-model ambient space, and the sliding-hump extraction over a
finite index range.

Index ranges [0, L) stand in for ordinal ranges; cut ordinals become
integer cut indices.  Everything order-theoretic in the source arguments
survives that truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .errors import (
    ConstructionError,
    DomainError,
    ExtractionError,
    PreconditionError,
    ScheduleError,
)
from .linalg import (
    DUAL_TAG,
    NormTag,
    Vector,
    exact_vector,
    norm,
    norm_squared,
    pairing,
    scaled_int_coords,
    zero_vector,
    _complement,
    _extend,
    _general_position,
    _int_difference,
    _state_null_vector,
)
from .rng import rng_for, split_seed

__all__ = [
    "OpenBall",
    "IncompleteModel",
    "GeometricSchedule",
    "SlidingHumpData",
    "RieszStep",
    "klee_vectors",
    "fd_overcomplete",
    "riesz_step",
    "separated_overcomplete_fd",
    "incomplete_space_sequence",
    "convergence_gaps",
    "verify_schedule",
    "geometric_variant_sequence",
    "sliding_hump_extract",
]


# ---------------------------------------------------------------------------
# geometric node families
# ---------------------------------------------------------------------------


def klee_vectors(lambdas: Sequence, d: int) -> tuple:
    """Exact geometric vectors (1, l, l^2, ..., l^{d-1}), one per node, for
    distinct nodes strictly inside (0, 1/2).

    Any d of them form a nonsingular node matrix, which is what makes
    every equinumerous subfamily linearly dense at truncation scale.
    """
    lams = tuple(Fraction(x) for x in lambdas)
    half = Fraction(1, 2)
    for lam in lams:
        if not (0 < lam < half):
            raise DomainError(f"node {lam} outside the open interval (0, 1/2)")
    if len(set(lams)) != len(lams):
        raise DomainError("nodes must be pairwise distinct")
    return tuple(exact_vector(lam ** i for i in range(d)) for lam in lams)


# ---------------------------------------------------------------------------
# hyperplane-avoiding sequences in R^d
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpenBall:
    """Open Euclidean ball; radius strictly positive."""

    center: Vector
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius <= 0:
            raise DomainError("ball radius must be positive")

    def contains(self, v: Vector) -> bool:
        """Exact membership test by squared distance (strict: the ball is open).

        With v - c = diff / den in integers (:func:`~oclab.linalg._int_difference`)
        and r = p / q, ||v - c||^2 < r^2 is sum(diff^2) * q^2 < (p * den)^2,
        decided in integers.
        """
        diff, den = _int_difference(v, self.center)
        r = self.radius
        return sum(x * x for x in diff) * r.denominator**2 < (r.numerator * den) ** 2


def _unit_balls(d: int, n: int) -> list:
    """n open unit balls about the origin: fd_overcomplete's default targets."""
    return [OpenBall(zero_vector(d), Fraction(1))] * n


def fd_overcomplete(
    d: int,
    n: int,
    targets: Optional[Sequence[OpenBall]] = None,
    seed: int = 0,
) -> list:
    """n exact vectors in R^d, every d of which have exact rank d.

    Runs the inductive construction: at each step, sample a rational
    candidate that the current target ball (unit ball when no targets)
    contains, and accept it once it lies outside span(T) for every subset T
    of the previous picks with |T| = min(#picks, d-1): the inductive
    hyperplane-avoidance step, strengthened below d-1 picks so that the
    early picks stay independent (and nonzero).  Both are decided in
    integer arithmetic by :func:`~oclab.linalg._general_position`: for
    d <= 8 by one packed test over every (d-1)-subset of the picks at once,
    for d >= 9 by one set lookup per (d-2)-subset.  The dyadic grid is
    refined on retry, so avoidance is certified, never assumed.  So each
    d-subset is decided nonsingular once, at its last member, before the
    family is returned (else :class:`~oclab.errors.ConstructionError`):
    this check is a run's subset-rank sweep, and the tests check it
    against the independent sweep
    :func:`~oclab.certify.all_subsets_full_rank`.
    Likewise each vector is decided inside its ball
    (:meth:`OpenBall.contains`) once, here.

    A candidate is the ball's centre c plus (r / span) * step in each
    coordinate, with step = radius / (2d) and r drawn from
    (-span, span).  It is built from integers: with the centre's cached
    integer form c = cs / dc (:attr:`~oclab.linalg.Vector._ints`) and
    step = sn / (sd * dc), each coordinate is one
    ``Fraction(cs_i * sd * span + r * sn, dc * sd * span)``, the same
    canonical value as the sum of Fractions.
    """
    targets = _unit_balls(d, n) if targets is None else list(targets)
    if len(targets) != n:
        raise DomainError(f"expected {n} target balls, got {len(targets)}")
    for ball in targets:
        if ball.center.dim != d:
            raise DomainError("target ball dimension mismatch")
    rng = rng_for(seed, "fd-overcomplete")
    picks = _general_position(d, n)
    chosen: list = []
    for k, ball in enumerate(targets):
        # offsets of sup-norm at most radius/(2d) have Euclidean length at
        # most radius/(2*sqrt(d)), so the candidate stays inside the open ball
        step = ball.radius / (2 * d)
        cs, dc = ball.center._ints
        sn, sd = step.numerator * dc, step.denominator
        for attempt in range(64):
            span = 1 << (10 + 2 * attempt)
            # c/dc + (r/span) * step, over the one denominator dc * sd * span
            head = sd * span
            den = dc * head
            cand = Vector(
                tuple(Fraction(c * head + rng.randrange(-span + 1, span) * sn, den) for c in cs)
            )
            if ball.contains(cand) and picks.admit(scaled_int_coords(cand)):
                chosen.append(cand)
                break
        else:
            raise ConstructionError(
                f"candidate budget exhausted at step {k} after 64 grid refinements"
            )
    return chosen


# ---------------------------------------------------------------------------
# Riesz-step separated families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RieszStep:
    """A near-unit vector plus the dual witness certifying its distance
    from a proper subspace: the functional f annihilates the subspace
    exactly, has dual norm at most one, and pairs with the vector to at
    least 1 - eps, so dist(x, span Y) >= f(x) / ||f||_* (Riesz's lemma).
    """

    x: Vector
    functional: Vector


def _unit_isqrt_scale(s2: Fraction, floor: Fraction) -> Fraction:
    """Rational r with r^2 * s2 <= 1 and r^2 * s2 >= floor, from below."""
    m = 1 << 80
    while True:
        num = math.isqrt((s2.denominator * m * m) // s2.numerator)
        # num^2 <= q*m^2/p for s2 = p/q, so r^2 * s2 <= 1
        r = Fraction(num, m)
        if r * r * s2 >= floor:
            return r
        m <<= 16
        if m > 1 << 512:
            raise ConstructionError("unit-scale refinement did not converge")


def riesz_step(state: tuple, eps: Fraction, tag: NormTag, seed: int = 0) -> RieszStep:
    """One separation step against the span of a prefix, given by its
    integer complement ``state`` (:func:`~oclab.linalg._complement`
    extended by each prefix vector with :func:`~oclab.linalg._extend`).

    Returns a unit vector (exact for L1/Linf; within 1e-12 of unit for
    L2, kept exact with a certified squared norm) together with its dual
    witness.  The witness makes the distance claim checkable by three
    exact verifications instead of an optimization.  It is the null
    vector of the prefix whose free coordinates are seeded integers in
    [1, 16], one drawn per coordinate: :func:`~oclab.linalg.null_vector`'s
    vector, read off the state (:func:`~oclab.linalg._state_null_vector`).
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    tag = NormTag(tag)
    _, cols, rest = state
    if not rest:
        raise PreconditionError("the prefix already spans the space")
    rng = rng_for(seed, "riesz-step")
    weights = [rng.randrange(1, 17) for _ in range(len(cols) + len(rest))]
    functional = _state_null_vector(state, weights)
    f0 = functional.coords
    if tag is NormTag.L1:
        # functional measured in the dual (sup) norm; the best vector to
        # pair it with is a signed coordinate vector at a peak entry, where
        # f is +1 or -1: keep that entry of f and zero the rest
        peak = norm(functional, NormTag.LINF)
        f = Vector(tuple(c / peak for c in f0))
        j = next(i for i, c in enumerate(f.coords) if abs(c) == 1)
        x = Vector(tuple(c if i == j else Fraction(0) for i, c in enumerate(f.coords)))
        return RieszStep(x, f)
    if tag is NormTag.LINF:
        total = norm(functional, NormTag.L1)
        f = Vector(tuple(c / total for c in f0))
        signs = tuple(Fraction(1) if c >= 0 else Fraction(-1) for c in f.coords)
        x = Vector(signs)
        return RieszStep(x, f)
    s2 = norm_squared(functional)
    floor = max(Fraction(1) - eps, Fraction(1) - Fraction(1, 10 ** 13))
    r = _unit_isqrt_scale(s2, floor)
    x = Vector(tuple(r * c for c in f0))
    return RieszStep(x, x)


def separated_overcomplete_fd(d: int, eps: Fraction, tag: NormTag, seed: int = 0) -> tuple:
    """d unit vectors with pairwise distances above 1 - eps, spanning R^d.

    Iterates the separation step against the span of the prefix, whose
    integer complement is carried from step to step: each member but the
    last extends it once (:func:`~oclab.linalg._extend`), so no step
    eliminates the prefix again.  Each step's witness f is decided once,
    exactly, with :func:`~oclab.linalg.pairing` rather than the
    complement: f kills the prefix, and f(x) > (1 - eps) * ||f||_* (for L2
    in squares, with f(x) > 0).  By Riesz's lemma x_k then lies farther
    than 1 - eps from the prefix's span, and f(x_k) > 0 = f(x_i) for i < k
    makes the family independent.  Raises
    :class:`~oclab.errors.ConstructionError` naming a failed step.
    """
    if d < 1:
        raise DomainError("ambient dimension must be positive")
    eps = Fraction(eps)
    tag = NormTag(tag)
    lower = 1 - eps
    state = _complement(d)
    members = []
    for k in range(d):
        step = riesz_step(state, eps, tag, seed=split_seed(seed, f"step:{k}"))
        f, x = step.functional, step.x
        if any(pairing(f, y) for y in members):
            raise ConstructionError(f"step {k}: the witness misses an earlier member")
        fx = pairing(f, x)
        if tag is NormTag.L2:
            separated = fx > 0 and fx * fx > lower * lower * norm_squared(f)
        else:
            separated = fx > lower * norm(f, DUAL_TAG[tag])
        if not separated:
            raise ConstructionError(f"step {k}: the witness pairs to at most 1 - eps of its dual norm")
        members.append(x)
        if k < d - 1:
            state = _extend(state, x._ints[0])
    return tuple(members)


# ---------------------------------------------------------------------------
# incomplete-model ambient space and its convergent sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IncompleteModel:
    """Coordinate model with a geometric target outside every truncation.

    The basis is the unit coordinate family x_n = e_n; the target has
    coordinates y(n) = c * rho^n, whose tails sum in closed form, so the
    approximation bound ||y_k - y|| < 1/k! can be checked exactly.  The
    k-th approximant y_k truncates the target at the smallest cutoff
    meeting that bound.  The norm is L1, whose tail norms stay rational.

    Each y(n) and tail(n) is computed once per model, one multiplication
    by rho from the last, and each cutoff once, its scan resuming from the
    largest cutoff known below k (cutoffs are nondecreasing in k).  The
    truncation of y to each width is one Vector, so its integer form is
    scaled once and every distance to y runs in integers.  These tables are
    attributes, not fields: ==, hash and bytes see c and rho.
    """

    c: Fraction
    rho: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "rho", Fraction(self.rho))
        if self.c <= 0:
            raise DomainError("target scale c must be positive")
        if not 0 < self.rho < 1:
            raise DomainError("target ratio rho must lie in (0, 1)")
        object.__setattr__(self, "_table", [(self.c, self.c / (1 - self.rho))])
        object.__setattr__(self, "_cutoffs", {})
        object.__setattr__(self, "_truncations", {})

    def _grown(self, n: int) -> list:
        """The (y(t), tail(t)) table, grown through t = n."""
        if n < 0:
            raise DomainError("coordinate index must be nonnegative")
        table = self._table
        while len(table) <= n:
            table.append(tuple(x * self.rho for x in table[-1]))
        return table

    def tail(self, t: int) -> Fraction:
        """Exact L1 norm of the target restricted to [t, infinity)."""
        return self._grown(t)[t][1]

    def cutoff(self, k: int) -> int:
        """Smallest t with tail(t) < 1/k! (the approximation schedule)."""
        if k not in self._cutoffs:
            bound = Fraction(1, math.factorial(k))
            t = max((s for j, s in self._cutoffs.items() if j < k), default=0)
            while self.tail(t) >= bound:
                t += 1
            self._cutoffs[k] = t
        return self._cutoffs[k]

    def approx_error(self, k: int) -> Fraction:
        """Exact distance ||y_k - y|| of the k-th approximant to the target."""
        return self.tail(self.cutoff(k))

    def ambient_dim(self, K: int) -> int:
        return max(self.cutoff(K), K + 1)

    def y_truncation(self, dim: int) -> Vector:
        if dim not in self._truncations:
            self._truncations[dim] = Vector(tuple(y for y, _ in self._grown(dim)[:dim]))
        return self._truncations[dim]

    def exact_distance(self, v: Vector) -> Fraction:
        """Exact ||y - v||_1, the tail of y beyond v's dimension included."""
        diff, den = _int_difference(self.y_truncation(v.dim), v)
        return Fraction(sum(map(abs, diff)), den) + self.tail(v.dim)


def _perturbed_approximants(model: IncompleteModel, K: int, bump) -> list:
    """g_k = y_k + sum over n <= k of bump(k, n) e_n for k = 0..K, y_k being
    y's cached truncation to the ambient dimension cut at cutoff(k)."""
    dim = model.ambient_dim(K)
    y = model.y_truncation(dim).coords
    out = []
    for k in range(K + 1):
        t = model.cutoff(k)
        coords = list(y[:t]) + [Fraction(0)] * (dim - t)
        for n in range(k + 1):
            coords[n] += bump(k, n)
        out.append(Vector(tuple(coords)))
    return out


def incomplete_space_sequence(model: IncompleteModel, K: int) -> tuple:
    """The convergent-but-spanning sequence g_k = y_k + sum of (n+2)^{-k} e_n.

    All members live in one ambient dimension.  The convergence estimate
    ||y - g_k|| <= ||y_k - y|| + (k+1)/2^k is checked exactly for each k,
    with the target's tail handled symbolically.  Returns (gaps, vectors):
    the checked (distance, bound) pairs of :func:`convergence_gaps`, so a
    caller that reports them computes them once.
    """
    out = _perturbed_approximants(model, K, lambda k, n: Fraction(1, (n + 2) ** k))
    gaps = convergence_gaps(model, out)
    for k, (lhs, rhs) in enumerate(gaps):
        if lhs > rhs:
            raise ConstructionError(f"convergence bound violated at k={k}")
    return gaps, out


def convergence_gaps(model: IncompleteModel, sequence: Sequence[Vector]) -> list:
    """Exact (distance, bound) pairs for each member of the sequence."""
    pairs = []
    for k, g in enumerate(sequence):
        lhs = model.exact_distance(g)
        rhs = model.approx_error(k) + Fraction(k + 1, 2 ** k)
        pairs.append((lhs, rhs))
    return pairs


@dataclass(frozen=True)
class GeometricSchedule:
    """Strictly decreasing rates in (0, 1) with a rate-check horizon.

    The rate condition — lambda_n^{-j} * ||y_n - y|| decreasing to below
    the threshold for every j up to j_max — is what replaces "decays
    sufficiently fast" at finite scale; see :func:`verify_schedule`.
    """

    lambdas: tuple
    j_max: int
    threshold: Fraction = Fraction(1)

    def __post_init__(self):
        lams = tuple(Fraction(x) for x in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "threshold", Fraction(self.threshold))
        for lam in lams:
            if not 0 < lam < 1:
                raise DomainError(f"rate {lam} outside (0, 1)")
        for a, b in zip(lams, lams[1:]):
            if b >= a:
                raise DomainError("rates must be strictly decreasing")


def _onset(vals: Sequence) -> int:
    """Index from which ``vals`` decrease strictly to the end: the last i
    with vals[i-1] <= vals[i], else 0."""
    return max((i for i in range(1, len(vals)) if vals[i - 1] <= vals[i]), default=0)


def verify_schedule(model: IncompleteModel, schedule: GeometricSchedule, K: int) -> tuple:
    """Check the rate condition on the prefix n = 0..K for each j <= j_max.

    The scaled errors lambda_n^{-j} * ||y_n - y|| may rise at first; the
    condition is that from some onset they decrease strictly and finish
    below the threshold.  Returns the onset per j; raises
    :class:`ScheduleError` naming the offending (n, j) otherwise.
    """
    errors = [model.approx_error(n) for n in range(K + 1)]
    onsets = []
    for j in range(schedule.j_max + 1):
        vals = [err / lam ** j for err, lam in zip(errors, schedule.lambdas)]
        onset = _onset(vals)
        if onset == K and K > 0:
            raise ScheduleError(
                f"scaled error still rising at the horizon (n={K}, j={j})"
            )
        if vals[K] >= schedule.threshold:
            raise ScheduleError(
                f"scaled error {vals[K]} at or above threshold (n={K}, j={j})"
            )
        onsets.append(onset)
    return tuple(onsets)


def geometric_variant_sequence(
    model: IncompleteModel, schedule: GeometricSchedule, K: int
) -> tuple:
    """Geometric-coefficient variant g_k = y_k + sum of lambda_k^{j+1} e_j.

    The schedule's rate condition is verified on the whole prefix before
    any vector is built.  Returns (onsets, vectors): the onsets of
    :func:`verify_schedule`, so a caller that reports them checks the
    schedule once.
    """
    onsets = verify_schedule(model, schedule, K)
    return onsets, _perturbed_approximants(model, K, lambda k, j: schedule.lambdas[k] ** (j + 1))


# ---------------------------------------------------------------------------
# sliding-hump extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlidingHumpData:
    """What the extraction produced, plus the data to re-check it.

    ``n_table[a]`` is the exact minimum of ||x restricted to [0, a)||
    over the family, for a = 0..L.  ``alpha0`` is the onset of the
    longest constant run of that table (earliest onset on ties) — the
    finite stand-in for eventual constancy, recorded in ``alpha0_rule``
    since it is a modeling choice, not a theorem.
    """

    epsilon: Fraction
    n_value: Fraction
    alpha0: int
    n_table: tuple
    members: tuple
    cuts: tuple
    extracted: tuple
    alpha0_rule: str = "longest-plateau-onset"


def sliding_hump_extract(S: Sequence[Vector], eps: Fraction) -> SlidingHumpData:
    """Extract a disjoint-hump subfamily from L1 unit vectors over [0, L).

    Computes the exact left-mass floor table, locates its plateau, and
    then alternates cut advancement with member selection: each pick is
    an unused member whose mass left of the current cut stays within
    eps of the floor, and the next cut clears the pick's support.  So each
    pick's prefix masses p and cut a give (i) p[a] <= N + eps by selection,
    (ii) earlier supports end below a, (iii) p[L] - p[a] >= 1 - N - eps as
    p[L] = 1, and (iv) p[a] - p[alpha0] <= eps as p[alpha0] >= N.
    The prefix masses are integer prefix sums over the family's common
    denominator D, read from each member's cached integer form
    (:attr:`~oclab.linalg.Vector._ints`), so picks compare integers and
    only the table's entries become Fractions.
    """
    members = list(S)
    L = members[0].dim
    for v in members:
        if v.dim != L:
            raise PreconditionError("family members must share one index range")
        if norm(v, NormTag.L1) != 1:
            raise PreconditionError("family members must be exact L1 unit vectors")
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")

    den = math.lcm(*(v._ints[1] for v in members))
    prefixes = []
    for v in members:
        xs, scale = v._ints
        factor = den // scale
        prefixes.append(list(accumulate((abs(x) * factor for x in xs), initial=0)))
    floors = list(map(min, zip(*prefixes)))
    n_table = tuple(Fraction(x, den) for x in floors)

    # longest constant run; earliest onset breaks ties
    best_start, best_len = 0, 0
    run_start = 0
    for a in range(1, L + 2):
        if a == L + 1 or floors[a] != floors[run_start]:
            if a - run_start > best_len:
                best_start, best_len = run_start, a - run_start
            run_start = a
    alpha0 = best_start
    n_value = n_table[alpha0]
    if n_value == 1:
        raise ExtractionError("family supported below alpha0")
    if 1 - n_value - 2 * eps < (1 - n_value) / 2:
        raise DomainError(
            f"eps={eps} too large for floor {n_value}: need 1-N-2*eps >= (1-N)/2"
        )

    # an integer prefix mass p stays within eps of the floor iff p <= limit;
    # at cut = alpha0 the floor member's p is N*den <= limit, so one is picked
    limit = math.floor((n_value + eps) * den)
    cut = alpha0
    used = set()
    picked = []
    cuts = []
    while cut <= L:
        best = None
        for i, p in enumerate(prefixes):
            if i in used or p[cut] > limit:
                continue
            if best is None or (p[cut], i) < best:
                best = (p[cut], i)
        if best is None:
            break
        i = best[1]
        used.add(i)
        picked.append(i)
        cuts.append(cut)
        support = members[i].support()
        cut = max(cut + 1, (support[-1] + 1) if support else cut + 1)

    return SlidingHumpData(
        epsilon=eps,
        n_value=n_value,
        alpha0=alpha0,
        n_table=n_table,
        members=tuple(picked),
        cuts=tuple(cuts),
        extracted=tuple(members[i] for i in picked),
    )
