import gc
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oclab.constructors import (
    GeometricSchedule,
    IncompleteModel,
    OpenBall,
    RieszStep,
    convergence_gaps,
    fd_overcomplete,
    geometric_variant_sequence,
    incomplete_space_sequence,
    klee_vectors,
    riesz_step,
    separated_overcomplete_fd,
    sliding_hump_extract,
    verify_schedule,
    _onset,
    _unit_isqrt_scale,
)
from oclab.errors import (
    ConstructionError,
    DomainError,
    ExtractionError,
    PreconditionError,
    ScheduleError,
)
from oclab.linalg import (
    Matrix,
    NormTag,
    dual_norm,
    exact_vector,
    norm,
    norm_squared,
    null_vector,
    pairing,
    rank_exact,
    unit_vector,
    zero_vector,
    _complement,
    _state_null_vector,
)
from oclab.rng import rng_for
from oclab.serialize import digest

from helpers import blocks, prefix_state
from oracles import (
    fd_overcomplete_by_fractions,
    prefix_min_table,
    rref_nullspace,
    scan_cutoff,
    sliding_hump_picks,
    weighted_combination,
    window_mass,
)


# ---------------------------------------------------------------------------
# geometric (klee) families
# ---------------------------------------------------------------------------


def test_klee_rows_are_truncated_geometric_vectors():
    fam = klee_vectors([F(1, 10), F(1, 5), F(3, 10)], 3)
    assert [v.coords for v in fam] == [
        (F(1), F(1, 10), F(1, 100)),
        (F(1), F(1, 5), F(1, 25)),
        (F(1), F(3, 10), F(9, 100)),
    ]


def test_klee_single_node_long_truncation():
    fam = klee_vectors([F(1, 4)], 4)
    assert fam[0].coords == (F(1), F(1, 4), F(1, 16), F(1, 64))


@pytest.mark.parametrize("bad", [F(1, 2), F(0), F(-1, 10), F(3, 5)])
def test_klee_rejects_nodes_outside_open_interval(bad):
    with pytest.raises(DomainError):
        klee_vectors([F(1, 10), bad], 2)


def test_klee_rejects_repeated_nodes():
    with pytest.raises(DomainError):
        klee_vectors([F(1, 10), F(1, 10)], 2)


def test_klee_every_d_subset_nonsingular_exhaustively():
    # families up to 12 members, a couple of truncation dims
    lams = [F(i, 31) for i in range(1, 13)]
    for d in (2, 3):
        fam = klee_vectors(lams, d)
        for sub in itertools.combinations(range(len(lams)), d):
            M = Matrix.from_rows([fam[i] for i in sub])
            assert rank_exact(M).rank == d


# ---------------------------------------------------------------------------
# finite-dimensional overcomplete families
# ---------------------------------------------------------------------------


def test_fd_one_dimensional_members_are_nonzero():
    for v in fd_overcomplete(1, 3, seed=11):
        assert any(v.coords)


def test_fd_all_pairs_independent_d2():
    vs = fd_overcomplete(2, 4, seed=7)
    for i, j in itertools.combinations(range(4), 2):
        assert rank_exact(Matrix.from_rows([vs[i], vs[j]])).rank == 2


def test_fd_target_balls_are_respected():
    b1 = OpenBall(exact_vector([1, 0]), F(1, 10))
    b2 = OpenBall(exact_vector([0, 1]), F(1, 10))
    vs = fd_overcomplete(2, 2, targets=[b1, b2], seed=3)
    assert b1.contains(vs[0])
    assert b2.contains(vs[1])
    assert rank_exact(Matrix.from_rows(vs)).rank == 2


@pytest.mark.parametrize("d, n", [(1, 4), (2, 6), (3, 9), (5, 12)])
def test_fd_construction_leaves_no_reference_cycle(d, n):
    # the span-avoidance cache is freed when the construction returns, by
    # reference counting, not at some later collection
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        fd_overcomplete(d, n, seed=1)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("d", [3, 9])  # the packed forms, then the planes
def test_fd_needs_at_least_d_vectors(d):
    # below d vectors "every d are independent" holds vacuously, and the
    # seeded picks are independent all the same
    vs = fd_overcomplete(d, 2)
    assert len(vs) == 2 and all(v.dim == d for v in vs)
    assert rank_exact(Matrix.from_rows(vs)).rank == 2


def test_fd_target_count_must_match():
    ball = OpenBall(zero_vector(2), F(1))
    with pytest.raises(DomainError):
        fd_overcomplete(2, 3, targets=[ball])


def test_fd_target_balls_must_live_in_the_ambient_space():
    # a candidate takes the center's coordinates, so a center in R^3 would
    # put candidates of dimension 3 into a family in R^2
    with pytest.raises(DomainError, match="target ball dimension mismatch"):
        fd_overcomplete(2, 2, targets=[OpenBall(zero_vector(3), F(1))] * 2)


def _fd_balls(d, n, targets, seed):
    """fd-dense's target balls as the harness draws them: radius 1/3 about
    centres from the seed's fd-targets stream (auto), or unit balls about
    the origin (none)."""
    if targets == "none":
        return [([F(0)] * d, F(1))] * n
    rng = rng_for(seed, "fd-targets")
    return [([F(rng.randrange(-255, 256), 256) for _ in range(d)], F(1, 3)) for _ in range(n)]


# d = 1..10 meets both sides of the packed forms' band (d <= 8), and
# radius 1/3 gives the step 1/(6d), which is not dyadic
@pytest.mark.parametrize("targets", ["auto", "none"])
@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("d", range(1, 11))
def test_fd_family_equals_the_fraction_reference_loop(d, seed, targets):
    n = d + 2
    balls = _fd_balls(d, n, targets, seed)
    family = fd_overcomplete(d, n, targets=[OpenBall(exact_vector(c), r) for c, r in balls], seed=seed)
    assert [v.coords for v in family] == fd_overcomplete_by_fractions(d, n, balls, seed)


def test_fd_raises_once_the_candidate_budget_is_exhausted(monkeypatch):
    # a general-position check that admits nothing: without the raise the
    # family would come back one member short
    class AdmitsNothing:
        def admit(self, row):
            return False

    monkeypatch.setattr("oclab.constructors._general_position", lambda d, n: AdmitsNothing())
    with pytest.raises(ConstructionError, match="candidate budget exhausted at step 0 after 64"):
        fd_overcomplete(2, 2)


def test_open_ball_membership_is_strict():
    ball = OpenBall(zero_vector(2), F(1))
    assert ball.contains(exact_vector(["1/2", "1/2"]))
    assert not ball.contains(exact_vector(["3/5", "4/5"]))  # boundary excluded


_RATIONALS = st.builds(F, st.integers(-20, 20), st.integers(1, 8))


@st.composite
def _ball_and_point(draw):
    """A centre, a radius and a point, the point on the sphere half the time:
    the centre plus radius times the inverse stereographic image of some t."""
    d = draw(st.integers(1, 5))
    centre = draw(st.lists(_RATIONALS, min_size=d, max_size=d))
    radius = draw(st.builds(F, st.integers(1, 20), st.integers(1, 8)))
    on_sphere = draw(st.booleans())
    if on_sphere:
        t = draw(st.lists(_RATIONALS, min_size=d - 1, max_size=d - 1))
        s = sum((x * x for x in t), F(0))
        u = [2 * x / (s + 1) for x in t] + [(s - 1) / (s + 1)]
        point = [c + radius * x for c, x in zip(centre, u)]
    else:
        point = draw(st.lists(_RATIONALS, min_size=d, max_size=d))
    return centre, radius, point, on_sphere


@given(_ball_and_point())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_open_ball_contains_exactly_the_points_closer_than_the_radius(case):
    centre, radius, point, on_sphere = case
    inside = sum((p - c) ** 2 for p, c in zip(point, centre)) < radius * radius
    assert not (on_sphere and inside)
    assert OpenBall(exact_vector(centre), radius).contains(exact_vector(point)) == inside


def test_open_ball_rejects_nonpositive_radius():
    with pytest.raises(DomainError):
        OpenBall(zero_vector(2), F(0))


# ---------------------------------------------------------------------------
# riesz separation steps
# ---------------------------------------------------------------------------


def test_riesz_l1_against_a_line():
    step = riesz_step(prefix_state([exact_vector([1, 0])], 2), F(1, 4), NormTag.L1, seed=5)
    x, f = step.x, step.functional
    assert x.coords == (F(0), F(1))
    assert f.coords == (F(0), F(1))
    assert dual_norm(f, NormTag.L1) == 1
    assert pairing(f, x) == 1


def test_riesz_dual_witness_contract_l1_linf():
    basis = [exact_vector([2, 1, 1]), exact_vector([0, 1, -1])]
    step = riesz_step(prefix_state(basis, 3), F(1, 8), NormTag.LINF, seed=9)
    assert norm(step.x, NormTag.LINF) == 1
    for y in basis:
        assert pairing(step.functional, y) == 0
    assert dual_norm(step.functional, NormTag.LINF) <= 1
    assert pairing(step.functional, step.x) >= 1 - F(1, 8)


def test_riesz_l2_near_unit_and_orthogonal():
    basis = [unit_vector(0, 3), unit_vector(1, 3)]
    step = riesz_step(prefix_state(basis, 3), F(1, 10), NormTag.L2, seed=5)
    s2 = norm_squared(step.x)
    assert s2 <= 1
    assert 1 - s2 <= F(1, 10 ** 13)
    assert step.x.coords[0] == 0 and step.x.coords[1] == 0  # complement is e2
    for y in basis:
        assert pairing(step.functional, y) == 0
    assert pairing(step.functional, step.x) >= 1 - F(1, 10)


def test_riesz_rejects_spanning_basis():
    with pytest.raises(PreconditionError):
        riesz_step(prefix_state([unit_vector(0, 2), unit_vector(1, 2)], 2), F(1, 4), NormTag.L1)


def test_riesz_eps_domain():
    with pytest.raises(DomainError):
        riesz_step(prefix_state([exact_vector([1, 0])], 2), F(1), NormTag.L1)
    with pytest.raises(DomainError):
        riesz_step(prefix_state([exact_vector([1, 0])], 2), F(0), NormTag.L1)


def test_unit_scale_refinement_gives_up_on_a_floor_above_one():
    # r^2 * s2 <= 1 < floor at every refinement, so without the bound on m
    # the loop would not end
    with pytest.raises(ConstructionError, match="did not converge"):
        _unit_isqrt_scale(F(3), F(2))


def test_separated_needs_a_positive_dimension():
    # a negative d names no space, yet the loop would return the empty family
    with pytest.raises(DomainError, match="ambient dimension must be positive"):
        separated_overcomplete_fd(-1, F(1, 20), NormTag.L2)


def test_riesz_step_on_the_empty_prefix():
    step = riesz_step(_complement(3), F(1, 2), NormTag.L1, seed=1)
    assert norm(step.x, NormTag.L1) == 1


_small_fraction = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def _riesz_prefixes(draw):
    """(d, rows): a rational prefix in R^d of rank at most r, for r drawn
    from 0..d, mixing r random rows with zero, repeated, scaled and
    dependent ones."""
    d = draw(st.integers(1, 6))
    r = draw(st.integers(0, d))
    gens = [tuple(draw(_small_fraction) for _ in range(d)) for _ in range(r)]
    rows = list(gens)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "scaled", "combination"]))
        if kind == "zero" or not gens:
            rows.append((F(0),) * d)
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(gens)))
        else:
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            s, t = draw(_small_fraction), (0 if kind == "scaled" else draw(_small_fraction))
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
    rows = draw(st.permutations(rows))
    return d, [exact_vector(row) for row in rows]


@settings(max_examples=150, deadline=None)
@given(
    prefix=_riesz_prefixes(),
    weights=st.lists(st.integers(1, 16) | _small_fraction, min_size=6, max_size=6),
)
@example(prefix=(3, []), weights=[1] * 6)
@example(prefix=(2, [unit_vector(0, 2), unit_vector(1, 2)]), weights=[1] * 6)
def test_carried_complement_gives_the_reduced_forms_null_vector(prefix, weights):
    d, rows = prefix
    weights = weights[:d]
    state = prefix_state(rows, d)
    free = d - len(state[1])
    if rows:
        basis = rref_nullspace([row.coords for row in rows])
        assert len(basis) == free
        expected = null_vector(Matrix.from_rows(rows), weights)
    else:
        basis = [unit_vector(i, d).coords for i in range(d)]
        expected = exact_vector(weights)
    if free:
        found = _state_null_vector(state, weights)
        assert found.coords == weighted_combination(weights, basis)
        assert found == expected
    else:
        assert expected is None


@settings(max_examples=40, deadline=None)
@given(
    tag=st.sampled_from([NormTag.L1, NormTag.L2, NormTag.LINF]),
    d=st.integers(1, 8),
    eps=st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100),
    seed=st.integers(0, 2 ** 16),
)
def test_separated_family_spans_and_separates(tag, d, eps, seed):
    # the builder decides only its Riesz witnesses; the facts they imply
    # are re-decided here by brute force
    fam = separated_overcomplete_fd(d, eps, tag, seed=seed)
    assert len(fam) == d
    assert rank_exact(Matrix.from_rows(fam)).rank == d
    lower = 1 - eps
    for i, j in itertools.combinations(range(d), 2):
        diff = exact_vector(a - b for a, b in zip(fam[i].coords, fam[j].coords))
        if tag is NormTag.L2:
            assert norm_squared(diff) > lower * lower
        else:
            assert norm(diff, tag) > lower


def _break_riesz_step(monkeypatch, at, broken):
    """Replace the step against ``at`` earlier members by ``broken(real,
    made, members, eps, tag, seed)``, where ``made`` is what the real step
    returned and ``members`` the earlier steps' vectors; every other step
    is the real one."""
    import oclab.constructors as constructors_mod

    real = constructors_mod.riesz_step
    members = []

    def step(state, eps, tag, seed=0):
        made = real(state, eps, tag, seed=seed)
        if len(members) == at:
            made = broken(real, made, members, eps, tag, seed)
        members.append(made.x)
        return made

    monkeypatch.setattr(constructors_mod, "riesz_step", step)


def _skips_first_member(real, made, members, eps, tag, seed):
    # a genuine Riesz step against all earlier members but the first
    step = real(prefix_state(members[1:], made.x.dim), eps, tag, seed=seed)
    assert pairing(step.functional, members[0]) != 0
    return step


def _pairs_at_the_bound(real, made, members, eps, tag, seed):
    # f(x) = (1 - eps) * ||f||_* exactly: x scaled down from f(x) = ||f||_* = 1
    f = made.functional
    x = exact_vector((1 - eps) * c for c in made.x.coords)
    assert pairing(f, x) == (1 - eps) * dual_norm(f, tag)
    return RieszStep(x, f)


def _l2_at_the_bound(real, made, members, eps, tag, seed):
    # the L2 analogue on the first step: ||f|| = 1 and f(x) = 1 - eps
    f = exact_vector([F(3, 5), F(4, 5)] + [0] * (made.x.dim - 2))
    x = exact_vector((1 - eps) * c for c in f.coords)
    assert pairing(f, x) ** 2 == (1 - eps) ** 2 * norm_squared(f)
    return RieszStep(x, f)


def _l2_pairs_negative(real, made, members, eps, tag, seed):
    # f(x)^2 is large, but f(x) < 0
    x = exact_vector(-c for c in made.x.coords)
    return RieszStep(x, made.functional)


@pytest.mark.parametrize(
    "tag, at, broken, message",
    [
        (NormTag.L1, 2, _skips_first_member, "step 2: the witness misses an earlier member"),
        (NormTag.L2, 2, _skips_first_member, "step 2: the witness misses an earlier member"),
        (NormTag.LINF, 2, _skips_first_member, "step 2: the witness misses an earlier member"),
        (NormTag.L1, 3, _pairs_at_the_bound, "step 3: the witness pairs to at most 1 - eps"),
        (NormTag.LINF, 3, _pairs_at_the_bound, "step 3: the witness pairs to at most 1 - eps"),
        (NormTag.L2, 0, _l2_at_the_bound, "step 0: the witness pairs to at most 1 - eps"),
        (NormTag.L2, 3, _l2_pairs_negative, "step 3: the witness pairs to at most 1 - eps"),
    ],
    ids=["L1-skips", "L2-skips", "Linf-skips", "L1-at-bound", "Linf-at-bound", "L2-at-bound", "L2-negative"],
)
def test_separated_refuses_a_broken_riesz_witness(monkeypatch, tag, at, broken, message):
    _break_riesz_step(monkeypatch, at, broken)
    with pytest.raises(ConstructionError, match=message):
        separated_overcomplete_fd(4, F(1, 4), tag, seed=13)


def test_separated_single_dimension_vacuous():
    fam = separated_overcomplete_fd(1, F(1, 2), NormTag.L2, seed=2)
    assert len(fam) == 1


# ---------------------------------------------------------------------------
# incomplete-space sequences
# ---------------------------------------------------------------------------


def test_model_tail_bound_defines_cutoffs():
    model = IncompleteModel(F(1, 2), F(1, 2))
    # tail(t) = 2^{-t}; cutoff(k) = least t with 2^{-t} < 1/k!
    assert [model.cutoff(k) for k in range(7)] == [1, 1, 2, 3, 5, 7, 10]
    for k in range(13):
        assert model.approx_error(k) < F(1, 1) / __import__("math").factorial(k)


_MODEL_QUERIES = st.lists(
    st.tuples(st.sampled_from(["cutoff", "tail"]), st.integers(0, 10)),
    min_size=1,
    max_size=25,
)


@given(
    st.builds(F, st.integers(1, 50), st.integers(1, 50)),
    st.builds(F, st.integers(1, 9), st.just(10)),
    _MODEL_QUERIES,
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_model_tables_equal_the_closed_form_in_any_query_order(c, rho, queries):
    """One model answers every query from its tables; each answer equals
    the closed form, and each cutoff the naive upward scan."""
    model = IncompleteModel(c, rho)
    for kind, i in queries:
        got = getattr(model, kind)(i)
        if kind == "cutoff":
            assert got == scan_cutoff(c, rho, i)
        else:
            assert got == c * rho ** i / (1 - rho)


def test_model_cutoffs_agree_when_asked_in_descending_order():
    c, rho = F(3, 7), F(5, 6)
    down, up = IncompleteModel(c, rho), IncompleteModel(c, rho)
    descending = [down.cutoff(k) for k in range(12, -1, -1)]
    assert descending[::-1] == [up.cutoff(k) for k in range(13)]
    assert descending[::-1] == [scan_cutoff(c, rho, k) for k in range(13)]


def test_model_tables_stay_out_of_equality_hash_and_bytes():
    fresh, used = IncompleteModel(F(1, 2), F(1, 3)), IncompleteModel(F(1, 2), F(1, 3))
    used.ambient_dim(12)
    used.y_truncation(5)
    assert fresh == used and hash(fresh) == hash(used)
    assert digest(fresh) == digest(used)
    with pytest.raises(DomainError):
        used.tail(-1)


_COORDS = st.lists(st.builds(F, st.integers(-40, 40), st.integers(1, 30)), min_size=1, max_size=12)


@given(
    st.builds(F, st.integers(1, 50), st.integers(1, 50)),
    st.builds(F, st.integers(1, 9), st.just(10)),
    _COORDS,
    st.integers(1, 14),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_exact_distance_equals_the_fraction_reference(c, rho, coords, other_width):
    """||y - v||_1 from the cached integer forms is the sum of |y(n) - v(n)|
    over v's width plus y's tail beyond it, whichever widths came first."""
    model = IncompleteModel(c, rho)
    model.y_truncation(other_width)
    w = len(coords)
    reference = sum(abs(c * rho ** n - x) for n, x in enumerate(coords)) + c * rho ** w / (1 - rho)
    assert model.exact_distance(exact_vector(coords)) == reference


def test_y_truncation_is_one_vector_per_width():
    model = IncompleteModel(F(2, 3), F(3, 5))
    assert model.y_truncation(7) is model.y_truncation(7)
    assert model.y_truncation(7).coords == tuple(F(2, 3) * F(3, 5) ** n for n in range(7))
    assert model.y_truncation(4).coords == model.y_truncation(7).coords[:4]


def test_model_rejects_l2_and_bad_rho():
    with pytest.raises(DomainError):
        IncompleteModel(F(1, 2), F(1))
    with pytest.raises(DomainError):
        IncompleteModel(F(0), F(1, 2))


def _minus_y_k(model, k, g):
    """g - y_k in Fraction coordinates, y_k being y cut at cutoff(k)."""
    y, t = model.y_truncation(g.dim).coords, model.cutoff(k)
    return tuple(x - y[n] if n < t else x for n, x in enumerate(g.coords))


def test_first_term_uses_unit_coefficient():
    model = IncompleteModel(F(1, 2), F(1, 2))
    _, seq = incomplete_space_sequence(model, 2)
    assert _minus_y_k(model, 0, seq[0])[0] == 1  # coefficient (0+2)^0 on the first member


def test_k2_coefficients_match_hand_expansion():
    model = IncompleteModel(F(1, 2), F(1, 2))
    _, seq = incomplete_space_sequence(model, 2)
    assert _minus_y_k(model, 2, seq[2])[:3] == (F(1, 4), F(1, 9), F(1, 16))


def test_convergence_bound_exact_up_to_k12():
    model = IncompleteModel(F(1, 2), F(1, 2))
    gaps, seq = incomplete_space_sequence(model, 12)
    assert gaps == convergence_gaps(model, seq)
    assert len(gaps) == 13
    for k, (lhs, rhs) in enumerate(gaps):
        assert lhs <= rhs
        assert rhs == model.approx_error(k) + F(k + 1, 2 ** k)


def test_sequence_supports_contain_prefix():
    model = IncompleteModel(F(1, 2), F(1, 2))
    _, seq = incomplete_space_sequence(model, 6)
    for k, g in enumerate(seq):
        assert set(range(k + 1)) <= set(g.support())


def test_sequence_builder_refuses_the_first_violated_bound(monkeypatch):
    import oclab.constructors as constructors_mod

    def planted(model, sequence):
        gaps = convergence_gaps(model, sequence)
        for k in (3, 5):
            gaps[k] = (gaps[k][1] + 1, gaps[k][1])
        return gaps

    monkeypatch.setattr(constructors_mod, "convergence_gaps", planted)
    with pytest.raises(ConstructionError, match="k=3"):
        incomplete_space_sequence(IncompleteModel(F(1, 2), F(1, 2)), 6)


# ---------------------------------------------------------------------------
# geometric variant and schedules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "vals, onset",
    [([], 0), ([5], 0), ([3, 2, 1], 0), ([1, 2, 1], 1), ([2, 2, 1], 1), ([2, 1, 3, 2], 2), ([1, 2, 3], 2)],
)
def test_onset_is_the_last_non_decrease(vals, onset):
    assert _onset(vals) == onset


def test_variant_dyadic_expansion_at_k1():
    model = IncompleteModel(F(1, 2), F(1, 2))
    sch = GeometricSchedule(tuple(F(1, 2 ** (n + 1)) for n in range(3)), 0)
    _, seq = geometric_variant_sequence(model, sch, 2)
    assert _minus_y_k(model, 1, seq[1])[:2] == (F(1, 4), F(1, 16))
    assert _minus_y_k(model, 0, seq[0])[0] == F(1, 2)  # lambda_0


def test_harmonic_schedule_passes_j3_k8():
    model = IncompleteModel(F(1, 2), F(1, 2))
    sch = GeometricSchedule(tuple(F(1, n + 2) for n in range(9)), 3)
    onsets = verify_schedule(model, sch, 8)
    assert len(onsets) == 4
    assert all(o < 8 for o in onsets)


def test_dyadic_schedule_fails_fast_decay_with_named_indices():
    model = IncompleteModel(F(1, 2), F(1, 2))
    sch = GeometricSchedule(tuple(F(1, 2 ** (n + 1)) for n in range(9)), 3)
    with pytest.raises(ScheduleError) as err:
        verify_schedule(model, sch, 8)
    assert "n=" in str(err.value) and "j=" in str(err.value)


def test_variant_builder_checks_the_schedule_and_returns_its_onsets():
    model = IncompleteModel(F(1, 2), F(1, 2))
    harmonic = GeometricSchedule(tuple(F(1, n + 2) for n in range(9)), 3)
    onsets, seq = geometric_variant_sequence(model, harmonic, 8)
    assert onsets == verify_schedule(model, harmonic, 8) and len(seq) == 9
    dyadic = GeometricSchedule(tuple(F(1, 2 ** (n + 1)) for n in range(9)), 3)
    with pytest.raises(ScheduleError):
        geometric_variant_sequence(model, dyadic, 8)


@pytest.mark.parametrize("rate", [F(0), F(1), F(-1, 2), F(3, 2)])
def test_schedule_rates_must_lie_in_the_open_unit_interval(rate):
    # verify_schedule would divide by 0 ** j, or check a rate condition
    # that no geometric schedule has
    with pytest.raises(DomainError, match=f"rate {rate} outside"):
        GeometricSchedule((rate,), 0)


def test_schedule_must_decrease():
    with pytest.raises(DomainError):
        GeometricSchedule((F(1, 2), F(1, 2)), 1)
    with pytest.raises(DomainError):
        GeometricSchedule((F(1, 4), F(1, 2)), 1)


# ---------------------------------------------------------------------------
# sliding hump
# ---------------------------------------------------------------------------


def _assert_extraction_properties(data, L):
    """The four extraction properties, re-derived from coordinates."""
    n_value, eps = data.n_value, data.epsilon
    for g, (x, cut) in enumerate(zip(data.extracted, data.cuts)):
        assert window_mass(x.coords, 0, cut) <= n_value + eps                # (i)
        assert all(max(y.support()) < cut for y in data.extracted[:g])      # (ii)
        assert window_mass(x.coords, cut, L) >= 1 - n_value - eps            # (iii)
        assert window_mass(x.coords, data.alpha0, cut) <= eps               # (iv)


def test_disjoint_supports_extract_everything():
    S = [unit_vector(i, 15) for i in (0, 5, 10)]
    data = sliding_hump_extract(S, F(1, 10))
    assert data.n_value == 0
    assert data.members == (0, 1, 2)
    _assert_extraction_properties(data, 15)
    # cuts sit between consecutive supports
    assert data.cuts[1] <= 5 and data.cuts[2] <= 10


def test_shared_left_mass_instance():
    S = blocks(200, 15, F(3, 10))
    data = sliding_hump_extract(S, F(1, 20))
    assert data.n_value == F(3, 10)
    assert data.alpha0 == 3
    assert len(data.extracted) == 15
    _assert_extraction_properties(data, 200)


def test_n_table_matches_double_loop_oracle_and_monotone():
    S = blocks(60, 4, F(1, 5))
    data = sliding_hump_extract(S, F(1, 10))
    oracle = prefix_min_table([v.coords for v in S], 60)
    assert list(data.n_table) == oracle
    assert all(a <= b for a, b in zip(data.n_table, data.n_table[1:]))


def test_family_with_all_mass_left_of_plateau_is_impossible_case():
    S = [unit_vector(0, 10), unit_vector(1, 10)]
    with pytest.raises(ExtractionError):
        sliding_hump_extract(S, F(1, 10))


def test_eps_precondition_enforced():
    S = blocks(200, 15, F(3, 10))
    with pytest.raises(DomainError):
        sliding_hump_extract(S, F(1, 2))


@pytest.mark.parametrize("eps", [F(0), F(-1, 20)])
def test_extraction_needs_a_positive_eps(eps):
    # below 0 no member is within eps of the floor, and the extraction
    # would come back empty
    with pytest.raises(DomainError, match="eps must be positive"):
        sliding_hump_extract(blocks(60, 4, F(1, 5)), eps)


def test_extraction_refuses_members_of_different_lengths():
    # the prefix-mass table would be cut to the shortest member by zip
    with pytest.raises(PreconditionError, match="share one index range"):
        sliding_hump_extract([unit_vector(0, 3), unit_vector(1, 4)], F(1, 10))


def test_members_must_be_unit_l1():
    S = [exact_vector([F(1, 2), F(1, 4)])]
    with pytest.raises(PreconditionError):
        sliding_hump_extract(S, F(1, 10))


@st.composite
def _hump_families(draw):
    """L1 unit vectors over [0, L), each a left block of small weights and a
    signed hump, with unlike denominators, and an eps."""
    L = draw(st.integers(3, 30))
    lead = draw(st.integers(0, 3))
    members = []
    for _ in range(draw(st.integers(1, 6))):
        weights = [0] * L
        for i in range(min(lead, L - 1)):
            weights[i] = draw(st.integers(0, 3))
        start = draw(st.integers(min(lead, L - 1), L - 1))
        for i in range(start, start + draw(st.integers(1, L - start))):
            weights[i] = draw(st.integers(-4, 4))
        if not any(weights):
            weights[start] = 1
        total = sum(map(abs, weights))
        members.append([F(w, total) for w in weights])
    return members, draw(st.sampled_from([F(1, 40), F(1, 20), F(1, 10), F(1, 8), F(1, 4)]))


@given(case=_hump_families())
# after two picks the last member's mass at the cut is 1/3, above N + eps =
# 1/4 by less than 1/D for D = 3, so it must stay out
@example(case=([[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, F(1, 3), 0, 0, 0, F(2, 3)]], F(1, 4)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_extraction_equals_the_fraction_sum_oracle(case):
    members, eps = case
    try:
        data = sliding_hump_extract([exact_vector(c) for c in members], eps)
        got = list(data.n_table), data.alpha0, list(data.members), list(data.cuts)
    except ExtractionError:
        got = "extraction"
    except DomainError:
        got = "domain"
    assert got == sliding_hump_picks(members, eps)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=20, max_value=60))
@settings(max_examples=30, deadline=None)
def test_extraction_properties_hold_on_random_block_instances(m, L):
    S = blocks(L, m, F(1, 4))
    data = sliding_hump_extract(S, F(1, 10))
    _assert_extraction_properties(data, L)

