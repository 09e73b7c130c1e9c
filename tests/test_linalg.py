import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oclab.errors import CertificationError, DomainError, ModeError
from oclab.linalg import (
    Matrix,
    NormTag,
    PivotLog,
    Vector,
    det_exact,
    dual_norm,
    exact_vector,
    norm,
    norm_squared,
    nullspace_exact,
    pairing,
    projection_distance_sq,
    rank_exact,
    unit_vector,
    vandermonde_det,
    _extend,
)
from oclab.certify import replay_pivot_log
from oclab.constructors import klee_vectors

from oracles import cofactor_det, normal_eq_residual_sq, rref_rank

rationals = st.fractions(
    min_value=F(-50), max_value=F(50), max_denominator=40
)


# ---------------------------------------------------------------------------
# vectors and norms
# ---------------------------------------------------------------------------


def test_vector_coercion_from_strings_and_ints():
    v = exact_vector(["1/2", 3, F(1, 7)])
    assert v.coords == (F(1, 2), F(3), F(1, 7))


def test_empty_vector_rejected():
    with pytest.raises(DomainError):
        exact_vector([])


def test_float_in_exact_mode_rejected():
    with pytest.raises(ModeError):
        Vector((0.5, 1.0))


def test_norms_on_simple_vector():
    v = exact_vector([3, -4])
    assert norm(v, NormTag.L1) == 7
    assert norm(v, NormTag.LINF) == 4
    assert norm_squared(v) == 25


def test_exact_l2_norm_raises_mode_error():
    v = exact_vector([3, -4])
    with pytest.raises(ModeError):
        norm(v, NormTag.L2)


def test_dual_norm_swaps_l1_and_linf():
    v = exact_vector([3, -4])
    assert dual_norm(v, NormTag.L1) == 4  # functional on an L1 space -> sup norm
    assert dual_norm(v, NormTag.LINF) == 7


def test_restrict_zeroes_outside_window():
    v = exact_vector([1, 2, 3, 4, 5])
    w = v.restrict(1, 3)
    assert w.coords == (F(0), F(2), F(3), F(0), F(0))


@given(st.lists(rationals, min_size=1, max_size=10), st.data())
def test_restriction_splits_l1_norm(coords, data):
    """L1 mass of [0,a) and [a,n) pieces adds up to the whole."""
    v = exact_vector(coords)
    a = data.draw(st.integers(min_value=0, max_value=len(coords)))
    left = v.restrict(0, a)
    right = v.restrict(a, v.dim)
    assert norm(left, NormTag.L1) + norm(right, NormTag.L1) == norm(v, NormTag.L1)
    assert (left + right).coords == v.coords


def test_pairing_is_exact_dot_product():
    f = exact_vector([1, -2, 3])
    v = exact_vector(["1/2", "1/3", "1/6"])
    assert pairing(f, v) == F(1, 2) - F(2, 3) + F(1, 2)


# ---------------------------------------------------------------------------
# rank / determinant / pivot logs
# ---------------------------------------------------------------------------


def test_identity_rank_and_pivot_log():
    M = Matrix.from_rows([unit_vector(0, 2), unit_vector(1, 2)])
    result = rank_exact(M)
    assert result.rank == 2
    assert result.log.steps == ((0, 0, 1), (1, 1, 1))


def test_klee_family_rank_and_det():
    fam = klee_vectors([F(1, 10), F(1, 5), F(3, 10)], 3)
    M = Matrix.from_rows(list(fam.vectors))
    assert rank_exact(M).rank == 3
    assert det_exact(M) == F(1, 500)
    assert vandermonde_det([F(1, 10), F(1, 5), F(3, 10)]) == F(1, 500)


def test_rank_deficient_matrix():
    M = Matrix.from_rows([exact_vector([1, 2]), exact_vector([2, 4]), exact_vector([3, 6])])
    assert rank_exact(M).rank == 1
    assert det_exact(Matrix.from_rows([exact_vector([1, 2]), exact_vector([2, 4])])) == 0


def test_det_requires_square():
    M = Matrix.from_rows([exact_vector([1, 2, 3])])
    with pytest.raises(DomainError):
        det_exact(M)


def test_rank_matches_rref_oracle_and_transpose():
    rng = random.Random(20817)
    for _ in range(1000):
        m = rng.randrange(1, 8)
        n = rng.randrange(1, 8)
        rows = [
            [F(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(n)]
            for _ in range(m)
        ]
        M = Matrix.from_rows([exact_vector(r) for r in rows])
        r1 = rank_exact(M).rank
        assert r1 == rref_rank(rows)
        transposed = Matrix.from_rows([exact_vector(c) for c in zip(*rows)])
        assert r1 == rank_exact(transposed).rank


def test_det_matches_cofactor_oracle():
    rng = random.Random(991)
    for _ in range(200):
        n = rng.randrange(1, 6)
        rows = [
            [F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        M = Matrix.from_rows([exact_vector(r) for r in rows])
        assert det_exact(M) == cofactor_det(rows)


def test_pivot_log_replay_accepts_genuine_runs():
    rng = random.Random(5150)
    for _ in range(300):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 11)
        rows = [
            [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n)]
            for _ in range(m)
        ]
        if rng.random() < 0.5:  # rank-deficient: append a combination of two rows
            rows.append([a - 3 * b for a, b in zip(rows[0], rows[-1])])
        M = Matrix.from_rows([exact_vector(r) for r in rows])
        result = rank_exact(M)
        assert result.rank == rref_rank(rows)
        assert replay_pivot_log(M, result.log, result.rank) == result.rank


@pytest.mark.parametrize(
    "rows, scales, steps, det",
    [
        ([[0, 1], [1, 0]], (1, 1), ((1, 0, 1), (0, 1, 1)), F(-1)),
        ([[1, 2, 3], [2, 4, 7]], (1, 1), ((0, 0, 1), (1, 2, 1)), None),
        ([[0, 0, 1], [0, 2, 0], [3, 0, 0]], (1, 1, 1), ((2, 0, 3), (1, 1, 6), (0, 2, 6)), F(-6)),
        ([[1, F(1, 2)], [F(1, 3), 1]], (2, 3), ((0, 0, 2), (1, 1, 5)), F(5, 6)),
    ],
)
def test_pinned_pivot_logs(rows, scales, steps, det):
    # pivot rows, skipped columns, Bareiss pivots and determinant signs
    M = Matrix.from_rows([exact_vector(r) for r in rows])
    result = rank_exact(M)
    assert result.log.row_scales == scales
    assert result.log.steps == steps
    assert result.det == det
    assert replay_pivot_log(M, result.log, len(steps)) == len(steps)


def test_broken_complement_state_raises_certification_error():
    # pivot 2 does not divide the update (1*0 - 1*1) of coordinate 3
    state = (2, [0, 1], [(2, [1, 0]), (3, [0, 1])])
    with pytest.raises(CertificationError):
        _extend(state, (1, 1, 0, 0))


def test_pivot_log_replay_rejects_tampered_pivot():
    M = Matrix.from_rows([exact_vector([1, "1/2"]), exact_vector(["1/3", 1])])
    log = rank_exact(M).log
    steps = list(log.steps)
    row, col, piv = steps[0]
    steps[0] = (row, col, piv + 1)
    forged = PivotLog(log.shape, log.row_scales, tuple(steps))
    with pytest.raises(CertificationError):
        replay_pivot_log(M, forged)


def test_pivot_log_replay_rejects_wrong_rank_claim():
    M = Matrix.from_rows([exact_vector([1, 2]), exact_vector([2, 4])])
    log = rank_exact(M).log
    with pytest.raises(CertificationError):
        replay_pivot_log(M, log, expected_rank=2)


# ---------------------------------------------------------------------------
# nullspace
# ---------------------------------------------------------------------------


def test_nullspace_of_coordinate_rows():
    M = Matrix.from_rows([unit_vector(0, 3), unit_vector(1, 3)])
    basis = nullspace_exact(M)
    assert len(basis) == 1
    assert basis[0].coords == (F(0), F(0), F(1))


def test_vector_is_its_coordinates():
    """The norm belongs to the space, not the vector: rows and their
    annihilator witness stack into one matrix."""
    assert [f.name for f in dataclasses.fields(Vector)] == ["coords"]
    rows = [exact_vector([1, 2, 3]), exact_vector([0, 1, 1])]
    witness = nullspace_exact(Matrix.from_rows(rows))[0]
    assert rank_exact(Matrix.from_rows(rows + [witness])).rank == 3


def test_nullspace_annihilates_and_rank_nullity():
    rng = random.Random(77)
    for _ in range(200):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        rows = [
            exact_vector([F(rng.randrange(-4, 5)) for _ in range(n)])
            for _ in range(m)
        ]
        M = Matrix.from_rows(rows)
        basis = nullspace_exact(M)
        assert rank_exact(M).rank + len(basis) == n
        for b in basis:
            for r in rows:
                assert pairing(b, r) == 0
        if basis:
            assert rank_exact(Matrix.from_rows(basis)).rank == len(basis)


def test_full_rank_square_has_trivial_nullspace():
    M = Matrix.from_rows([exact_vector([2, 1]), exact_vector([1, 1])])
    assert nullspace_exact(M) == []


# ---------------------------------------------------------------------------
# vandermonde determinant
# ---------------------------------------------------------------------------


def test_vandermonde_singleton_is_one():
    assert vandermonde_det([F(1, 4)]) == 1


def test_vandermonde_empty_rejected():
    with pytest.raises(DomainError):
        vandermonde_det([])


def test_vandermonde_matches_elimination_on_random_nodes():
    rng = random.Random(4242)
    for _ in range(500):
        size = rng.randrange(2, 10)
        nodes = []
        while len(nodes) < size:
            cand = F(rng.randrange(-30, 31), rng.randrange(1, 12))
            if cand not in nodes:
                nodes.append(cand)
        rows = [exact_vector([lam ** p for p in range(size)]) for lam in nodes]
        assert vandermonde_det(nodes) == det_exact(Matrix.from_rows(rows))


def test_vandermonde_zero_iff_repeated_node():
    assert vandermonde_det([F(1, 3), F(1, 3)]) == 0
    assert vandermonde_det([F(1, 3), F(1, 4)]) != 0


# ---------------------------------------------------------------------------
# projection distance (exact lane)
# ---------------------------------------------------------------------------


def test_least_squares_agrees_with_exact_projection():
    rng = random.Random(31337)
    for _ in range(50):
        m = rng.randrange(2, 6)
        k = rng.randrange(1, m)
        cols = [
            [F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(m)]
            for _ in range(k)
        ]
        target = [F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(m)]
        exact_sq = projection_distance_sq(
            exact_vector(target), [exact_vector(c) for c in cols]
        )
        assert exact_sq == normal_eq_residual_sq(cols, target)


def test_projection_distance_orthogonal_case():
    x = unit_vector(2, 3)
    basis = [unit_vector(0, 3), unit_vector(1, 3)]
    assert projection_distance_sq(x, basis) == 1


def test_projection_distance_zero_for_member_of_span():
    basis = [exact_vector([1, 1, 0])]
    assert projection_distance_sq(exact_vector([2, 2, 0]), basis) == 0


def test_projection_distance_handles_dependent_basis():
    basis = [
        exact_vector([1, 0]),
        exact_vector([2, 0]),
    ]
    assert projection_distance_sq(exact_vector([0, 3]), basis) == 9
