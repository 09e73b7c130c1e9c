"""Acceptance suite: one test per headline guarantee, at stated tolerance.

Each test prints a single summary line; run with ``pytest -v`` to get the
per-criterion pass/fail listing.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from oclab.certify import (
    HyperplaneFunctional,
    all_subsets_full_rank,
    annihilator_decay_check,
    coefficient_samples,
    decay_bound,
    hyperplane_cover,
    l1_lower_bound_certificate,
    pigeonhole_majority,
    support_annihilator_witness,
    free_set_extract,
    weak_norm_convergence_probe,
)
from oclab.constructors import (
    IncompleteModel,
    OpenBall,
    fd_overcomplete,
    incomplete_space_sequence,
    convergence_gaps,
    klee_vectors,
    riesz_step,
    sliding_hump_extract,
)
from oclab.harness import block_family, run_scenario
from oclab.linalg import (
    Matrix,
    NormTag,
    dual_norm,
    exact_vector,
    norm_squared,
    null_vector,
    nullspace_exact,
    pairing,
    unit_vector,
    zero_vector,
)

from helpers import prefix_state
from oracles import brute_force_max_free_set, normal_eq_residual_sq, window_mass


def test_criterion_1_identity_principle_at_scale():
    start = time.perf_counter()
    lambdas = [F(i + 1, 81) for i in range(40)]
    assert all(0 < lam < F(1, 2) for lam in lambdas)
    report = run_scenario(
        "klee",
        {"lambdas": ",".join(str(l) for l in lambdas), "d": "8",
         "subset_samples": "500", "seed": "2026"},
    )
    elapsed = time.perf_counter() - start
    # the runner cross-checks the product-formula determinant against the
    # elimination determinant on every subset and raises on any mismatch
    assert len(report.certificates) == 500
    assert all(c["verdict"] == "Full" for c in report.certificates)
    assert elapsed <= 10.0
    print(f"criterion 1 PASS: 500 subsets Full in {elapsed:.2f}s")


def test_criterion_2_overcomplete_40_choose_4():
    start = time.perf_counter()
    rng = random.Random(40216)
    targets = []
    for _ in range(40):
        center = exact_vector([F(rng.randrange(-255, 256), 256) for _ in range(4)])
        targets.append(OpenBall(center, F(1, 2)))
    vectors = fd_overcomplete(4, 40, targets=targets, seed=40216)
    inside = sum(1 for v, ball in zip(vectors, targets) if ball.contains(v))
    assert inside == 40
    checked, failures = all_subsets_full_rank(vectors, 4)
    elapsed = time.perf_counter() - start
    assert checked == math.comb(40, 4) == 91390
    assert failures == []
    assert elapsed <= 60.0
    print(f"criterion 2 PASS: 91390 subsets rank 4, 40/40 balls, {elapsed:.2f}s")


def test_criterion_3_approximation_bound_and_decay():
    model = IncompleteModel(F(1, 2), F(1, 2))
    assert model.y_truncation(8).coords == tuple(F(1, 2 ** (n + 1)) for n in range(8))
    _, sequence = incomplete_space_sequence(model, 12)
    for k, (distance, bound) in enumerate(convergence_gaps(model, sequence)):
        assert distance <= bound  # exact rational comparison
        assert bound == model.approx_error(k) + F(k + 1, 2 ** k)
    assert decay_bound(0, 40) < F(1, 1000)

    _, long_seq = incomplete_space_sequence(model, 40)
    ks = list(range(6, 41))
    rows = [long_seq[k] for k in ks] + [model.y_truncation(long_seq[0].dim)]
    n = rows[0].dim
    e_star = null_vector(Matrix.from_rows(rows), (1,) + (0,) * (n - 1))
    report = annihilator_decay_check(model, long_seq, ks, [e_star], 5)
    decay = report.functionals[0]
    entry0 = decay.entries[0]
    assert entry0.j == 0 and entry0.min_bound < F(1, 1000)
    for entry in decay.entries:  # j = 0..5
        values = [float(b) for _, b in entry.bounds]
        onset = [k for k, _ in entry.bounds].index(entry.onset_k)
        tail = values[onset:]
        assert all(tail[i] > tail[i + 1] for i in range(len(tail) - 1))
    print("criterion 3 PASS: 13 exact bounds, B(0,40) < 1e-3, decay monotone j<=5")


def test_criterion_4_sliding_hump_ten_thousand_samples():
    start = time.perf_counter()
    family = block_family(200, 15, F(3, 10))
    data = sliding_hump_extract(family, F(1, 20))
    n_value, eps = data.n_value, data.epsilon
    for g, (x, cut) in enumerate(zip(data.extracted, data.cuts)):
        assert window_mass(x.coords, 0, cut) <= n_value + eps                # (i)
        assert all(max(y.support()) < cut for y in data.extracted[:g])      # (ii)
        assert window_mass(x.coords, cut, 200) >= 1 - n_value - eps          # (iii)
        assert window_mass(x.coords, data.alpha0, cut) <= eps               # (iv)
    samples = coefficient_samples(15, 10_000, seed=2026)
    assert all(total > 0 and sum(abs(n) for n in nums) == total for nums, total in samples)
    cert = l1_lower_bound_certificate(data, samples)
    elapsed = time.perf_counter() - start
    assert cert.constant == F(3, 5)
    assert cert.sample_count == 10_000
    assert cert.sampled_min >= F(3, 5)
    assert cert.sampled_min >= F(7, 20)  # (1 - N) / 2
    assert elapsed <= 30.0
    print(f"criterion 4 PASS: c = 3/5, 10^4 sampled norms >= 3/5, {elapsed:.2f}s")


def test_criterion_5_free_sets_versus_optimum():
    rng = random.Random(1273)
    for trial in range(200):
        n = rng.randrange(1, 13)
        fmap = [
            frozenset(rng.randrange(n) for _ in range(rng.randrange(0, 3)))
            for _ in range(n)
        ]
        H = free_set_extract(n, fmap)
        chosen = set(H)
        for a in H:  # freeness, re-derived from the raw map
            assert not (set(fmap[a]) - {a}) & (chosen - {a})
        assert 3 * len(H) >= brute_force_max_free_set(n, fmap)

        family = []
        for a in range(n):
            coords = [F(0)] * n
            for i in fmap[a] - {a}:
                coords[i] = F(rng.randrange(1, 9), rng.randrange(1, 5))
            family.append(exact_vector(coords))
        for gamma in H:
            record = support_annihilator_witness(family, H, gamma)
            assert record.gamma == gamma
    print("criterion 5 PASS: 200 instances free, within 3x of optimum, witnesses exact")


def test_criterion_6_pigeonhole_quota_and_escape():
    for h in (2, 3, 4):
        for count in (6, 9, 12, 15):
            points = []
            for t in range(count):
                coords = [F(t + i + 1) for i in range(h)]
                coords[t % h] = F(0)
                points.append(exact_vector(coords))
            planes = [
                HyperplaneFunctional(unit_vector(j, h)) for j in range(h)
            ]
            result = pigeonhole_majority(points, planes)
            assert result.quota == -(-count // h)
            assert len(result.members) >= result.quota
            for i in result.members:
                assert pairing(planes[result.hyperplane_index].coeffs, points[i]) == 0

    klee = klee_vectors([F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(9, 20)], 3)
    plane = HyperplaneFunctional(
        nullspace_exact(Matrix.from_rows(list(klee[:2])))[0]
    )
    escape = hyperplane_cover(list(klee), [plane])
    assert not escape.covered
    assert all(p != 0 for p in escape.escape_pairings)
    diag = hyperplane_cover(
        [exact_vector([1, 1])],
        [HyperplaneFunctional(unit_vector(j, 2)) for j in range(2)],
    )
    assert not diag.covered and all(p != 0 for p in diag.escape_pairings)
    print("criterion 6 PASS: 12 grid instances meet quota; escape pairings nonzero")


def test_criterion_7_riesz_dual_witnesses():
    rng = random.Random(71010)
    eps = F(1, 10)
    for tag in (NormTag.L1, NormTag.L2, NormTag.LINF):
        for trial in range(100):
            d = rng.randrange(2, 7)
            k = rng.randrange(1, d)
            basis = [
                exact_vector(
                    [F(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(d)]
                )
                for _ in range(k)
            ]
            step = riesz_step(prefix_state(basis, d), eps, tag, seed=trial)
            x, f = step.x, step.functional
            assert all(pairing(f, y) == 0 for y in basis)
            if tag is NormTag.L2:
                assert norm_squared(f) <= 1  # the exact L2 norm is irrational
            else:
                assert dual_norm(f, tag) <= 1
            assert pairing(f, x) >= 1 - eps
            if tag is NormTag.L2:
                # every L2 basis at this seed is independent, as the oracle needs
                residual_sq = normal_eq_residual_sq([b.coords for b in basis], x.coords)
                exact_dist = math.sqrt(float(residual_sq))
                assert abs(float(pairing(f, x)) - exact_dist) < 1e-10
    print("criterion 7 PASS: 300 dual witnesses exact; L2 matches projection to 1e-10")


def test_criterion_8_convergence_probe_classifications():
    model = IncompleteModel(F(1, 2), F(1, 2))
    _, sequence = incomplete_space_sequence(model, 25)
    limit = model.y_truncation(sequence[0].dim)
    probe = weak_norm_convergence_probe(sequence, limit, 8, 1e-6)
    assert probe.classification == "norm-convergent"
    assert float(probe.norm_gaps[-1]) < 1e-6  # reached by k = 25

    dim = 30
    basis_seq = [unit_vector(k, dim) for k in range(dim)]
    basis_probe = weak_norm_convergence_probe(
        basis_seq, zero_vector(dim), 8, 1e-6
    )
    assert basis_probe.classification == "coordinatewise-only"
    assert basis_probe.norm_gaps[-1] == 1  # exactly
    print("criterion 8 PASS: g_k norm-convergent by k=25; basis coordinatewise-only")


SCENARIO_CONFIGS = {
    "klee": {
        "lambdas": ",".join(str(F(i + 1, 81)) for i in range(40)),
        "d": "8",
        "subset_samples": "500",
        "seed": "2026",
    },
    "fd-dense": {"d": "4", "n": "40", "seed": "2026"},
    "separated": {"d": "6", "seed": "2026"},
    "incomplete": {"seed": "2026"},
    "geometric-variant": {"seed": "2026"},
    "sliding-hump": {"L": "200", "m": "15", "samples": "1000", "seed": "2026"},
    "free-set": {"n": "12", "f": "random", "seed": "2026"},
    "cover": {"mode": "grid", "seed": "2026"},
    "probe": {"K": "25", "window": "8", "seed": "2026"},
}


@pytest.mark.parametrize("name", sorted(SCENARIO_CONFIGS))
def test_criterion_9_deterministic_reports(name):
    first = run_scenario(name, dict(SCENARIO_CONFIGS[name]))
    second = run_scenario(name, dict(SCENARIO_CONFIGS[name]))
    assert first.canonical_bytes() == second.canonical_bytes()
    print(f"criterion 9 PASS ({name}): byte-identical reports")
