import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from oclab import cli
from oclab.errors import CertificationError
from oclab.constructors import IncompleteModel, _perturbed_approximants
from oclab.verify import _fractions, check_schedule, check_separated, main

# the reports CI's installed-script step verifies, at its configs or smaller
CHECKED = {
    "klee": ("klee", "lambdas = 1/10, 1/5, 3/10\nd = 2\n"),
    "klee-d3": ("klee", "lambdas = 1/10, 1/5, 3/10, 2/5, 9/20\nd = 3\n"),
    "klee-sampled": ("klee", "lambdas = 1/10, 1/5, 3/10, 2/5, 9/20\nd = 3\nsubset_samples = 4\n"),
    "sliding-hump": ("sliding-hump", "L = 40\nm = 4\nsamples = 20\n"),
    "sliding-hump-L200": ("sliding-hump", "L = 200\nm = 15\nsamples = 3000\n"),
    "separated-L1": ("separated", "d = 4\ntag = L1\n"),
    "separated-L2": ("separated", "d = 6\ntag = L2\n"),
    "separated-Linf": ("separated", "d = 6\ntag = Linf\n"),
    "incomplete": ("incomplete", f"K = 28\nks = {','.join(map(str, range(6, 29)))}\nj_max = 5\n"),
    "cover-escape": ("cover", "mode = escape\n"),
    "probe": ("probe", ""),
    "probe-basis": ("probe", "variant = basis\nK = 10\nwindow = 4\n"),
    "fd-dense": ("fd-dense", "d = 3\nn = 6\n"),
    "fd-dense-d8": ("fd-dense", "d = 8\nn = 12\n"),
    "fd-dense-d9": ("fd-dense", "d = 9\nn = 12\n"),
    "fd-dense-unit": ("fd-dense", "d = 5\nn = 14\ntargets = none\n"),
    "fd-dense-third": ("fd-dense", "d = 5\nn = 14\nradius = 1/3\n"),
    "fd-dense-d1": ("fd-dense", "d = 1\nn = 8\n"),
    "fd-dense-d2": ("fd-dense", "d = 2\nn = 40\n"),
    "geometric-variant": ("geometric-variant", "K = 8\nj_max = 3\n"),
}
# one report of each other scenario, which gets the re-dump and
# certificate_refs check only
CANONICAL_ONLY = {
    "free-set": ("free-set", "n = 9\nf = chain\n"),
    "cover-grid": ("cover", "mode = grid\npoints = 9\n"),
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Each report freshly written by the command line, by name."""
    root = tmp_path_factory.mktemp("reports")
    out = {}
    for name, (scenario, config) in {**CHECKED, **CANONICAL_ONLY}.items():
        (root / f"{name}.cfg").write_text(config, encoding="utf-8")
        out[name] = root / f"{name}.json"
        assert cli.main([scenario, "--config", str(root / f"{name}.cfg"), "--out", str(out[name])]) == 0
    return out


def _verify(*paths):
    """Run the verifier in this process; its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(p) for p in paths])
    return code, err.getvalue()


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _forge(path, out, edit, resign=True):
    """A copy of the report at ``path`` with ``edit`` applied, written
    canonically to ``out``; with ``resign`` its certificate_refs are
    recomputed, so only the check that decides the edited fact can fail."""
    record = json.loads(path.read_text(encoding="utf-8"))
    edit(record)
    if resign:
        record["constructed"]["certificate_refs"] = [
            hashlib.sha256(_dump(c).encode("utf-8")).hexdigest() for c in record["certificates"]
        ]
    out.write_text(_dump(record) + "\n", encoding="utf-8")
    return out


@pytest.mark.parametrize("name", sorted({**CHECKED, **CANONICAL_ONLY}))
def test_fresh_reports_pass_every_check(reports, name):
    assert _verify(reports[name]) == (0, "")


def test_the_module_runs_as_a_script(reports):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "oclab.verify", str(reports["klee"]), str(reports["cover-escape"])],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")


def _set(path, value):
    """An edit that puts ``value(old)`` at ``path`` inside the record."""
    def edit(record):
        *head, last = path
        for key in head:
            record = record[key]
        record[last] = value(record[last])
    return edit


def _bump(text):
    return str(F(text) + F(1, 1000))


def _move_member_1_next_to_member_0(record):
    # v1 becomes v0 + v1/10: the span is the same, and v1 lies near v0
    vectors = record["constructed"]["vectors"]
    vectors[1] = [str(F(a) + F(b) / 10) for a, b in zip(vectors[0], vectors[1])]


def _scale_members_by_10(record):
    # rank and pairwise distances only grow, so only the norm check fails
    vectors = record["constructed"]["vectors"]
    vectors[:] = [[str(10 * F(x)) for x in v] for v in vectors]


def _wrap_subset_0(record):
    record["certificates"][0]["subset"] = [-5, -4, -3]


def _misclassify(record):
    (cert,) = record["certificates"]
    cert["verdict"] = cert["witness"]["classification"] = "divergent"


def _duplicate_member_0(record):
    vectors = record["constructed"]["vectors"]
    vectors[1] = list(vectors[0])


def _klee_proper(record):
    # subset [0, 1, 3] claimed singular, with a witness and no pivot log to replay
    cert = record["certificates"][1]
    cert.update(verdict="Proper", witness=["1", "0", "0"], pivot_log=None)


def _shift_the_curve(record):
    # every point (1, l) moved to (1, l + 1/7): each pair's determinant is the
    # same, so only the pivot logs are re-derived
    vectors = record["constructed"]["vectors"]
    for v in vectors:
        v[1] = str(F(v[1]) + F(1, 7))
    for cert in record["certificates"]:
        rows = [[F(x) for x in vectors[i]] for i in cert["subset"]]
        (s0, s1) = [math.lcm(*(x.denominator for x in row)) for row in rows]
        cert["pivot_log"]["row_scales"] = [s0, s1]
        a, b = ([int(x * s) for x in row] for row, s in zip(rows, (s0, s1)))
        cert["pivot_log"]["steps"] = [[0, 0, a[0]], [1, 1, a[0] * b[1] - a[1] * b[0]]]


def _repeat_a_node(record):
    params = record["params"]
    params["lambdas"] = params["lambdas"].replace("3/10", "1/10")


def _move_g3(record):
    # g_3 moved by 10^-9 in its first coordinate, its distance re-derived
    params, g = record["params"], record["constructed"]["vectors"][3]
    g[0] = str(F(g[0]) + F(1, 10**9))
    c, rho = F(params["c"]), F(params["rho"])
    distance = sum(abs(c * rho**n - F(x)) for n, x in enumerate(g)) + c * rho ** len(g) / (1 - rho)
    record["certificates"][3]["witness"]["distance"] = str(distance)


def _zero_the_basis(record):
    # every member zero, so the sequence seems to converge in norm to the zero limit
    (cert,) = record["certificates"]
    witness, vectors = cert["witness"], record["constructed"]["vectors"]
    record["constructed"]["vectors"] = [["0"] * len(v) for v in vectors]
    witness["coord_sups"] = witness["norm_gaps"] = ["0"] * len(vectors)
    cert["verdict"] = witness["classification"] = "norm-convergent"


def _plant_a_dependent_member(record):
    # v3 becomes v0 + v1, a combination of d - 1 = 2 others
    vectors = record["constructed"]["vectors"]
    vectors[3] = [str(F(a) + F(b)) for a, b in zip(vectors[0], vectors[1])]


def _plant_a_combination_of_members_0_to_4(record):
    # v5 becomes 4/9 (v0 + ... + v4): every pair stays apart and v5 inside the
    # unit ball, so only the rank is wrong; the density log's row scale for v5
    # clears its new denominators
    vectors = record["constructed"]["vectors"]
    v5 = [F(4, 9) * sum(map(F, column)) for column in zip(*vectors[:5])]
    vectors[5] = [str(x) for x in v5]
    record["certificates"][1]["pivot_log"]["row_scales"][5] = math.lcm(*(x.denominator for x in v5))


def _move_ball_2_onto_vector_2(record):
    # a tiny ball about the vector itself holds it, but is no target ball
    witness = record["certificates"][2]["witness"]
    witness["center"] = list(record["constructed"]["vectors"][2])
    witness["radius"] = "1/1000000"


TAMPERS = {
    "sampled-min": ("sliding-hump", _set(["certificates", 0, "witness", "sampled_min"], _bump),
                    "check_samples", "sampled_min is not the smallest sampled norm"),
    "split-gap": ("sliding-hump", _set(["certificates", 0, "witness", "split_log", 1, "approximation_gap"], _bump),
                  "check_split_log", "gap of pick 1"),
    "klee-pivot": ("klee-d3", _set(["certificates", 0, "pivot_log", "steps", 1, 2], lambda p: p + 1),
                   "check_klee", r"certificate \[0, 1, 2\]: pivot value mismatch at step 1"),
    "klee-det": ("klee", _set(["certificates", 2, "witness", "det_product"], _bump),
                 "check_klee", r"certificate \[1, 2\]: det_product is not the product"),
    "klee-dropped": ("klee-d3", lambda r: r["certificates"].pop(3),
                     "check_klee", r"an exhaustive report does not certify the C\(5, 3\) subsets in order"),
    "klee-wrapped": ("klee-d3", _wrap_subset_0,
                     "check_klee", r"subset \[-5, -4, -3\] is not 3 increasing indices below 5"),
    "klee-proper": ("klee-d3", _klee_proper, "check_klee", r"certificate \[0, 1, 3\] is not Full"),
    "klee-repeated-node": ("klee", _repeat_a_node, "check_klee", "the lambdas are not distinct"),
    "klee-shifted-curve": ("klee", _shift_the_curve, "check_klee", r"the vectors are not the lambdas' \(1, l"),
    "incomplete-moved-member": ("incomplete", _move_g3,
                                "check_approximation_bounds", "the vectors are not g_0..g_28"),
    "probe-basis-zeros": ("probe-basis", _zero_the_basis,
                          "check_probe", "the vectors are not the basis sequence for K = 10"),
    "incomplete-distance": ("incomplete", _set(["certificates", 3, "witness", "distance"], _bump),
                            "check_approximation_bounds", "distance of g_3 is not"),
    "incomplete-bound": ("incomplete", _set(["certificates", 7, "witness", "bound"], _bump),
                         "check_approximation_bounds", "bound at k=7 is not"),
    "probe-sup": ("probe", _set(["certificates", 0, "witness", "coord_sups", 2], _bump),
                  "check_probe", "coord_sups are not the sups over the window"),
    "probe-class": ("probe", _misclassify, "check_probe", "the classification is not norm-convergent"),
    "probe-basis-class": ("probe-basis", _misclassify, "check_probe", "the classification is not coordinatewise-only"),
    "annihilator": ("incomplete", _set(["constructed", "annihilator", 3], _bump),
                    "check_annihilator", "the annihilator does not kill g_6"),
    "separated-moved": ("separated-L1", _move_member_1_next_to_member_0,
                        "check_separated", "members 0 and 1 are within 1 - eps"),
    "separated-L1-scaled": ("separated-L1", _scale_members_by_10,
                            "check_separated", "member 0 has L1 norm 10, not 1"),
    "separated-L2-scaled": ("separated-L2", _scale_members_by_10,
                            "check_separated", "member 0 lies outside the unit ball"),
    "separated-Linf-scaled": ("separated-Linf", _scale_members_by_10,
                              "check_separated", "member 0 has Linf norm 10, not 1"),
    "separated-duplicated": ("separated-L2", _duplicate_member_0,
                             "check_separated", "members 0 and 1 are within 1 - eps"),
    "separated-dropped": ("separated-L2", lambda r: r["constructed"]["vectors"].pop(),
                          "check_separated", "the members are not 6 points of R\\^6"),
    "separated-dependent": ("separated-L2", _plant_a_combination_of_members_0_to_4,
                            "check_spot_density", "density certificate: log contains more steps than the replay produced"),
    "separated-spot-pivot": ("separated-L2", _set(["certificates", 1, "pivot_log", "steps", 5, 2], lambda p: p + 1),
                             "check_spot_density", "density certificate: pivot value mismatch at step 5"),
    "fd-dense-dependent": ("fd-dense", _plant_a_dependent_member,
                           "check_general_position", r"subset \[0, 1, 3\] is singular"),
    "fd-dense-duplicated": ("fd-dense", _duplicate_member_0,
                            "check_general_position", r"subset \[0, 1, 2\] is singular"),
    "fd-dense-swept": ("fd-dense", _set(["certificates", 6, "witness", "subsets_checked"], lambda c: c - 1),
                       "check_general_position", "the sweep certificate does not claim 20 subsets and no failure"),
    "fd-dense-spot-pivot": ("fd-dense", _set(["certificates", 7, "pivot_log", "steps", 2, 2], lambda p: p + 1),
                            "check_spot_density", "density certificate: pivot value mismatch at step 2"),
    "fd-dense-spot-subset": ("fd-dense", _set(["certificates", 7, "subset"], lambda sub: [1, 2, 3]),
                             "check_spot_density", r"the density certificate is not Full on the subset 0\.\.2"),
    "fd-dense-ball": ("fd-dense", _set(["certificates", 2, "witness", "radius"], lambda r: "1/1000000"),
                      "check_ball_membership", "vector 2 lies outside its ball"),
    "fd-dense-ball-moved": ("fd-dense", _move_ball_2_onto_vector_2,
                            "check_ball_membership", "ball 2 is not the target ball params and seed give"),
    "schedule-onset": ("geometric-variant", _set(["certificates", 0, "witness", "onsets", 0], lambda o: o + 1),
                       "check_schedule", r"the schedule certificate does not claim the onsets \[1, 1, 1, 2\]"),
    "schedule-moved-member": ("geometric-variant", _set(["constructed", "vectors", 2, 0], _bump),
                              "check_schedule", "the vectors are not g_0..g_8 of the harmonic schedule"),
    "schedule-threshold": ("geometric-variant", _set(["params", "threshold"], lambda t: "1/1000"),
                           "check_schedule", "the scaled error at n = 8 for j = 2 is not below the threshold"),
    "escape-pairing": ("cover-escape", _set(["certificates", 0, "witness", "pairings", 0], _bump),
                       "check_escape", "the written pairing is not the escapee's"),
}


@pytest.mark.parametrize("label", sorted(TAMPERS))
def test_each_tampered_report_fails_its_named_check(reports, tmp_path, label):
    name, edit, check, message = TAMPERS[label]
    forged = _forge(reports[name], tmp_path / f"{label}.json", edit)
    code, err = _verify(forged)
    assert code == 4
    assert re.search(f"{re.escape(str(forged))}: {check}: CertificationError: {message}", err), err


# members 0 and 1 at distance exactly 1 - eps = 19/20 in the tag's norm, and
# member 1 moved just past it; the members' denominators differ, so the
# integer distances are cross-multiplied
@pytest.mark.parametrize(
    "tag, u, at_bound, apart",
    [
        ("L1", ["1", "0"], ["21/40", "19/40"], ["1/2", "1/2"]),
        ("L2", ["1", "0"], ["43/100", "19/25"], ["21/50", "19/25"]),
        ("Linf", ["1", "1/2"], ["1/20", "1"], ["1/21", "1"]),
    ],
)
def test_separated_pairs_at_the_bound_are_too_close(tag, u, at_bound, apart):
    record = {"params": {"d": 2, "eps": "1/20", "tag": tag}}
    with pytest.raises(CertificationError, match="members 0 and 1 are within 1 - eps"):
        check_separated(record, _fractions([u, at_bound]))
    check_separated(record, _fractions([u, apart]))


def test_a_schedule_still_rising_at_the_horizon_fails():
    # at K = 12 the dyadic scaled errors for j = 3 still rise at n = 12, so
    # the construction refuses this config; its vectors do not depend on j_max
    lambdas = [F(1, 2 ** (n + 1)) for n in range(13)]
    vectors = _perturbed_approximants(IncompleteModel(F(1, 2), F(1, 2)), 12, lambda k, j: lambdas[k] ** (j + 1))
    params = {"K": 12, "j_max": 3, "c": "1/2", "rho": "1/2", "schedule": "dyadic", "threshold": "1"}
    with pytest.raises(CertificationError, match="the scaled errors still rise at n = 12 for j = 3"):
        check_schedule({"params": params}, [list(v.coords) for v in vectors])


def test_a_dropped_certificate_no_longer_matches_the_refs(reports, tmp_path):
    forged = _forge(reports["klee-d3"], tmp_path / "dropped.json", lambda r: r["certificates"].pop(), resign=False)
    code, err = _verify(forged)
    assert code == 4 and f"{forged}: check_canonical: CertificationError: certificate_refs do not match" in err


def test_a_report_that_is_not_canonical_fails(reports, tmp_path):
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(json.loads(reports["probe"].read_text()), sort_keys=True) + "\n")
    code, err = _verify(loose)
    assert code == 4 and "check_canonical: CertificationError: the report does not re-dump to its bytes" in err


@pytest.mark.parametrize(
    "label, edit",
    [
        ("no-certificates", lambda r: r.pop("certificates")),
        ("no-params", lambda r: r.pop("params")),
        ("zero-denominator", _set(["constructed", "vectors", 0, 1], lambda c: "1/0")),
        ("not-a-number", _set(["constructed", "vectors", 0, 1], lambda c: "x")),
        ("unknown-scenario", _set(["scenario"], lambda s: "kleee")),
    ],
)
def test_a_malformed_report_exits_4_naming_the_file(reports, tmp_path, label, edit):
    forged = _forge(reports["klee-d3"], tmp_path / f"{label}.json", edit, resign=False)
    code, err = _verify(forged)
    assert code == 4 and f"certification failure: {forged}: " in err


def test_text_that_is_not_json_exits_4_naming_the_file(tmp_path):
    for text in (b"{", b"\xff\xfe", b"[1, 2]"):
        path = tmp_path / "garbage.json"
        path.write_bytes(text)
        code, err = _verify(path)
        assert code == 4 and f"certification failure: {path}: check_canonical: " in err


def test_a_missing_report_exits_5_after_checking_the_rest(reports, tmp_path):
    missing = tmp_path / "missing.json"
    code, err = _verify(reports["klee"], missing, reports["probe"])
    assert code == 5 and "cannot read report" in err and str(missing) in err


def test_no_report_is_a_usage_error():
    assert _verify()[0] == 2
