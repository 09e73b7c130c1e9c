import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from oclab.certify import DensityCertificate
from oclab.cli import main
from oclab.errors import CertificationError, ConfigError, OclabError, ScheduleError
from oclab.harness import (
    SCENARIO_NAMES,
    Report,
    emit_report,
    load_config,
    parse_config,
    run_scenario,
    scenario_schema,
)
from oclab.linalg import exact_vector
from oclab.serialize import canonical_json, digest, to_jsonable
from oclab.verify import main as verify_main

KLEE_KV = """
# five Klee directions in R^3
lambdas = 1/10, 1/5, 3/10, 2/5, 9/20
d = 3
"""

KLEE_JSON = '{"lambdas": "1/10, 1/5, 3/10, 2/5, 9/20", "d": 3}'


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_kv_and_json_configs_agree():
    # kv values stay strings until coercion; both land on the same params
    kv_params, kv_values = load_config("klee", parse_config(KLEE_KV))
    js_params, js_values = load_config("klee", parse_config(KLEE_JSON))
    assert kv_params == js_params
    assert kv_values == js_values


def test_kv_rejects_duplicates_and_bare_lines():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("d = 3\nd = 4\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("d = 3\nnonsense\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config(" = 3\n")
    with pytest.raises(ConfigError, match="duplicate key 'd'"):
        parse_config('{"d": 3, "d": 4, "n": 5}')


def test_json_config_must_be_object():
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")
    with pytest.raises(ConfigError):
        parse_config('{"d": }')


def test_json_integer_past_the_digit_limit_is_a_config_error():
    # json.loads raises a plain ValueError for an integer literal past the
    # interpreter's decimal-conversion limit, not a JSONDecodeError
    with pytest.raises(ConfigError, match="cannot read the JSON config"):
        parse_config('{"d": ' + "9" * 5000 + "}")


def test_unknown_key_lists_valid_ones():
    with pytest.raises(ConfigError) as err:
        load_config("klee", {"lambdas": "1/2", "dims": "3"})
    msg = str(err.value)
    assert "dims" in msg
    assert "lambdas" in msg and "subset_samples" in msg


def test_defaults_and_coercion():
    params, values = load_config("klee", parse_config(KLEE_KV))
    assert params["d"] == 3
    assert params["subset_samples"] == 0
    assert params["seed"] == 0
    # params echo the config as written; values hold what was read
    assert params["lambdas"] == "1/10, 1/5, 3/10, 2/5, 9/20"
    assert values["lambdas"] == [F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(9, 20)]


def test_missing_required_key():
    with pytest.raises(ConfigError, match="required"):
        load_config("klee", {"d": "3"})


def test_bad_integer_coercion():
    with pytest.raises(ConfigError):
        load_config("klee", {"lambdas": "1/10", "d": "three"})


def test_rational_given_as_a_number_names_the_string_form():
    with pytest.raises(ConfigError, match='radius=0.5 is not a string; rationals are written as strings, such as "1/2"'):
        load_config("fd-dense", {"d": 2, "n": 3, "radius": 0.5})


# JSON-shaped values of every kind a config can carry, plus strings that
# coerce to in-range numbers or hit an enum, so that some configs load
JSON_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(float("nan")),
    st.booleans(),
    st.text(alphabet="0123456789-./aefilnL ", max_size=5),
    st.sampled_from(["0", "3", "-1", "2.0", "1/2", "nan", "inf", "auto", "L1", "grid", "basis"]),
)


@st.composite
def scenario_configs(draw):
    name = draw(st.sampled_from(SCENARIO_NAMES))
    schema = scenario_schema(name)
    optional = sorted(set(schema["properties"]) - set(schema["required"]))
    keys = list(schema["required"]) + draw(st.lists(st.sampled_from(optional), unique=True))
    return name, {key: draw(JSON_VALUES) for key in keys}


_BOUNDS = {
    "minimum": lambda x, b: x >= b,
    "exclusiveMinimum": lambda x, b: x > b,
    "exclusiveMaximum": lambda x, b: x < b,
}


def _within(value, spec) -> bool:
    return all(holds(value, spec[k]) for k, holds in _BOUNDS.items() if k in spec)


def _types(spec) -> list:
    return spec["type"] if isinstance(spec["type"], list) else [spec["type"]]


def _conforms(value, spec) -> bool:
    # as JSON Schema does, the numeric keywords apply to numbers only
    types = _types(spec)
    is_int = type(value) is int
    is_number = is_int or (type(value) is float and math.isfinite(value))
    if not (
        ("string" in types and type(value) is str)
        or ("integer" in types and is_int)
        or ("number" in types and is_number)
    ):
        return False
    if is_number and not _within(value, spec):
        return False
    return "enum" not in spec or value in spec["enum"]


# the type of each item read by a format; "rational" reads one item
_READ_ITEMS = {"rational": F, "rationals": F, "integers": int}


@given(scenario_configs())
@example(("klee", {"lambdas": "1/10, 1/5, 3/10", "d": 3.0}))
@example(("sliding-hump", {"family": "disjoint", "left_mass": "1"}))
@example(("incomplete", {"ks": "0, 3", "tau": 0}))
@example(("klee", {"lambdas": ",", "d": 1}))
def test_loaded_params_conform_to_the_schema(case):
    name, raw = case
    try:
        params, values = load_config(name, raw)
    except ConfigError:
        return
    props = scenario_schema(name)["properties"]
    assert set(params) == set(props)
    for key, value in params.items():
        assert _conforms(value, props[key]), (name, key, value)
    assert set(values) == set(props)
    for key, read in values.items():
        spec, written = props[key], params[key]
        if not isinstance(written, str):
            # a number is read as a float, an integer as itself
            assert read == written, (name, key, read)
            assert type(read) is (float if "number" in _types(spec) else int), (name, key, read)
            items = [read]
        elif "format" in spec:
            items = [read] if spec["format"] == "rational" else read
            assert type(items) is list and items, (name, key, read)
            assert all(type(x) is _READ_ITEMS[spec["format"]] for x in items), (name, key, read)
        else:
            assert read == written, (name, key, read)
            items = []
        # every bound holds on the value read, rational strings included
        assert all(_within(x, spec) for x in items), (name, key, read)


def test_schema_files_match_generated():
    for name in SCENARIO_NAMES:
        path = Path(__file__).resolve().parents[1] / "docs" / "schemas" / f"{name}.json"
        assert json.loads(path.read_text()) == scenario_schema(name)


def test_schema_rejects_unknown_scenario():
    with pytest.raises(ConfigError):
        scenario_schema("klee2")


# ---------------------------------------------------------------------------
# run_scenario
# ---------------------------------------------------------------------------


def test_klee_run_produces_full_certificates():
    report = run_scenario("klee", parse_config(KLEE_KV))
    assert report.scenario == "klee"
    assert len(report.certificates) == 10  # C(5, 3)
    assert all(c["verdict"] == "Full" for c in report.certificates)
    refs = report.constructed["certificate_refs"]
    assert len(refs) == len(report.certificates)


def test_klee_refuses_an_elimination_determinant_off_the_product_formula(monkeypatch):
    import oclab.harness as harness_mod

    product = harness_mod._vandermonde_int
    monkeypatch.setattr(harness_mod, "_vandermonde_int", lambda nodes: product(nodes) + 1)
    with pytest.raises(CertificationError, match=r"product formula on \(0, 1, 2\)"):
        run_scenario("klee", parse_config(KLEE_KV))


def _forge_first_klee_certificate(monkeypatch, forge):
    """Make the klee runner's density_certificates hand back ``forge(cert)``
    in place of its first certificate, the one of subset (0, 1, 2)."""
    import oclab.harness as harness_mod

    real = harness_mod.density_certificates

    def forged(vectors, subsets, d):
        first, *rest = real(vectors, subsets, d)
        return [forge(first), *rest]

    monkeypatch.setattr(harness_mod, "density_certificates", forged)


@pytest.mark.parametrize(
    "forge",
    [
        lambda cert: DensityCertificate("Proper", 2, witness=exact_vector([1, 0, 0])),
        lambda cert: dataclasses.replace(cert, det=cert.det + F(1, 10**9)),
    ],
    ids=["proper", "perturbed-det"],
)
def test_klee_refuses_a_certificate_that_is_not_full_with_the_product_determinant(monkeypatch, tmp_path, forge):
    _forge_first_klee_certificate(monkeypatch, forge)
    with pytest.raises(CertificationError, match=r"not Full with the determinant of the product formula on \(0, 1, 2\)"):
        run_scenario("klee", parse_config(KLEE_KV))
    result = _invoke(["klee", "--config", _write(tmp_path, KLEE_KV)])
    assert result.exit_code == 4
    assert "(0, 1, 2)" in result.output


def test_seed_override_lands_in_report():
    report = run_scenario("free-set", {"n": "8", "f": "random"}, seed=7)
    assert report.seed == 7
    assert report.params["seed"] == 7


def test_tol_override_requires_tau_parameter():
    with pytest.raises(ConfigError, match="tolerance"):
        run_scenario("klee", parse_config(KLEE_KV), tol=1e-3)
    report = run_scenario("probe", {"K": "12", "window": "4"}, tol=1e-2)
    assert report.params["tau"] == 1e-2


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        run_scenario("mystery", {})


def test_reports_are_byte_reproducible():
    for name, raw in [
        ("klee", parse_config(KLEE_KV)),
        ("sliding-hump", {"L": "100", "m": "5", "samples": "16"}),
        ("free-set", {"n": "10", "f": "random", "seed": "3"}),
    ]:
        a = run_scenario(name, dict(raw))
        b = run_scenario(name, dict(raw))
        assert a.canonical_bytes() == b.canonical_bytes()


def test_dyadic_schedule_failure_surfaces():
    raw = {"schedule": "dyadic", "j_max": "3", "K": "8"}
    with pytest.raises(ScheduleError):
        run_scenario("geometric-variant", raw)


# ---------------------------------------------------------------------------
# emitting
# ---------------------------------------------------------------------------


def test_json_emission_round_trips():
    report = run_scenario("klee", parse_config(KLEE_KV))
    record = json.loads(emit_report(report, "json"))
    wall = record.pop("wall_time_s")
    assert isinstance(wall, float)
    # an encoding of the record apart from the spliced certificate texts
    assert record == to_jsonable(report._record())


def test_csv_emission_shape():
    report = run_scenario("klee", parse_config(KLEE_KV))
    lines = emit_report(report, "csv").splitlines()
    assert lines[0] == "scenario,subset,verdict,witness_digest"
    assert len(lines) == 11
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[0] == "klee"
        assert fields[2] == "Full"
        assert len(fields[1].split(";")) == 3


def test_csv_header_only_when_no_certificates():
    empty = Report(
        scenario="klee",
        params={},
        seed=0,
        toolkit_version="0",
        constructed={},
        certificates=(),
        wall_time_s=0.0,
    )
    assert emit_report(empty, "csv") == "scenario,subset,verdict,witness_digest\n"


def test_unknown_format_rejected():
    report = run_scenario("free-set", {"n": "4"})
    with pytest.raises(ConfigError):
        emit_report(report, "yaml")


# ---------------------------------------------------------------------------
# scenario smoke coverage
# ---------------------------------------------------------------------------

# name -> (config, SHA-256 of canonical_bytes()); the digests pin the report bytes
SMOKE = {
    "klee": (
        parse_config(KLEE_KV),
        "e152548f3d9e7b24f9ec6c40d9b2ffc8cd206d84402050317062fddb8a35b015",
    ),
    "fd-dense": (
        {"d": "3", "n": "6", "subset_samples": "5"},
        "622f4dcd3e2d0343b6df12a9c201b7d72ff3ab134ad8c87c305272c12a003a5b",
    ),
    "separated": (
        {"d": "4"},
        "6fccfa87dd10d2a0e2032b5df1f5399c6ae86680f6bf556d252eb4ddd3e9993c",
    ),
    "incomplete": (
        {"K": "14", "ks": "6,10,14", "j_max": "2"},
        "986f417be78869cd89bd5f03f97dd3083107d37a767d2b8e29457f19119f3380",
    ),
    "geometric-variant": (
        {"K": "8", "j_max": "3"},
        "05f15bd49767f894548118aa508fa81c4a62dd2e49c6e7c64a2e5d55a578d866",
    ),
    "sliding-hump": (
        {"L": "60", "m": "4", "samples": "8"},
        "dc64b04d229ac36b025153dfc3347a61332d7b6af11485b6ec45e7d034acde58",
    ),
    "free-set": (
        {"n": "9", "f": "chain"},
        "b02fb655ebf5af059db73fd7aaa7ece39e47052194867913c99462627af7e522",
    ),
    "cover": (
        {"mode": "grid", "points": "9"},
        "fd61cadbb20497ca85f9f7dd98c81966a5de20206996c8b0b54a7d94be04f51e",
    ),
    "probe": (
        {"variant": "basis", "K": "10", "window": "4"},
        "6cd2891dd02f444e9a694491fadca2b68c84d6ab01f1ac98422430ba21e191cc",
    ),
}


# more pinned inputs: the L1/Linf Riesz steps, an exhaustive fd-dense sweep,
# sampled klee subsets and an incomplete run whose decay bounds rise at first
PINNED = {
    "separated-L1": (
        "separated",
        {"d": "5", "tag": "L1"},
        "fe06e8276597192265c405c9d5b34aa9cb2c12448f305fb9272f81580e18b132",
    ),
    "separated-Linf": (
        "separated",
        {"d": "5", "tag": "Linf"},
        "58002a963dcbd124077ae8082f8311212bc5603d96a3aced4192b5711d2b42c0",
    ),
    "fd-dense-exhaustive": (
        "fd-dense",
        {"d": "3", "n": "6"},
        "ec7b1fd0af0e0d432326b6d92aec3df544f26999a49219f7e7ee24f7db713679",
    ),
    "klee-sampled": (
        "klee",
        {**parse_config(KLEE_KV), "subset_samples": "7"},
        "b2206868d598c992c090a5552bcbcf0fca9154d8cf8a594f8a9cfad3f6ac8cb4",
    ),
    "incomplete-rising-bounds": (
        "incomplete",
        {"K": "14", "ks": "1,2,3,4,5,6,7,8,10,14"},
        "b532c4f243af66f43f16e040c5a2fb8d1430f7723ed5851765d432facecaf2be",
    ),
}


def _one_shot(report):
    """The report's canonical JSON written in one pass of the encoder."""
    return canonical_json(report._record())


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_spliced_reports_equal_the_one_shot_encoding(name):
    report = run_scenario(name, dict(SMOKE[name][0]))
    payload = emit_report(report)
    assert payload == canonical_json({**report._record(), "wall_time_s": report.wall_time_s})
    # "wall_time_s" sorts after every record key, so it closes the payload
    assert payload.endswith(f',"wall_time_s":{report.wall_time_s!r}}}')
    record = json.loads(payload)
    record.pop("wall_time_s")
    assert canonical_json(record) == _one_shot(report)
    assert report.canonical_bytes() == _one_shot(report).encode("utf-8")
    assert report.constructed["certificate_refs"] == [digest(c) for c in report.certificates]


def test_a_report_without_certificates_splices_an_empty_list():
    empty = Report(
        scenario="klee",
        params={"d": 2},
        seed=0,
        toolkit_version="0",
        constructed={"vectors": []},
        certificates=(),
        wall_time_s=0.5,
    )
    assert empty.canonical_bytes() == _one_shot(empty).encode("utf-8")
    assert emit_report(empty) == canonical_json({**empty._record(), "wall_time_s": 0.5})
    assert json.loads(empty.canonical_bytes())["certificates"] == []


@pytest.mark.parametrize("label", sorted(PINNED))
def test_pinned_report_bytes(label):
    name, config, expected_digest = PINNED[label]
    report = run_scenario(name, dict(config))
    assert hashlib.sha256(report.canonical_bytes()).hexdigest() == expected_digest


@pytest.mark.parametrize(
    "config, onsets",
    [
        ({"K": "14", "ks": "1,2,3,4,5,6,7,8,10,14"}, [2, 3, 4, 5, 6, 7]),
        # past k = 60 the bounds are floats from libm, so pin the onsets only
        ({"K": "70", "ks": "10,30,50,62,66"}, [10] * 6),
    ],
)
def test_incomplete_decay_onsets_are_pinned(config, onsets):
    report = run_scenario("incomplete", config)
    decay = report.certificates[-1]["witness"]
    assert [e.onset_k for f in decay.functionals for e in f.entries] == onsets


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_each_scenario_emits_valid_report(name):
    config, expected_digest = SMOKE[name]
    report = run_scenario(name, dict(config))
    assert hashlib.sha256(report.canonical_bytes()).hexdigest() == expected_digest
    record = json.loads(emit_report(report, "json"))
    assert isinstance(record.pop("wall_time_s"), float)
    redumped = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert redumped == report.canonical_bytes()
    assert record["scenario"] == name
    assert record["constructed"]["kind"] == name
    assert record["certificates"], "every scenario must certify something"
    for cert in record["certificates"]:
        assert {"kind", "verdict", "witness", "pivot_log", "inputs_digest"} <= set(cert)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _invoke(argv):
    """Run the CLI in this process; its exit code and its stdout plus stderr."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    return SimpleNamespace(exit_code=code, output=out.getvalue())


def _invoke_verify(path):
    """Run ``oclab.verify`` on one report in this process; its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = verify_main([str(path)])
    return code, err.getvalue()


def _write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_cli_success_to_stdout(tmp_path):
    result = _invoke(["klee", "--config", _write(tmp_path, KLEE_KV)])
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert record["scenario"] == "klee"


def test_cli_csv_to_file(tmp_path):
    out = tmp_path / "report.csv"
    result = _invoke(
        ["klee", "--config", _write(tmp_path, KLEE_KV), "--format", "csv", "--out", str(out)],
    )
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario,subset,verdict,witness_digest"
    assert len(lines) == 11


def test_cli_config_error_exits_2(tmp_path):
    cfg = _write(tmp_path, "lambdas = 1/10\nd = 3\ndims = 3\n")
    result = _invoke(["klee", "--config", cfg])
    assert result.exit_code == 2
    assert "dims" in result.output


def test_cli_klee_fewer_lambdas_than_d_sampled_exits_2(tmp_path):
    cfg = _write(tmp_path, "lambdas = 1/10, 1/5\nd = 3\nsubset_samples = 4\n")
    result = _invoke(["klee", "--config", cfg])
    assert result.exit_code == 2
    assert "lambdas" in result.output


def test_cli_klee_fewer_lambdas_than_d_exhaustive_exits_2(tmp_path):
    cfg = _write(tmp_path, "lambdas = 1/10, 1/5\nd = 3\n")
    result = _invoke(["klee", "--config", cfg])
    assert result.exit_code == 2
    assert "lambdas" in result.output


def test_cli_json_duplicate_key_exits_2(tmp_path):
    result = _invoke(["fd-dense", "--config", _write(tmp_path, '{"d": 3, "d": 4, "n": 5}')])
    assert result.exit_code == 2
    assert "duplicate key 'd'" in result.output


def test_cli_tol_on_plain_scenario_exits_2(tmp_path):
    cfg = _write(tmp_path, KLEE_KV)
    result = _invoke(["klee", "--config", cfg, "--tol", "0.1"])
    assert result.exit_code == 2


PROBE_KV = "variant = basis\nK = 10\nwindow = 4\n"
INCOMPLETE_KV = "K = 14\nks = 6,10,14\nj_max = 2\n"


@pytest.mark.parametrize(
    "scenario, text, extra, key",
    [
        ("klee", '{"lambdas": "1/10, 1/5, 3/10", "d": 3.0}', [], "d"),
        ("klee", '{"lambdas": "1/10, 1/5, 3/10", "d": true}', [], "d"),
        ("incomplete", '{"K": 14, "ks": "6,10,14", "j_max": 2, "tau": NaN}', [], "tau"),
        ("probe", PROBE_KV + "tau = nan\n", [], "tau"),
        ("probe", PROBE_KV, ["--tol", "nan"], "tau"),
        ("probe", PROBE_KV, ["--tol", "inf"], "tau"),
        ("incomplete", INCOMPLETE_KV, ["--tol", "nan"], "tau"),
        ("incomplete", INCOMPLETE_KV + "tau = abc\n", [], "tau"),
        ("incomplete", INCOMPLETE_KV + "tau = 1/0\n", [], "tau"),
        ("klee", "lambdas = 1/10, 1/5, 3/10\nd = 0\n", [], "d"),
        ("probe", "variant = basis\nK = 6\nwindow = 2\ntau = -5\n", [], "tau"),
        ("probe", PROBE_KV, ["--tol", "0"], "tau"),
        ("incomplete", INCOMPLETE_KV + "tau = 0\n", [], "tau"),
        ("incomplete", "K = 2\nks = 1\n", [], "j_max"),
        ("separated", "d = 3\neps = 2\n", [], "eps"),
        ("incomplete", "c = 0\n", [], "c"),
        ("probe", "rho = 1\n", [], "rho"),
        ("geometric-variant", "rho = 1\n", [], "rho"),
        ("sliding-hump", "eps = 0\n", [], "eps"),
        ("fd-dense", "d = 2\nn = 1\n", [], "n"),
        ("geometric-variant", "threshold = 0\n", [], "threshold"),
        ("klee", "lambdas = 1/10, 1/2, 1/5\nd = 2\n", [], "lambdas"),
        ("cover", "mode = escape\nlambdas = 1/10, 1/10, 1/5\n", [], "lambdas"),
        ("klee", "lambdas = 1/10, 1/5, 3/10\nd = 3\n", ["--seed", "-1"], "seed"),
        ("cover", "mode = grid\nlambdas = abc\n", [], "lambdas"),
        ("sliding-hump", "family = disjoint\nleft_mass = abc\n", [], "left_mass"),
        ("fd-dense", '{"d": 2, "n": 3, "radius": 0.5}', [], "radius"),
        ("sliding-hump", "L = 20000\nm = 11\n", [], "L"),
        ("sliding-hump", "m = 11\nsamples = 20000\n", [], "samples"),
        ("probe", "variant = basis\nrho = 1\n", [], "rho"),
        ("probe", "variant = basis\nc = 0\n", [], "c"),
        ("sliding-hump", "family = disjoint\nleft_mass = 1\n", [], "left_mass"),
        ("cover", "mode = grid\nh = 3\nd = 2\n", [], "h"),
        ("cover", "mode = escape\nlambdas = 1/10, 1/5\n", [], "lambdas"),
        ("probe", "variant = basis\nK = 6\nwindow = 9\n", [], "window"),
        ("sliding-hump", "eps = 1/2\n", [], "eps"),
        ("free-set", "n = 2000\nf = full\n", [], "n"),
        ("free-set", "n = 3\nf = random\nmax_deg = 100000000\n", [], "max_deg"),
        ("cover", "points = 10000000\n", [], "points"),
        ("klee", "lambdas = 1/10, 1/5, 3/10, 2/5\nd = 3\nsubset_samples = 100000\n", [], "subset_samples"),
        ("separated", "d = 448\ntag = L1\n", [], "d"),
        ("klee", "lambdas = " + ", ".join(f"{i}/250" for i in range(1, 113)) + "\nd = 3\n", [], "subset_samples"),
        ("incomplete", "K = 1\nks = 1,1,1\nj_max = 0\n", [], "ks"),
        ("sliding-hump", "L = 2\nm = 3\n", [], "m"),
        ("incomplete", "K = 2\nks = 1,x\n", [], "ks"),
    ],
    ids=[
        "json-float-d", "json-bool-d", "json-nan-tau", "kv-nan-tau", "tol-nan", "tol-inf",
        "incomplete-tol-nan", "tau-abc", "tau-1/0", "d-below-minimum",
        "probe-negative-tau", "tol-zero", "incomplete-zero-tau", "j_max-beyond-truncation",
        "separated-eps-above-1", "incomplete-zero-c", "probe-rho-1", "geometric-variant-rho-1",
        "sliding-hump-zero-eps", "fd-dense-n-below-d", "geometric-variant-zero-threshold",
        "klee-node-at-1/2", "cover-escape-repeated-node", "seed-override-negative",
        "cover-grid-unread-lambdas", "sliding-hump-disjoint-unread-left_mass",
        "json-number-radius", "sliding-hump-L-times-m-above-guard",
        "sliding-hump-samples-times-m-above-guard", "probe-basis-unread-rho-1",
        "probe-basis-unread-zero-c", "sliding-hump-disjoint-unread-left_mass-1",
        "cover-grid-h-above-d", "cover-escape-two-lambdas", "probe-window-past-dimension",
        "sliding-hump-eps-half", "free-set-n-times-n-above-guard",
        "free-set-random-n-times-max_deg-above-guard", "cover-grid-points-times-d-above-guard",
        "klee-subset_samples-times-d-above-guard", "separated-d-times-d-above-guard",
        "klee-exhaustive-above-guard", "incomplete-no-annihilator", "sliding-hump-blocks-do-not-fit",
        "incomplete-ks-not-integers",
    ],
)
def test_cli_bad_value_exits_2_naming_scenario_and_key(tmp_path, scenario, text, extra, key):
    cfg = _write(tmp_path, text)
    result = _invoke([scenario, "--config", cfg, *extra])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert f"scenario '{scenario}'" in result.output
    assert f"{key}=" in result.output


@pytest.mark.parametrize(
    "family, bound, past",
    [("blocks", "7/40", "71/400"), ("disjoint", "1/4", "251/1000")],
)
def test_sliding_hump_refuses_eps_past_a_quarter_of_the_free_mass(tmp_path, family, bound, past):
    # (1 - N)/4 with N = left_mass = 3/10 (the default) for blocks, 0 for disjoint
    at = _invoke(["sliding-hump", "--config", _write(tmp_path, f"family = {family}\neps = {bound}\n")])
    assert at.exit_code == 0, at.output
    result = _invoke(["sliding-hump", "--config", _write(tmp_path, f"family = {family}\neps = {past}\n")])
    assert result.exit_code == 2, result.output
    assert "scenario 'sliding-hump'" in result.output
    assert f"eps={past} must be at most (1-N)/4 = {bound}" in result.output


def _vals(valid, edge):
    """A value from ``valid`` seven times in eight, else one from ``edge``."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(edge if i == 0 else valid))


def _ints(lo, hi, edge=("0", "-1", "x")):
    return _vals([str(i) for i in range(lo, hi + 1)], list(edge))


# small configs, mostly in range, with values on and past each boundary
_RATIONAL_EDGES = ["0", "-1/4", "abc", "1/0", ""]
_NODES = st.tuples(
    st.lists(st.sampled_from(["1/10", "1/5", "3/10", "2/5", "9/20", "1/3", "1/7"]), unique=True, max_size=6),
    _vals([[]], [["0"], ["1/2"], ["1"], ["-1/4"], ["1/10", "1/10"], ["abc"]]),
).map(lambda parts: ", ".join(parts[0] + parts[1]))
_MODEL = {
    "c": _vals(["1/2", "1", "2", "1/3"], _RATIONAL_EDGES),
    "rho": _vals(["1/2", "1/3", "1/5"], ["1", "2"] + _RATIONAL_EDGES),
    "K": _ints(1, 8),
}
_J_MAX = _ints(0, 2, ("-1", "9"))
# per scenario: (keys always given, keys given or left to their defaults)
_FUZZ_KEYS = {
    "klee": ({"lambdas": _NODES, "d": _ints(1, 3)}, {"subset_samples": _ints(0, 4, ("-1",))}),
    "fd-dense": (
        {"d": _ints(1, 3), "n": _ints(1, 6)},
        {
            "radius": _vals(["1/2", "1/5", "1"], _RATIONAL_EDGES),
            "targets": _vals(["auto", "none"], ["all"]),
            "subset_samples": _ints(0, 4, ("-1",)),
        },
    ),
    "separated": (
        {"d": _ints(1, 3)},
        {"eps": _vals(["1/20", "1/10", "1/4"], ["1", "2"] + _RATIONAL_EDGES), "tag": _vals(["L1", "L2", "Linf"], ["L3"])},
    ),
    # ks is always given: its default reaches K = 40
    "incomplete": (
        {"ks": st.lists(_ints(1, 8), max_size=4).map(",".join)},
        {**_MODEL, "j_max": _J_MAX, "tau": _vals(["1/1000", "0.5"], ["0", "-1", "nan", "x"])},
    ),
    "geometric-variant": (
        {},
        {
            **_MODEL,
            "j_max": _J_MAX,
            "threshold": _vals(["1", "1/2", "2"], _RATIONAL_EDGES),
            "schedule": _vals(["harmonic", "dyadic"], ["none"]),
        },
    ),
    "sliding-hump": (
        {},
        {
            "family": _vals(["blocks", "disjoint"], ["x"]),
            "L": _ints(2, 30, ("1", "-1")),
            "m": _ints(1, 8),
            "left_mass": _vals(["3/10", "1/5", "0"], ["1", "-1/4", "abc"]),
            "eps": _vals(["1/20", "1/10"], ["1/2"] + _RATIONAL_EDGES),
            "samples": _ints(1, 8),
        },
    ),
    "free-set": (
        {"n": _ints(1, 6)},
        {"f": _vals(["chain", "self", "full", "random"], ["x"]), "max_deg": _ints(0, 3, ("-1",))},
    ),
    "cover": (
        {},
        {
            "mode": _vals(["grid", "escape"], ["x"]),
            "h": _ints(1, 3),
            "points": _ints(1, 6),
            "d": _ints(1, 3),
            "lambdas": _NODES,
        },
    ),
    "probe": (
        {},
        {
            **_MODEL,
            "variant": _vals(["gk", "basis"], ["x"]),
            "window": _ints(1, 9),
            "tau": _vals(["1e-6", "0.5"], ["0", "-1", "nan", "inf"]),
        },
    ),
}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@given(data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_cli_small_random_configs_exit_with_a_documented_code(name, data):
    given_keys, optional = _FUZZ_KEYS[name]
    assert set(given_keys) | set(optional) == set(scenario_schema(name)["properties"]) - {"seed"}
    config = data.draw(st.fixed_dictionaries(given_keys, optional=optional))
    config["seed"] = data.draw(_ints(0, 3, ("-1", "x")))
    extra = data.draw(_vals([[]], [["--tol", "0.1"], ["--tol", "0"], ["--tol", "nan"]]))
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "run.json"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
        result = _invoke([name, "--config", str(cfg), "--out", str(out), *extra])
        assert result.exit_code in (0, 2, 3, 4), (config, extra, result.output)
        assert "Traceback" not in result.output
        # every report a run writes passes the standalone verifier
        if result.exit_code == 0:
            assert _invoke_verify(out) == (0, ""), (config, extra)


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name``, through every oclab module that
    binds it too."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "oclab" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_geometric_variant_checks_its_schedule_once(monkeypatch):
    import oclab.constructors as constructors_mod

    calls = _count_calls(monkeypatch, constructors_mod, "verify_schedule")
    run_scenario("geometric-variant", {})
    assert len(calls) == 1


def test_incomplete_computes_its_convergence_gaps_once(monkeypatch):
    import oclab.constructors as constructors_mod

    calls = _count_calls(monkeypatch, constructors_mod, "convergence_gaps")
    distances = _count_calls(monkeypatch, constructors_mod.IncompleteModel, "exact_distance")
    run_scenario("incomplete", dict(SMOKE["incomplete"][0]))  # K = 14
    assert len(calls) == 1
    assert len(distances) == 15


def test_incomplete_scales_the_truncation_of_y_to_integers_once(monkeypatch):
    """Every distance to y, the annihilator's last row and the decay check's
    target pairing read one integer form of y's truncation."""
    import oclab.linalg as linalg_mod

    scalings = _count_calls(monkeypatch, linalg_mod, "_int_numerators")
    run_scenario("incomplete", dict(SMOKE["incomplete"][0]))  # K = 14, y(n) = 2^-(n+1)
    truncations = [c for (c,) in scalings if c and all(x == F(1, 2 ** (n + 1)) for n, x in enumerate(c))]
    assert len(truncations) == 1


# the annihilator is one null_vector call: one pivot search mod p and one
# column-scaled block solve, with no basis
def test_incomplete_solves_its_annihilator_block_once(monkeypatch):
    import oclab.linalg as linalg_mod

    null_vectors = _count_calls(monkeypatch, linalg_mod, "null_vector")
    mod_p = _count_calls(monkeypatch, linalg_mod, "_pivots_mod_p")
    bases = _count_calls(monkeypatch, linalg_mod, "nullspace_exact")
    ks = ",".join(str(k) for k in range(6, 29))
    run_scenario("incomplete", {"K": "28", "ks": ks, "j_max": "5"})
    assert (len(null_vectors), len(mod_p), len(bases)) == (1, 1, 0)


def test_incomplete_never_takes_the_exact_pivots(monkeypatch):
    import oclab.linalg as linalg_mod

    fallbacks = _count_calls(monkeypatch, linalg_mod, "_exact_pivots")
    ks = ",".join(str(k) for k in range(6, 29))
    run_scenario("incomplete", {"K": "28", "ks": ks, "j_max": "5"})
    assert fallbacks == []


def test_a_report_writes_its_canonical_text_once(monkeypatch):
    """emit_report and canonical_bytes() share one spliced encoding."""
    import oclab.serialize as serialize_mod

    splices = _count_calls(monkeypatch, serialize_mod, "canonical_json_spliced")
    report = run_scenario("incomplete", dict(SMOKE["incomplete"][0]))
    payload = emit_report(report)
    assert payload.startswith(report.canonical_bytes().decode("utf-8")[:-1])
    assert emit_report(report) == payload
    assert len(splices) == 1


def test_sliding_hump_refuses_extracted_tails_that_overlap(monkeypatch):
    """An extraction that picks one member twice hands the lower-bound
    chain two equal tails; its disjointness step names the second pick."""
    import oclab.harness as harness_mod

    extract = harness_mod.sliding_hump_extract

    def repeated_pick(family, eps):
        data = extract(family, eps)
        return dataclasses.replace(
            data, members=data.members[:1] * 2, cuts=data.cuts[:1] * 2, extracted=data.extracted[:1] * 2
        )

    monkeypatch.setattr(harness_mod, "sliding_hump_extract", repeated_pick)
    with pytest.raises(CertificationError, match="scenario 'sliding-hump': chain step \"disjoint tails\" failed at pick 1"):
        run_scenario("sliding-hump", dict(SMOKE["sliding-hump"][0]))


def test_cover_grid_computes_its_cover_once(monkeypatch):
    import oclab.certify as certify_mod

    calls = _count_calls(monkeypatch, certify_mod, "hyperplane_cover")
    run_scenario("cover", dict(SMOKE["cover"][0]))
    assert len(calls) == 1


def test_fd_dense_refuses_too_many_subsets_before_construction(monkeypatch):
    import oclab.harness as harness_mod

    def boom(*args, **kwargs):
        raise AssertionError("fd_overcomplete ran on a config the guard refuses")

    monkeypatch.setattr(harness_mod, "fd_overcomplete", boom)
    # C(60, 5) = 5,461,512 subsets, above the exhaustive limit
    with pytest.raises(ConfigError, match=r"C\(60,5\) subsets is too many"):
        run_scenario("fd-dense", {"d": "5", "n": "60"})


def test_fd_dense_refuses_too_many_subsets_even_when_sampled(monkeypatch):
    import oclab.harness as harness_mod

    def boom(*args, **kwargs):
        raise AssertionError("fd_overcomplete ran on a config the guard refuses")

    monkeypatch.setattr(harness_mod, "fd_overcomplete", boom)
    # the construction decides all C(60, 6) = 50,063,860 subsets whatever
    # subset_samples says, so sampling is no way around the guard
    with pytest.raises(ConfigError, match=r"C\(60,6\) subsets is too many") as err:
        run_scenario("fd-dense", {"d": "6", "n": "60", "subset_samples": "100"})
    assert "set subset_samples" not in str(err.value)


def test_cli_fd_dense_sampled_past_the_guard_exits_2(tmp_path):
    cfg = _write(tmp_path, "d = 6\nn = 60\nsubset_samples = 100\n")
    result = _invoke(["fd-dense", "--config", cfg])
    assert result.exit_code == 2
    assert "scenario 'fd-dense'" in result.output and "C(60,6)" in result.output
    assert "set subset_samples" not in result.output


@pytest.mark.parametrize("d, n, planes", [(4, 26, False), (5, 21, False), (8, 12, False), (9, 12, True), (3, 20, True)])
def test_fd_dense_takes_the_planes_only_outside_the_forms_band(monkeypatch, d, n, planes):
    # the builder walks subsets (_prefix_walk) only to build planes, so a
    # benchmark size that fell back to the planes would show here; the spot
    # density certificate's own walk, in certify, is not counted
    import oclab.constructors as constructors_mod

    calls = []
    walk = constructors_mod._prefix_walk

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(constructors_mod, "_prefix_walk", counted)
    run_scenario("fd-dense", {"d": str(d), "n": str(n)})
    assert bool(calls) == planes


@pytest.mark.parametrize(
    "config",
    [{"d": "3", "n": "9", "targets": "none"}, {"d": "4", "n": "10", "targets": "auto", "radius": "1/2", "seed": "5"}],
)
def test_fd_dense_sweep_certificate_is_the_construction_walk(monkeypatch, config):
    import oclab.certify as certify_mod
    from oclab.certify import all_subsets_full_rank

    calls = _count_calls(monkeypatch, certify_mod, "all_subsets_full_rank")
    report = run_scenario("fd-dense", config)
    assert calls == []
    (sweep,) = [c for c in report.certificates if c["kind"] == "subset-rank-sweep"]
    d = int(config["d"])
    checked, failures = all_subsets_full_rank(report.constructed["vectors"], d)
    assert sweep["verdict"] == "Full"
    assert sweep["witness"] == {"subsets_checked": checked, "failures": failures}


@pytest.mark.parametrize(
    "config, message",
    [
        # n*n exact entries in the family, whichever map
        ({"n": "2000", "f": "full"}, "n=2000 times n=2000 is 4000000"),
        ({"n": "448", "f": "chain"}, "n=448 times n=448 is 200704"),
        # n*max_deg draws of the random map
        ({"n": "3", "f": "random", "max_deg": "100000000"}, "n=3 times max_deg=100000000 is 300000000"),
    ],
)
def test_free_set_refuses_a_costly_config_before_building(monkeypatch, config, message):
    import oclab.harness as harness_mod

    def boom(*args, **kwargs):
        raise AssertionError("_free_map ran on a config the guard refuses")

    monkeypatch.setattr(harness_mod, "_free_map", boom)
    with pytest.raises(ConfigError, match=message + ", above the limit of 200000") as err:
        run_scenario("free-set", config)
    assert "scenario 'free-set'" in str(err.value)


@pytest.mark.parametrize(
    "scenario, config, builder, message",
    [
        # points*d exact coordinates in cover's grid
        ("cover", {"points": "10000000"}, "exact_vector", "points=10000000 times d=4 is 40000000"),
        ("cover", {"points": "50001", "d": "4"}, "exact_vector", "points=50001 times d=4 is 200004"),
        # one elimination and one certificate per sampled klee subset
        (
            "klee",
            {"lambdas": "1/10, 1/5, 3/10, 2/5", "d": "3", "subset_samples": "100000"},
            "sample_subset",
            "subset_samples=100000 times d=3 is 300000",
        ),
    ],
)
def test_cover_and_klee_refuse_a_costly_config_before_building(monkeypatch, scenario, config, builder, message):
    import oclab.harness as harness_mod

    def boom(*args, **kwargs):
        raise AssertionError(f"{builder} ran on a config the guard refuses")

    monkeypatch.setattr(harness_mod, builder, boom)
    with pytest.raises(ConfigError, match=message + ", above the limit of 200000") as err:
        run_scenario(scenario, config)
    assert f"scenario '{scenario}'" in str(err.value)


def test_cover_guard_ignores_points_in_escape_mode():
    report = run_scenario("cover", {"mode": "escape", "points": "10000000"})
    assert report.certificates[0]["verdict"] == "Escape"


def test_free_set_guard_ignores_max_deg_when_the_map_does_not_draw():
    report = run_scenario("free-set", {"n": "4", "f": "self", "max_deg": "100000000"})
    assert report.constructed["H"] == (0, 1, 2, 3)


@pytest.mark.parametrize("tag", ["L1", "L2", "Linf"])
def test_separated_packs_nothing_again_and_the_witness_holds(tag):
    # the run measures no pair; the verifier measures every one from the report
    from oclab.verify import check_separated

    report = run_scenario("separated", {"d": "5", "eps": "1/10", "tag": tag})
    (sep,) = [c for c in report.certificates if c["kind"] == "separation"]
    assert sep["witness"] == {"pairs_checked": 10, "lower_bound": F(9, 10), "greedy_selects_all": True}
    check_separated(json.loads(emit_report(report)), None)


# the builder carries its members' complement, extending it once per
# member but the last: d-1 extensions.  L2 and Linf families
# have nonzero leading minors, so the spot density certificate is then the
# walk's d steps alone; L1's permutation family leaves the diagonal at its
# second row and is then eliminated once, column by column, by rank_exact
@pytest.mark.parametrize(
    "tag, steps, ranks",
    [("L1", 5 + 2 + 6, 1), ("L2", 5 + 6, 0), ("Linf", 5 + 6, 0)],
    ids=["L1", "L2", "Linf"],
)
def test_separated_eliminates_once_and_measures_no_pair(monkeypatch, tag, steps, ranks):
    import oclab.linalg as linalg_mod

    extends = _count_calls(monkeypatch, linalg_mod, "_extend")
    rank_calls = _count_calls(monkeypatch, linalg_mod, "rank_exact")
    null_vectors = _count_calls(monkeypatch, linalg_mod, "null_vector")
    mod_p = _count_calls(monkeypatch, linalg_mod, "_pivots_mod_p")
    report = run_scenario("separated", {"d": "6", "tag": tag})
    assert len(extends) == steps
    assert len(rank_calls) == ranks
    assert null_vectors == [] and mod_p == []
    assert [c["kind"] for c in report.certificates] == ["separation", "density"]


def test_separated_refuses_d_past_the_guard_before_building(monkeypatch):
    import oclab.harness as harness_mod

    class Built(Exception):
        pass

    def build(*args, **kwargs):
        raise Built

    monkeypatch.setattr(harness_mod, "separated_overcomplete_fd", build)
    with pytest.raises(ConfigError, match="d=448 times d=448 is 200704, above the limit of 200000") as err:
        run_scenario("separated", {"d": "448", "tag": "L1"})
    assert "scenario 'separated'" in str(err.value)
    with pytest.raises(Built):
        run_scenario("separated", {"d": "447", "tag": "L1"})


@pytest.mark.parametrize(
    "config",
    [{"d": "3", "n": "7", "targets": "none"}, {"d": "3", "n": "7", "targets": "auto", "radius": "1/4", "seed": "2"}],
)
def test_fd_dense_decides_each_ball_membership_once(monkeypatch, config):
    from oclab.constructors import OpenBall

    calls = _count_calls(monkeypatch, OpenBall, "contains")
    report = run_scenario("fd-dense", config)
    vectors = report.constructed["vectors"]
    assert [sum(args[1] is v for args in calls) for v in vectors] == [1] * len(vectors)
    balls = [c["witness"] for c in report.certificates if c["kind"] == "ball-membership"]
    assert [b["index"] for b in balls] == list(range(len(vectors)))
    for v, b in zip(vectors, balls):
        assert OpenBall(b["center"], b["radius"]).contains(v)


@pytest.mark.parametrize("variant, builder", [("gk", "incomplete_space_sequence"), ("basis", "unit_vector")])
def test_probe_refuses_a_window_past_the_dimension_before_construction(monkeypatch, variant, builder):
    import oclab.harness as harness_mod

    def boom(*args, **kwargs):
        raise AssertionError(f"{builder} ran on a config the window check refuses")

    monkeypatch.setattr(harness_mod, builder, boom)
    with pytest.raises(ConfigError, match=r"window=100000 exceeds the dimension"):
        run_scenario("probe", {"variant": variant, "K": "150", "window": "100000"})


@pytest.mark.parametrize(
    "text, message",
    [
        ("schedule = dyadic\nj_max = 3\nK = 8\n", "at or above threshold"),
        ("K = 1\n", "scaled error still rising at the horizon (n=1, j=0)"),
    ],
    ids=["dyadic", "K-1"],
)
def test_cli_construction_error_exits_3(tmp_path, text, message):
    result = _invoke(["geometric-variant", "--config", _write(tmp_path, text)])
    assert result.exit_code == 3
    assert "construction error" in result.output
    assert message in result.output


@pytest.mark.parametrize("error, code", [(CertificationError, 4), (OclabError, 3)])
def test_cli_certification_error_exits_4(tmp_path, monkeypatch, error, code):
    import oclab.cli as cli_mod

    def boom(*args, **kwargs):
        raise error("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod, "run_scenario", boom)
    cfg = _write(tmp_path, KLEE_KV)
    result = _invoke(["klee", "--config", cfg])
    assert result.exit_code == code


def test_cli_lets_a_value_error_not_about_the_digit_limit_surface(tmp_path, monkeypatch):
    """Only the digit-limit ValueError is a construction error; any other
    is a fault in the toolkit and must not be reported as exit 3."""
    import oclab.cli as cli_mod

    def boom(*args, **kwargs):
        raise ValueError("forced, not about integer conversion")

    monkeypatch.setattr(cli_mod, "run_scenario", boom)
    with pytest.raises(ValueError, match="forced, not about integer conversion"):
        main(["klee", "--config", _write(tmp_path, KLEE_KV)])


def test_cli_fault_inside_a_runner_names_the_scenario(tmp_path, monkeypatch):
    import oclab.harness as harness_mod

    def boom(*args, **kwargs):
        raise CertificationError("forced inside the runner")

    monkeypatch.setattr(harness_mod, "density_certificates", boom)
    result = _invoke(["klee", "--config", _write(tmp_path, KLEE_KV)])
    assert result.exit_code == 4
    assert "scenario 'klee'" in result.output


def test_cli_integer_string_limit_exits_3_without_traceback(tmp_path):
    # separated L2 at d = 12 builds an integer past the interpreter's
    # decimal-conversion limit; run the module as a script, as a user would
    cfg = _write(tmp_path, "d = 12\ntag = L2\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-m", "oclab.cli", "separated", "--config", cfg],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert "scenario 'separated'" in result.stderr
    assert "digits" in result.stderr


def test_cli_json_integer_past_the_digit_limit_exits_2(tmp_path):
    cfg = _write(tmp_path, '{"lambdas": "1/10, 1/5, 3/10", "d": ' + "9" * 5000 + "}")
    result = _invoke(["klee", "--config", cfg])
    assert result.exit_code == 2
    assert "config error" in result.output
    assert "Traceback" not in result.output


def test_cli_unreadable_config_exits_5(tmp_path):
    result = _invoke(["klee", "--config", str(tmp_path / "absent.cfg")])
    assert result.exit_code == 5


def test_cli_rejects_unknown_scenario(tmp_path):
    result = _invoke(["klee2", "--config", _write(tmp_path, KLEE_KV)])
    assert result.exit_code != 0
