import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dmkit.cli
import dmkit.errors
import dmkit.lti
import dmkit.multiloop
import dmkit.specnorm
from dmkit.cli import main


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_model(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_classical_bundled_example(capsys):
    code, doc = run_json(capsys, ["classical", "ex1_loop.json"])
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["tool"]["name"] == "dmkit"
    assert doc["command"] == "classical"
    assert len(doc["input"]["sha256"]) == 64
    r = doc["results"]
    assert r["g_lower"]["abs"] == 0.0
    assert "db" not in r["g_lower"]  # no dB for a zero gain
    assert r["g_upper"]["abs"] == pytest.approx(3.6, rel=1e-9)
    assert r["g_upper"]["db"] == pytest.approx(11.126050015, rel=1e-9)
    assert r["phi_upper"]["degrees"] == pytest.approx(29.1103691316, rel=1e-8)
    assert r["critical_gain_freq"] == pytest.approx(3.1622776602, rel=1e-8)


def test_classical_inf_serialization(capsys, tmp_path):
    path = write_model(tmp_path, "integrator.json",
                       {"model": {"tf": {"num": [1], "den": [1, 0]}}})
    code, doc = run_json(capsys, ["classical", path])
    assert code == 0
    r = doc["results"]
    assert r["g_upper"]["abs"] == "inf"
    assert "db" not in r["g_upper"]
    assert r["phi_upper"]["degrees"] == pytest.approx(90.0, rel=1e-9)


def test_classical_no_crossover_phase_inf(capsys, tmp_path):
    path = write_model(tmp_path, "quiet.json",
                       {"model": {"tf": {"num": [0.5], "den": [1, 1]}}})
    code, doc = run_json(capsys, ["classical", path])
    assert code == 0
    assert doc["results"]["phi_upper"]["radians"] == "inf"
    assert doc["results"]["critical_phase_freq"] is None


def test_classical_folded_controller_matches_loop(capsys, tmp_path):
    # the fold realizes the plant in companion form: A holds the
    # coefficients of (s + 10)^4, up to 1e4, next to poles of size 10
    den = [1.0, 40.0, 600.0, 4000.0, 10000.0]
    folded = write_model(tmp_path, "folded.json", {
        "model": {"tf": {"num": [1.0], "den": den}},
        "controller": {"tf": {"num": [50.0], "den": [1.0]}}})
    loop = write_model(tmp_path, "loop.json", {"model": {"tf": {"num": [50.0], "den": den}}})
    code, a = run_json(capsys, ["classical", folded])
    assert code == 0
    code, b = run_json(capsys, ["classical", loop])
    assert code == 0
    a, b = a["results"], b["results"]
    # L(j10) = 50 / (10 + 10j)^4 = -1/800
    assert a["g_upper"]["abs"] == pytest.approx(800.0, rel=1e-9)
    assert a["critical_gain_freq"] == pytest.approx(10.0, rel=1e-9)
    assert a["phase_crossover_freqs"] == pytest.approx(b["phase_crossover_freqs"], rel=1e-9)
    assert a["g_upper"] == pytest.approx(b["g_upper"], rel=1e-9)
    assert a["g_lower"] == b["g_lower"]
    assert a["phi_upper"] == b["phi_upper"]
    assert a["gain_crossover_freqs"] == b["gain_crossover_freqs"] == []


def test_diskmargin_with_worst_case(capsys):
    code, doc = run_json(capsys, ["diskmargin", "ex1_loop.json", "--worst-case"])
    assert code == 0
    r = doc["results"]
    assert r["alpha_max"] == pytest.approx(0.4580925477, rel=1e-8)
    assert r["omega_crit"] == pytest.approx(1.9550268934, rel=1e-6)
    assert r["delta0"]["re"] == pytest.approx(0.2130804584, rel=1e-6)
    assert r["delta0"]["im"] == pytest.approx(-0.4055188042, rel=1e-6)
    assert r["geometry"]["kind"] == "interior-disk"
    assert r["guaranteed_gm"]["lower"]["db"] == pytest.approx(-4.0507984539, rel=1e-8)
    assert r["guaranteed_gm"]["upper"]["db"] == pytest.approx(4.0507984539, rel=1e-8)
    wc = r["worst_case"]
    assert wc["verification"]["verdict"] == "pass"
    assert wc["verification"]["distance"] < 1e-6
    assert wc["beta"] == pytest.approx(3.2357593868, rel=1e-6)
    assert wc["f_hat"]["den"][1] == pytest.approx(2.0297207755, rel=1e-6)


def test_diskmargin_gamma_m_with_zero_lower_gain(capsys, tmp_path):
    # skew -1 gives gamma_min = 1 - alpha, and alpha = 1/||T|| = 3 here, so
    # the reported lower gain is clipped to 0 and gamma_m is the upper gain
    path = write_model(tmp_path, "small.json", {"model": {"tf": {"num": [0.5], "den": [1, 1]}}})
    code, doc = run_json(capsys, ["diskmargin", path, "--skew", "-1"])
    assert code == 0
    r = doc["results"]
    assert r["guaranteed_gm"]["lower"]["abs"] == 0.0
    assert r["gamma_m"] == r["guaranteed_gm"]["upper"]["abs"] == pytest.approx(4.0, rel=1e-9)


def test_diskmargin_skew_one_consistency(capsys):
    code, doc = run_json(capsys, ["diskmargin", "ex1_loop.json", "--skew", "1.0"])
    assert code == 0
    c = doc["results"]["sensitivity_consistency"]
    assert c["rel_diff"] < 1e-6
    assert doc["results"]["alpha_max"] == pytest.approx(1 / 2.4866599136, rel=1e-6)


def test_skew_one_consistency_finds_a_narrow_dip(capsys, tmp_path):
    # |1 + L| dips to its minimum 0.4729 in a lightly damped notch
    # narrower than the spacing of a 2000-point grid over the loop's span
    doc = {"model": {"tf": {
        "num": [-0.0009980103723698298, -0.018372197687157008, 0.22912135298140657,
                4.8521349397163105, 8.92755159250468, -47.31634055207391,
                -117.15565063594894, -34.48711744184019],
        "den": [1.0, 6.612278510863157, 63.6135111202128, 316.5177614749331,
                1022.4008015778973, 2521.2246809341864, 2290.051565498855,
                584.447755192936, 78.3990852508075]}}}
    p = write_model(tmp_path, "notch.json", doc)
    code, out = run_json(capsys, ["diskmargin", p, "--skew", "1"])
    assert code == 0
    c = out["results"]["sensitivity_consistency"]
    assert c["alpha_max"] == pytest.approx(0.47293171, rel=1e-6)
    assert c["rel_diff"] < 1e-6
    code, out = run_json(capsys, ["exclusion", p, "--skew", "1"])
    assert code == 0
    c = out["results"]["sensitivity_consistency"]
    assert c["min_dist_to_critical"] == pytest.approx(c["radius"], rel=1e-6)


def test_trace_csv_explicit_grid(capsys):
    code = main(["trace", "resonant_loop.json", "--grid", "5:20:7"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "omega,alpha,gamma_min,gamma_max,gamma_m,phi_m_deg"
    assert len(lines) == 8  # header + exactly the 7 requested rows
    first = lines[1].split(",")
    assert float(first[0]) == 5.0
    assert float(first[1]) == pytest.approx(1.91625377, rel=1e-6)
    last = lines[-1].split(",")
    assert float(last[0]) == 20.0
    assert float(last[1]) == pytest.approx(2.00120561, rel=1e-6)


def per_row_csv(columns, rows):
    """The CSV text as formatted one "%.12g" row at a time."""
    fmt = ",".join(["%.12g"] * len(columns)) + "\n"
    return ",".join(columns) + "\n" + "".join(fmt % tuple(row) for row in rows)


@pytest.mark.parametrize("n, k", [(0, 6), (0, 3), (1, 6), (7, 3), (40, 6)])
def test_csv_text_matches_per_row_formatting(n, k):
    # the one CSV writer formats the whole table at once
    rng = np.random.default_rng(10 * n + k)
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
               1e300, -1e300, 1.0 / 3.0, 123456789012345.0]
    table = np.resize(rng.permutation(special + rng.standard_normal(6).tolist()), (n, k))
    columns = tuple("c{}".format(i) for i in range(k))
    assert dmkit.cli._csv_text(columns, table) == per_row_csv(columns, table.tolist())


def test_plain_encodes_every_value_json_cannot_hold():
    doc = {"x": (math.nan, math.inf, -math.inf, 0.5, 2, True, None, "s"),
           "z": [1 + 2j, np.complex128(complex(math.inf, -0.0))],
           "a": np.array([[np.float64(math.nan), 1.0]]), "d": np.float64(-math.inf),
           "r": np.array(3.0)}
    assert dmkit.cli._plain(doc) == {
        "x": ["nan", "inf", "-inf", 0.5, 2, True, None, "s"],
        "z": [{"re": 1.0, "im": 2.0}, {"re": "inf", "im": -0.0}],
        "a": [["nan", 1.0]], "d": "-inf", "r": 3.0}
    json.dumps(dmkit.cli._plain(doc), allow_nan=False)


def test_trace_two_point_grid_gives_two_rows(capsys):
    code = main(["trace", "ex1_loop.json", "--grid", "1:10:2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 1.0
    assert float(lines[2].split(",")[0]) == 10.0


def test_trace_json_format(capsys):
    code, doc = run_json(capsys, ["trace", "ex1_loop.json", "--grid", "1:10:4",
                                  "--format", "json"])
    assert code == 0
    r = doc["results"]
    assert r["columns"] == ["omega", "alpha", "gamma_min", "gamma_max",
                            "gamma_m", "phi_m_deg"]
    assert len(r["rows"]) == 4
    assert r["rows"][0][0] == 1.0


def test_trace_to_file(tmp_path, capsys):
    out_path = str(tmp_path / "trace.csv")
    code = main(["trace", "ex1_loop.json", "--grid", "1:10:3", "--out", out_path])
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = open(out_path).read().strip().split("\n")
    assert len(lines) == 4


def test_mimo_satellite_io(capsys):
    code, doc = run_json(capsys, ["mimo", "satellite.json", "--points", "io"])
    assert code == 0
    r = doc["results"]
    assert r["alpha_upper"] == pytest.approx(0.0498446426, rel=1e-4)
    assert r["alpha_lower"] <= r["alpha_upper"]
    assert r["guaranteed_gm"]["lower"]["abs"] == pytest.approx(0.95137, rel=1e-4)
    assert r["guaranteed_gm"]["upper"]["abs"] == pytest.approx(1.05112, rel=1e-4)
    table = r["loop_at_a_time"]
    assert len(table) == 4
    assert {row["location"] for row in table} == {"input", "output"}
    assert {row["channel"] for row in table} == {1, 2}
    for row in table:
        assert row["g_upper"]["abs"] == "inf"
        assert row["phi_upper"]["degrees"] == pytest.approx(90.0, rel=1e-6)
        assert row["alpha_max"] == pytest.approx(2.0, rel=1e-6)
    assert len(r["delta_worst"]) == 4
    assert r["certificate"]["det_residual"] < 1e-6


def test_mimo_reports_unconverged_lower_bound(capsys, monkeypatch):
    code, doc = run_json(capsys, ["mimo", "satellite.json"])
    assert code == 0
    assert doc["diagnostics"] == []
    assert "converged" not in doc["results"]
    real = dmkit.cli.multiloop_margin
    monkeypatch.setattr(dmkit.cli, "multiloop_margin",
                        lambda *a, **k: dataclasses.replace(real(*a, **k), converged=False))
    code, stalled = run_json(capsys, ["mimo", "satellite.json"])
    assert code == 0
    assert len(stalled["diagnostics"]) == 1
    assert "did not converge" in stalled["diagnostics"][0]
    assert stalled["results"] == doc["results"]


def test_mimo_builds_the_peak_seed_twice(capsys, monkeypatch):
    # once for the mu sweep and once for M's response; every
    # loop-at-a-time row takes the latter instead of building its own
    calls = []
    inner = dmkit.specnorm._peak_seed

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(dmkit.specnorm, "_peak_seed", counting)
    monkeypatch.setattr(dmkit.multiloop, "_peak_seed", counting)
    code, doc = run_json(capsys, ["mimo", "satellite.json", "--points", "io"])
    assert code == 0 and len(doc["results"]["loop_at_a_time"]) == 4
    assert len(calls) == 2


def test_mimo_channel_list(capsys):
    code, doc = run_json(capsys, ["mimo", "satellite.json", "--points", "0,1"])
    assert code == 0
    r = doc["results"]
    assert r["alpha_upper"] == pytest.approx(0.0997512422, rel=1e-5)
    table = r["loop_at_a_time"]
    assert [(row["location"], row["channel"]) for row in table] == \
        [("input", 1), ("input", 2)]


def test_exclusion_outputs_samples(capsys, tmp_path):
    out_path = str(tmp_path / "samples.csv")
    code, doc = run_json(capsys, ["exclusion", "ex1_loop.json", "--out", out_path])
    assert code == 0
    r = doc["results"]
    assert r["intercepts"][0] == pytest.approx(-1.5941894205, rel=1e-6)
    assert r["intercepts"][1] == pytest.approx(-0.6272780306, rel=1e-6)
    assert r["tangency"]["re"] == pytest.approx(-0.7487205582, rel=1e-4)
    lines = open(out_path).read().strip().split("\n")
    assert lines[0] == "omega,re_L,im_L"
    assert len(lines) > 100
    assert float(lines[1].split(",")[1]) == 2.5  # L(0)


def test_exclusion_rejects_half_plane_case(capsys, tmp_path):
    # integrator loop: alpha_max = 2 at sigma = 0 is not an interior disk
    path = write_model(tmp_path, "integrator.json",
                       {"model": {"tf": {"num": [1], "den": [1, 0]}}})
    code = main(["exclusion", path])
    err = capsys.readouterr().err
    assert code == 1
    assert "disk" in err or "interior" in err


def test_output_deterministic_apart_from_timestamp(capsys):
    _, a = run_json(capsys, ["classical", "ex1_loop.json"])
    _, b = run_json(capsys, ["classical", "ex1_loop.json"])
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


def test_out_flag_writes_json(tmp_path, capsys):
    out_path = str(tmp_path / "doc.json")
    code = main(["classical", "ex1_loop.json", "--out", out_path])
    assert code == 0
    doc = json.loads(open(out_path).read())
    assert doc["command"] == "classical"


def test_exit_codes():
    assert main(["classical", "/nonexistent/nope.json"]) == 1
    assert main(["bogus-command"]) == 1
    assert main([]) == 1


def test_exit_code_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["classical", str(p)]) == 1


def test_exit_code_mimo_model_to_classical(tmp_path):
    doc = {"model": {"tfm": [[{"num": [1], "den": [1, 1]},
                              {"num": [0], "den": [1]}],
                             [{"num": [0], "den": [1]},
                              {"num": [1], "den": [1, 2]}]]}}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    assert main(["classical", str(p)]) == 1


def test_exit_code_unstable_loop(tmp_path):
    p = tmp_path / "u.json"
    p.write_text(json.dumps({"model": {"tf": {"num": [0.5], "den": [1, -1]}}}))
    assert main(["diskmargin", str(p)]) == 2


def test_exit_code_bad_grid():
    assert main(["trace", "ex1_loop.json", "--grid", "10:1:5"]) == 1
    assert main(["trace", "ex1_loop.json", "--grid", "abc"]) == 1


def test_exit_code_bad_points():
    assert main(["mimo", "satellite.json", "--points", "zig"]) == 1


def test_mimo_reads_no_seed_variable(capsys, monkeypatch):
    # the mu lower bound is deterministic, so DMKIT_SEED is no setting
    code, plain = run_json(capsys, ["mimo", "satellite.json"])
    monkeypatch.setenv("DMKIT_SEED", "not-a-number")
    code_set, seeded = run_json(capsys, ["mimo", "satellite.json"])
    assert code == code_set == 0
    plain.pop("generated_at")
    seeded.pop("generated_at")
    assert seeded == plain


def test_model_with_controller_folds_to_siso(capsys, tmp_path):
    # P = 25/(s^3+10s^2+10s+10) with unit controller equals the plain loop
    doc = {"model": {"tf": {"num": [25], "den": [1, 10, 10, 10]}},
           "controller": {"tf": {"num": [1], "den": [1]}}}
    p = write_model(tmp_path, "pk.json", doc)
    code, out = run_json(capsys, ["classical", p])
    assert code == 0
    assert out["results"]["g_upper"]["abs"] == pytest.approx(3.6, rel=1e-6)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_cli_imports_no_private_dmkit_names():
    # function-local imports included; dunders such as __version__ are public
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for node in ast.walk(ast.parse(open(dmkit.cli.__file__, encoding="utf-8").read())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("dmkit")):
            parts = (node.module or "").split(".")
            found += [p for p in parts if private(p)]
            found += [a.name for a in node.names if private(a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "dmkit":
                    found += [p for p in a.name.split(".") if private(p)]
    assert found == []


def test_cli_import_loads_no_scipy():
    # the package needs numpy only; scipy is an oracle of the tests
    src = os.path.dirname(os.path.dirname(dmkit.cli.__file__))
    probe = ("import sys; sys.path.insert(0, {!r}); import dmkit.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))").format(src)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli")
# loops for the golden paths that no bundled example reaches
GOLDEN_MODELS = {
    # |S - 1/2| peaks at w = inf, where L = 0: f0 is infinite
    "peak_at_inf": {"tf": {"num": [0.5], "den": [1, 1]}},
    # |delta0| (1 + sigma) = 3.16 at sigma 0: no stable proper f_hat
    "no_allpass": {"tf": {"num": [0.5, 0.5, 0.5], "den": [1.0, 1.86, 0.32]}},
    # stable again for gains above 13.1
    "conditional": {"tf": {"num": [-0.9, -0.3, -0.4], "den": [1.0, 3.93, 0.72]}},
    "unstable": {"tf": {"num": [0.5], "den": [1, -1]}},
    # the characteristic polynomial overflows: root extraction fails
    "overflow": {"tf": {"num": [1e300], "den": [1e-300, 1]}},
    # S + (sigma - 1)/2 vanishes, at sigma = -1 and at sigma = 0: no disk
    # perturbation destabilizes the loop
    "zero_loop": {"tf": {"num": [0], "den": [1, 1]}},
    "unit_loop": {"tf": {"num": [1], "den": [1]}},
}
# (name, argv, exit code); {out} is a scratch file, {name} a GOLDEN_MODELS file
GOLDEN_CASES = [
    ("classical_out", ["classical", "ex1_loop.json", "--out", "{out}"], 0),
    ("trace_json", ["trace", "resonant_loop.json", "--grid", "1:10:6", "--format", "json"], 0),
    ("exclusion_out", ["exclusion", "ex1_loop.json", "--out", "{out}"], 0),
    ("diskmargin_construction_failed", ["diskmargin", "{no_allpass}", "--worst-case"], 0),
    ("diskmargin_f0_inf", ["diskmargin", "{peak_at_inf}", "--worst-case"], 0),
    ("diskmargin_unbounded_skew", ["diskmargin", "{zero_loop}", "--skew", "-1", "--worst-case"], 0),
    ("diskmargin_unbounded", ["diskmargin", "{unit_loop}", "--worst-case"], 0),
    ("classical_extra_interval", ["classical", "{conditional}"], 0),
    ("mimo_channel_list", ["mimo", "satellite.json", "--points", "0,1"], 0),
    ("exit_1", ["mimo", "satellite.json", "--points", "zig"], 1),
    ("exit_2", ["diskmargin", "{unstable}"], 2),
    ("exit_3", ["classical", "{overflow}"], 3),
]


def golden_run(capsys, tmp_path, argv):
    """(exit code, {stream: text}) of main(argv), with the streams stdout,
    stderr and out (the --out file) normalized: the generated_at line is
    dropped and the model and --out paths read MODEL and OUT."""
    files = {"out": str(tmp_path / "out.txt")}
    for name, model in GOLDEN_MODELS.items():
        files[name] = write_model(tmp_path, name + ".json", {"model": model})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([a.format(**files) for a in argv])
    streams = capsys.readouterr()
    texts = {"stdout": streams.out, "stderr": streams.err}
    if os.path.exists(files["out"]):
        texts["out"] = open(files["out"], encoding="utf-8").read()
    for key, text in texts.items():
        text = re.sub(r'\n *"generated_at": "[^"]*",', "", text)
        text = re.sub(r'"path": "[^"]*"', '"path": "MODEL"', text)
        texts[key] = text.replace(files["out"], "OUT")
    return code, texts


@pytest.mark.parametrize("name, argv, code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_cli_golden_output(capsys, tmp_path, name, argv, code):
    # GOLDEN holds NAME.stdout, NAME.stderr and NAME.out; an absent file
    # stands for an empty stream
    got_code, texts = golden_run(capsys, tmp_path, argv)
    assert got_code == code
    for stream in ("stdout", "stderr", "out"):
        path = os.path.join(GOLDEN, "{}.{}".format(name, stream))
        want = open(path, encoding="utf-8").read() if os.path.exists(path) else ""
        assert texts.get(stream, "") == want, stream


@pytest.mark.parametrize("name", dmkit.errors.__all__)
def test_each_error_class_has_its_exit_code(capsys, monkeypatch, name):
    cls = getattr(dmkit.errors, name)

    def fail(*args, **kwargs):
        raise cls("planted")

    monkeypatch.setattr(dmkit.cli, "classical_margins", fail)
    want = 1 if issubclass(cls, dmkit.errors.InputError) else \
        2 if issubclass(cls, dmkit.errors.DomainError) else 3
    documented = {"UnsupportedCaseError": 1, "ImproperModelError": 1,
                  "NominalInstabilityError": 2, "ConstructionError": 3}
    assert documented.get(name, want) == want
    assert main(["classical", "ex1_loop.json"]) == want
    assert capsys.readouterr().err == "error: planted\n"


@pytest.mark.parametrize("command, model", [
    ("exclusion", {"tf": {"num": [1], "den": [1, 1e300, 1e300]}}),
    ("classical", {"tf": {"num": [1e300], "den": [1e-300, 1]}}),
])
def test_overflow_leaves_only_the_error_line_on_stderr(tmp_path, command, model):
    # the overflow numpy meets on the way is no warning of its own: the
    # analysis reports the failure it leads to
    path = write_model(tmp_path, "overflow.json", {"model": model})
    src = os.path.dirname(os.path.dirname(dmkit.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    out = subprocess.run([sys.executable, "-m", "dmkit.cli", command, path],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 3
    assert re.fullmatch(r"error: [^\n]+\n", out.stderr), out.stderr


def test_bench_entry_points():
    # bench/setup_probe.py times _load_model_file, and bench/selftest.py
    # checks through cli.eval_freq that the tracer restores what it wraps
    P, K, path, digest = dmkit.cli._load_model_file("ex1_loop.json")
    assert isinstance(P, dmkit.lti.LtiModel) and K is None
    assert os.path.basename(path) == "ex1_loop.json" and len(digest) == 64
    assert dmkit.cli.eval_freq is dmkit.lti.eval_freq
