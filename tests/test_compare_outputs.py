"""Helpers of the same-answers gate, tools/compare_outputs.py."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        import compare_outputs
    finally:
        sys.path.remove(os.path.join(ROOT, "tools"))
    return compare_outputs


def test_noisy_response_is_quiet_at_infinite_frequency():
    # a warning would land in the captured stderr of the command being
    # compared, and the gate discards a noisy run whose stderr differs
    probe = "; ".join([
        "import math, sys",
        "sys.path[:0] = [{!r}, {!r}]".format(os.path.join(ROOT, "src"), os.path.join(ROOT, "tools")),
        "import compare_outputs, dmkit.lti",
        "exact = dmkit.lti.freq_response",
        "compare_outputs.add_noise(0)",
        "assert dmkit.lti.freq_response is not exact",
        "m = dmkit.lti.ss([[-1.0, 2.0], [0.0, -3.0]], [[1.0], [0.5]], [[1.0, 0.0]], [[0.25]])",
        "vals, ok = dmkit.lti.freq_response(m, [1.0, math.inf])",
        "assert ok.all() and abs(vals[1] - 0.25) <= 1e-12",
    ])
    out = subprocess.run([sys.executable, "-W", "error", "-c", probe],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_largest_peak_fall_reports_the_command():
    compare_outputs = _tool()

    def doc(value):
        return json.dumps({"results": {"peak_gain": {"value": value, "frequency": 1.0}}})

    pairs = [("rise", doc(3.0), doc(3.1)), ("fall", doc(2.0), doc(2.0 * (1 - 1e-11))),
             ("csv", "w,alpha\n1.0,2.0", "w,alpha\n1.0,2.0"), ("no peak", "{}", "{}")]
    fall, key = compare_outputs.largest_move(pairs, ("peak_gain", "value"))
    assert key == "fall" and abs(fall - 1e-11) <= 1e-15
    assert compare_outputs.largest_move(pairs[:1], ("peak_gain", "value")) == (0.0, None)


def test_largest_alpha_lower_rise_reports_the_command():
    compare_outputs = _tool()

    def doc(value):
        return json.dumps({"results": {"alpha_lower": value, "alpha_upper": 1.0}})

    pairs = [("fall", doc(0.5), doc(0.4)), ("rise", doc(0.5), doc(0.5 * (1 + 4e-13))),
             ("peak", json.dumps({"results": {"peak_gain": {"value": 2.0}}}),
              json.dumps({"results": {"peak_gain": {"value": 3.0}}})),
             ("csv", "w,alpha\n1.0,2.0", "w,alpha\n1.0,3.0"), ("no bound", "{}", "{}")]
    rise, key = compare_outputs.largest_move(pairs, ("alpha_lower",), rise=True)
    assert key == "rise" and abs(rise - 4e-13) <= 1e-16
    assert compare_outputs.largest_move(pairs[:1], ("alpha_lower",), rise=True) == (0.0, None)


def test_line_counts_leave_docstrings_and_comments_out_of_code(tmp_path):
    compare_outputs = _tool()
    pkg = tmp_path / "src" / "dmkit"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text('\n'.join([
        '"""Module docstring,',
        'two lines."""',
        '',
        '# a comment alone',
        'X = 1  # code with a comment',
        '',
        'def f(x):',
        '    """One-line docstring."""',
        '    s = """a string that is',
        '',
        '    not a docstring"""',
        '    return (x,',
        '            # a comment inside brackets',
        '            s)',
        '',
        '',
        'class K:',
        '    """Class',
        '    docstring."""',
        '',
        '    y = 2',
        '',
    ]))
    (pkg / "sub" / "b.py").write_text("# only a comment\n\nZ = [\n    3,\n]\n")
    (pkg / "notes.txt").write_text("not python\n")
    # non-blank: 15 in a.py, 4 in b.py; code: X, def, s (two of its three
    # lines hold text), return, its closing line, class and y in a.py, and
    # the three lines of Z in b.py
    assert compare_outputs.nonblank_lines(str(tmp_path)) == 19
    assert compare_outputs.code_lines(str(tmp_path)) == 11
