"""Helpers of the same-answers gate, tools/compare_outputs.py."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        import compare_outputs
    finally:
        sys.path.remove(os.path.join(ROOT, "tools"))

    def doc(value):
        return json.dumps({"results": {"peak_gain": {"value": value, "frequency": 1.0}}})

    pairs = [("rise", doc(3.0), doc(3.1)), ("fall", doc(2.0), doc(2.0 * (1 - 1e-11))),
             ("csv", "w,alpha\n1.0,2.0", "w,alpha\n1.0,2.0"), ("no peak", "{}", "{}")]
    fall, key = compare_outputs.largest_peak_fall(pairs)
    assert key == "fall" and abs(fall - 1e-11) <= 1e-15
    assert compare_outputs.largest_peak_fall(pairs[:1]) == (0.0, None)
