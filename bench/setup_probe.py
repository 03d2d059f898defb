"""Cold start of the CLI: a fresh interpreter imports dmkit.cli and loads
one model file.  Prints the two stage times as JSON; the caller times the
whole process.

    python3 bench/setup_probe.py MODEL_PATH
"""

import json
import sys
import time


def main(model_path):
    t0 = time.perf_counter()
    sys.path.insert(0, "src")
    import dmkit.cli

    t1 = time.perf_counter()
    dmkit.cli._load_model_file(model_path)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_model_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1])
