"""Set-up probe: import qdmsim, parse a config and build the model, timed.

Runs in a fresh interpreter per call, so the figures are a cold start of
the package (the interpreter's own start-up is not counted).  Usage:

    PYTHONPATH=src python3 perfbench/probe.py CONFIG_PATH

Prints one JSON object with import_s, parse_config_s, model_build_s and
their sum setup_s.
"""

import json
import sys
import time


def main() -> None:
    with open(sys.argv[1]) as f:
        text = f.read()
    t0 = time.perf_counter()
    import qdmsim
    t1 = time.perf_counter()
    cfg = qdmsim.parse_config(text)
    t2 = time.perf_counter()
    cfg.model()
    cfg.protocol_params()
    cfg.sweep_spec()
    cfg.voxel_grid()
    cfg.aom_calibration()
    t3 = time.perf_counter()
    print(json.dumps({"qdmsim": qdmsim.__file__, "import_s": t1 - t0,
                      "parse_config_s": t2 - t1, "model_build_s": t3 - t2,
                      "setup_s": t3 - t0}))


if __name__ == "__main__":
    main()
