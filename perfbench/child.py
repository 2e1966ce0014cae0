"""Fresh-interpreter measurements, run by run.py as child processes.

    child.py import                       import margin_lab, print its time
    child.py setup <workload> <seed> <size> <out>
                                          import + inputs + warm-up, timed
    child.py floor <rows> <d>             median Z @ w + c @ Z time

Only clock.py (math, signal and time) is imported before margin_lab, so the
import is timed as a user pays it when a command starts. Times are sampled
by clock.Sampler here, in the process that ran the work, as only it sees the
speed of its own core; ``*_raw_s`` are the unnormalised times.
"""

import sys

import clock

with clock.Sampler("python" if sys.argv[1] != "floor" else None) as imported:
    if sys.argv[1] != "floor":
        import margin_lab  # noqa: E402,F401

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from provenance import matvec_pair_s  # noqa: E402


def main() -> None:
    mode = sys.argv[1]
    result = {"import_s": imported.seconds, "import_raw_s": imported.raw_s}
    if mode == "setup":
        with clock.Sampler() as rest:
            from workloads import WORKLOADS

            name, seed, size, out = sys.argv[2], int(sys.argv[3]), sys.argv[4], Path(sys.argv[5])
            work = WORKLOADS[name](seed, size, out)
            work.setup()
            work.warm_up()
        result["setup_s"] = imported.seconds + rest.seconds
    elif mode == "floor":
        rows, d = int(sys.argv[2]), int(sys.argv[3])
        z = np.random.default_rng(0).standard_normal((rows, d))
        result = {"matvec_pair_s": matvec_pair_s(z)}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
