"""Time one fresh-process set-up: import hcmm, build_config, build_problem.

    python3 perfbench/setup_probe.py SPEC

Prints the seconds from before `import hcmm` until `build_problem` returns,
which includes parsing the LIBSVM file of the logistic workloads. Only the
standard library is imported before the clock starts.
"""

import json
import sys
import time

if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        mapping = json.load(fh)["mappings"][0]
    t0 = time.perf_counter()
    import hcmm  # noqa: F401
    from hcmm.harness import build_config, build_problem
    build_problem(build_config(mapping))
    print(repr(time.perf_counter() - t0))
