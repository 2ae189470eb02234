"""Time one set-up from a fresh interpreter: import pdomd, read the config,
build the trace and the problem. Prints {"setup_s": ...} as one JSON line.

Usage: python3 bench/setup_probe.py <src dir> <config json>
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, config_path = sys.argv[1:3]
    sys.path.insert(0, src)
    import pdomd
    import spec

    config = pdomd.parse_config(config_path)
    problem = spec.build_problem(pdomd, config)
    elapsed = time.perf_counter() - _STARTED
    print(json.dumps({"setup_s": elapsed, "dimension": problem.dimension}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
