"""One run of the scorefeat CLI in a fresh interpreter, timed from inside.

Usage: python3 child.py SPAWNED RESULT THREADS [--trace] -- CLI_ARGS...

SPAWNED is the parent's CLOCK_MONOTONIC reading taken just before it
started this process. Set-up time runs from there until ``scorefeat.cli``
is imported and the run's config is loaded and validated; wall time is the
``cli.run(CLI_ARGS)`` call. With ``--trace`` the spans recorded around the
package's functions go into RESULT as well.

Right before and right after ``cli.run`` the child times ``reference``, a
fixed computation that does not touch scorefeat, run by THREADS threads at
once as the run's own pool would. The parent uses these two times to correct
each run for the speed the shared machine had at the time.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


def _reference_work(_=None) -> None:
    import numpy as np

    rng = random.Random(0)
    rows = np.arange(60_000, dtype=float).reshape(60, -1)
    for _ in range(5):  # small pieces, so that the peak memory of the run stays the program's
        data = [rng.random() for _ in range(20_000)]
        sums: dict[str, float] = {}
        for i, x in enumerate(data):
            key = str(i % 3000)
            sums[key] = sums.get(key, 0.0) + x
        data.sort()
        for _ in range(4):
            np.corrcoef(rows + 1.0)


def reference(threads: int) -> float:
    """Seconds taken by ``threads`` threads each doing a fixed mix of Python
    object work and small numpy calls, like scorefeat's own. The garbage
    collector is off meanwhile, so that the objects the program holds do not
    change the duration."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        if threads == 1:
            _reference_work()
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(_reference_work, range(threads)))
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def main(argv: list[str]) -> int:
    split = argv.index("--")
    spawned, result_path, threads = float(argv[0]), Path(argv[1]), int(argv[2])
    traced = "--trace" in argv[3:split]
    cli_args = argv[split + 1 :]

    from scorefeat import cli

    config = cli.load_config(Path(cli_args[cli_args.index("--config") + 1]))
    config.extractor.validate()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned

    import tracing

    run = cli.run
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.wrap("cli.run", run)

    before = reference(threads)
    cpu = tracing.cpu_s()
    start = time.perf_counter()
    exit_code = run(cli_args)
    wall_s = time.perf_counter() - start
    cpu_s = tracing.cpu_s() - cpu
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    after = reference(threads)

    result = {
        "exit_code": exit_code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "reference_s": [before, after],
        # ru_maxrss is in KiB on Linux; for children it is the largest one.
        "peak_rss_mb": (own + workers) / 1024,
        "scorefeat": str(Path(cli.__file__).resolve().parent),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
