#!/usr/bin/env python3
"""Time one catalog build of the perfbench star schema at a chosen size.

    python3 tools/time_build.py 1000000 4

The fact table ``sales`` gets ROWS rows, ``customer`` ROWS/50 rows and
``product`` ROWS/200 rows, built with ``mcv_size`` 256 (the ``star-build``
settings at 10^5 rows).  The dataset comes from perfbench's generator,
which is imported and never modified: a size entry is added to its
in-memory size table only.  The schema is written as CSV to a temporary
directory, loaded, and built once, in this process.  The script prints one
JSON line: the build's wall seconds and this process's own peak resident
set (``VmHWM`` from ``/proc/self/status``, null where that file does not
exist), which covers generation, CSV load and build.

The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import seqbound  # noqa: E402
import bench_data  # noqa: E402

SIZE_KEY = "time-build"


def peak_rss_mb() -> float | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(a.isdigit() for a in argv) or int(argv[0]) < 200:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: time_build.py ROWS SEED  (ROWS at least 200)", file=sys.stderr)
        return 2
    rows, seed = map(int, argv)
    bench_data.STAR_SIZES[SIZE_KEY] = (rows, rows // 50, rows // 200, {"mcv_size": 256})
    ds = bench_data.star_dataset(seed, SIZE_KEY)
    with tempfile.TemporaryDirectory() as work:
        ws = seqbound.load_workspace(ds.write(work))
    params = seqbound.make_build_params(ws.params)
    t0 = perf_counter()
    seqbound.build_catalog(ws.relations, ws.roles, ws.pkfk, params)
    build_s = perf_counter() - t0
    print(json.dumps({"rows": rows, "seed": seed, "build_s": round(build_s, 3),
                      "vm_hwm_mb": peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
