#!/usr/bin/env python
"""Print the engine's line count: ``wc -l`` of each of the 23 engine
modules (``nrt_ray/`` minus the catalog modules, as ROADMAP.md's
direction 6 lists them) and their total.  Run from anywhere:

    python scripts/engine_loc.py
"""

from __future__ import annotations

import os

ENGINE_MODULES = (
    "cli", "util", "state/manifest",
    "kernels/efp", "kernels/fit", "kernels/monitors", "kernels/outliers",
    "kernels/regressors", "kernels/stats",
    "pipelines/monitor_pipeline", "pipelines/incremental",
    "pipelines/continuous", "pipelines/retier",
    "stages/exchange", "stages/compress", "stages/rollup",
    "stages/fit_monitor", "stages/assemble", "stages/hashagg",
    "sources/extract", "sources/synthetic", "sources/warc",
    "sources/formats",
)


def main() -> int:
    pkg = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "nrt_ray")
    total = 0
    for mod in ENGINE_MODULES:
        with open(os.path.join(pkg, mod + ".py"), "rb") as f:
            n = f.read().count(b"\n")          # what wc -l counts
        total += n
        print(f"{n:7d} nrt_ray/{mod}.py")
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
