"""Calibration helper: print key metrics for all workloads."""

import sys

from repro.eval.profiles import SCALES
from repro.eval.runner import run_system
from repro.eval.runspec import RunSpec
from repro.util.clock import Stopwatch

scale = SCALES[sys.argv[1] if len(sys.argv) > 1 else "default"]
ncores = int(sys.argv[2]) if len(sys.argv) > 2 else 1
wls = ["db", "tpcw", "japp", "web"] + (["mix"] if ncores == 4 else [])
for wl in wls:
    watch = Stopwatch()
    r = run_system(RunSpec.create(wl, ncores, "none", scale=scale))
    core = r.cores[0]
    l1d_ratio = core.l1d_misses / max(1, core.data_accesses)
    print(f"{wl:5s} IPC={r.aggregate_ipc:6.3f} L1I={100*r.l1i_miss_rate:5.2f}% "
          f"L2I={100*r.l2i_miss_rate:6.3f}% L2D={100*r.l2d_miss_rate:6.3f}% "
          f"L1Dmr={100*l1d_ratio:5.2f}%  ({watch.elapsed():.0f}s)")
