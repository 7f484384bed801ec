"""Quick prefetcher comparison for calibration."""

import sys

from repro.eval.profiles import SCALES
from repro.eval.runner import run_system
from repro.eval.runspec import RunSpec
from repro.util.clock import Stopwatch

scale = SCALES[sys.argv[1] if len(sys.argv) > 1 else "default"]
ncores = int(sys.argv[2]) if len(sys.argv) > 2 else 1
policy = sys.argv[3] if len(sys.argv) > 3 else "normal"
wl = sys.argv[4] if len(sys.argv) > 4 else "db"

base = run_system(RunSpec.create(wl, ncores, "none", scale=scale, l2_policy=policy))
print(f"{wl} baseline: IPC={base.aggregate_ipc:.3f} L1I={100*base.l1i_miss_rate:.2f}% "
      f"L2I={100*base.l2i_miss_rate:.3f}% L2D={100*base.l2d_miss_rate:.3f}%")
for pf in ["next-line-on-miss", "next-line-tagged", "next-4-line", "discontinuity", "discontinuity-2nl"]:
    watch = Stopwatch()
    r = run_system(RunSpec.create(wl, ncores, pf, scale=scale, l2_policy=policy))
    print(f"{pf:18s} IPC={r.aggregate_ipc:6.3f} ({r.aggregate_ipc/base.aggregate_ipc:5.3f}x) "
          f"L1I={r.l1i_miss_rate/base.l1i_miss_rate:5.3f} L2I={r.l2i_miss_rate/max(1e-12,base.l2i_miss_rate):5.3f} "
          f"L2D={r.l2d_miss_rate/max(1e-12,base.l2d_miss_rate):5.3f} "
          f"acc={100*r.prefetch_accuracy:4.1f}% cov={100*r.l1i_coverage:4.1f}% ({watch.elapsed():.0f}s)")
