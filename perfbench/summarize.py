"""Print the per-layer tables of traced benchmark runs.

Usage (from the repository root, after ``run.py ... --trace 1``)::

    python3 perfbench/summarize.py                 # every traced report
    python3 perfbench/summarize.py .perfbench-out/archive-8m-seed1-trace1.json

For each report: per-layer busy time (sum of span durations), self time
(duration minus the union of child spans), call counts and ratios, the
tracing overhead on every end-to-end metric, and, per archive operation,
how the traced wall time splits over the layers next to the untraced p50.
All times are medians over the run's traced steps.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench-out"
RATIOS = (
    "refactor.deflate_raw_frac", "refactor.deflate_ratio",
    "gather.aco_gain_frac", "storage.fetch_fail_frac",
)


def summarize(report: dict) -> str:
    lines = []
    info = report["info"]
    lines.append(
        f"== {report['workload']}  seed {report['seed']}  "
        f"engine {info.get('engine', 'service')}  nproc {info['nproc']}  "
        f"python {info['python']}  numpy {info['numpy']}  sha {info['git_sha'][:12]}"
    )
    lines.append(f"   steps untraced {report['samples']['steps']}, "
                 f"traced {report['samples_traced']['steps']}")
    lines.append(f"   {'layer':28s} {'busy s':>10s} {'self s':>10s} {'calls':>8s}")
    for name, row in report["layers"].items():
        lines.append(f"   {name:28s} {row['busy']:10.4f} {row['self']:10.4f} {row['calls']:8.0f}")
    per_layer = report["per_layer"]
    lines.append("   ratios: " + ", ".join(
        f"{k} {per_layer[k]['value']:.4f}" for k in RATIOS
    ))
    lines.append(f"   {'end-to-end metric':28s} {'untraced':>12s} {'traced':>12s} {'overhead':>9s}")
    for name, plain in report["end_to_end"].items():
        traced = report["end_to_end_traced"][name]["value"]
        value = plain["value"]
        over = (traced / value - 1.0) if value else 0.0
        if name.endswith("per_s"):
            over = (value / traced - 1.0) if traced else 0.0
        lines.append(f"   {name:28s} {value:12.6g} {traced:12.6g} {100 * over:8.1f}%")
    for kind, acc in report.get("accounting", {}).items():
        total = sum(acc["shares_s"].values())
        lines.append(
            f"   {kind}: untraced p50 {acc['untraced_p50_s']:.4f} s, traced "
            f"p50 {acc['traced_p50_s']:.4f} s, layer shares sum {total:.4f} s"
        )
        for name, share in sorted(acc["shares_s"].items(), key=lambda kv: -kv[1]):
            if share >= 0.001 * total:
                lines.append(f"      {name:28s} {share:10.4f} s  {100 * share / total:5.1f}%")
    return "\n".join(lines)


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    if not paths:
        paths = sorted(OUT_DIR.glob("*-trace1.json"))
    if not paths:
        print(f"no traced reports in {OUT_DIR}; run run.py --trace 1 first",
              file=sys.stderr)
        return 1
    for path in paths:
        print(summarize(json.loads(path.read_text())))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
