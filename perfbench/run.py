"""Run one perfbench workload and print its metrics.

From the root of a source checkout::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (spans through ``repro.obs``, exported under
``.perfbench/traces/``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same numbers for people, and ``.perfbench/results/`` keeps the
run's details (sample counts, layer ledger, failures).

``--ops N`` stops after N ops instead of after ``--seconds`` and
``--tiny`` shrinks every input; the self-test uses both so that exact
counts repeat.  ``BENCHMARK.json`` gates ``analyze-cli`` and
``serve-mixed``; ``sweep-cold`` runs the same way but is not gated,
because its spread across runs exceeded its bounds (see
``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from typing import List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = {
    "sweep-cold": "sweep_cold",
    "analyze-cli": "analyze_cli",
    "serve-mixed": "serve_mixed",
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="stop after this many ops (exact-count runs)")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (self-test)")
    args = parser.parse_args(argv)

    common.require_checkout()
    spec = common.load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    names = [(m["name"], m["unit"]) for m in spec[section]]

    run = common.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                     max_ops=args.ops, tiny=args.tiny)
    workload = importlib.import_module(WORKLOADS[args.workload])
    workload.main(run)
    # Stores, plans and recorded inputs are per run; results and span
    # exports stay.
    shutil.rmtree(os.path.join(common.OUT, "runs"), ignore_errors=True)
    if args.trace:
        common.fill_idle(run, names, workload.IDLE)
        run.details["idle"] = list(workload.IDLE)
    result = common.result_line(run, names)

    results_dir = os.path.join(common.OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    details_path = os.path.join(
        results_dir,
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(details_path, "w", encoding="utf-8") as fp:
        json.dump({"args": vars(args), "result": result,
                   "problems": run.problems, "invalid": run.invalid,
                   "details": run.details}, fp, indent=2, sort_keys=True,
                  default=str)

    print(f"{args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}): "
          f"{run.attempted} ops attempted, {run.failed} failed, "
          f"{run.details.get('samples', 0)} latency samples")
    for problem in run.problems + run.invalid:
        print(f"  problem: {problem}")
    for name, unit in names:
        print(f"  {name:32s} {result['metrics'][name]['value']:14.6g} {unit}")
    print(f"  details: {os.path.relpath(details_path, common.ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
