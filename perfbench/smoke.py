"""Smoke test of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/smoke.py

For every workload, timing only the first few items of each pass:
- the untraced run emits exactly the end-to-end metrics of BENCHMARK.json,
  with their units, and the traced run exactly the per-layer ones;
- every output is correct, and the traced outputs equal the untraced ones;
- per-layer `.calls` repeat exactly across two traced passes;
- output digests are identical under two PYTHONHASHSEED values and match
  the pinned digests of the default seed.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run

# Items timed per pass: the first 8 commands of cli_stream cover line4 and
# the pentagon, so every layer it names is active.
ITEMS = {"sweep_uniform_r4": 4, "sweep_nonpappus_r3": 4, "cli_stream": 8}


def expected(section: str) -> list:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


def emitted(metrics: dict) -> list:
    return [(name, m["unit"]) for name, m in metrics.items()]


def main() -> int:
    os.makedirs(run.WORK_DIR, exist_ok=True)
    with open(run.DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    problems = []
    for workload in run.WORKLOADS:
        seed = run.DEFAULT_SEED
        by_hash = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            by_hash.append(run.run_pass(workload, seed, 0, ITEMS[workload],
                                        env))
        untraced = by_hash[:1]
        traced = [run.run_pass(workload, seed, 1, ITEMS[workload])
                  for _ in range(2)]
        want = pinned[workload][:ITEMS[workload]]

        def check(ok: bool, what: str) -> None:
            if not ok:
                problems.append(f"{workload}: {what}")

        check(by_hash[0]["digests"] == by_hash[1]["digests"] == want,
              "digests differ across PYTHONHASHSEED or from the pinned ones")
        check(run.failed_items(by_hash + traced, want) == 0,
              "failed items, or traced outputs differ from untraced ones")
        setups = run.setup_times(workload, seed,
                                 time.perf_counter() + run.DEADLINE_S)
        check(emitted(run.end_to_end(untraced, setups))
              == expected("end_to_end"),
              "end-to-end metrics differ from BENCHMARK.json")
        layers = run.per_layer(traced, untraced)
        check(emitted(layers) == expected("per_layer"),
              "per-layer metrics differ from BENCHMARK.json")
        calls = [{k: v[0] for k, v in p["layers"].items()} for p in traced]
        check(calls[0] == calls[1]
              and traced[0]["counts"] == traced[1]["counts"],
              "per-layer calls differ between two traced passes")
        check(not run.inactive_layers(workload, traced),
              f"inactive layers {run.inactive_layers(workload, traced)}")
        print(f"{workload}: checked", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
