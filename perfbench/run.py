"""omcanon benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs no build.  A run is a
closed loop with a single client: it starts one fresh interpreter per pass
(`worker.py`), one at a time, each of which sets up the seeded inputs and
times the whole workload once.  Passes repeat until at least S seconds
have gone by and at least two passes have run.  A latency sample is one
command on cli_stream and, on the sweeps, one tope together with its
negative.  Every output is checked after its timed region.  Times in the
metrics are scaled to the speed of an uncontended host (see
worker.REFERENCE_MS).

With `--trace 0` the last stdout line is a JSON object holding every
end-to-end metric.  With `--trace 1` untraced and traced passes alternate
and the metrics are the per-layer ones from the traced passes, plus
`trace.overhead_frac`.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("sweep_uniform_r4", "sweep_nonpappus_r3", "cli_stream")
DEFAULT_SEED = 0  # the seed whose output digests are pinned in digests.json
DEADLINE_S = 170  # no pass may end later, so a run exits within 180 s
# Untraced passes per run, at least: two put 72-84 pooled latency samples
# in a run, 7-8 of them beyond p90.  A third would take a run past 50 s
# when the host is slow, and the 70 runs of a benchmark past an hour.
MIN_PASSES = 2
SETUP_ONLY = 3  # set-up-only launches before each pass, for setup_s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics read from span totals: (span name, fields).  "calls"
# and "builds" count spans of the first traced pass; "self_s" is the median
# over traced passes, scaled by the pass's ratio of scaled to raw wall time.  The metrics after them in
# PER_LAYER are derived.
_SPANS = (
    ("om.build", "calls self_s"),
    ("om.faces", "calls self_s"),
    ("om.bounded_topes", "calls self_s"),
    ("om.lex_extension", "calls self_s"),
    ("forms.tope", "calls self_s"),
    ("forms.residue_check", "calls self_s"),
    ("forms.triangulation_eval", "calls self_s"),
    ("linalg.left_inverse", "calls self_s"),
    ("linalg.rref", "calls self_s"),
    ("linalg.mat_vec", "calls self_s"),
    ("linalg.det", "calls self_s"),
    ("linalg.greedy_independent", "calls self_s"),
    ("chirotope.contract", "calls self_s"),
    ("chirotope.reorient", "calls self_s"),
    ("chirotope.validate", "calls self_s"),
    ("matroid.build", "calls self_s"),
    ("matroid.nbc_sets", "calls self_s"),
    ("matroid.tutte", "self_s"),
    ("osalg.algebra", "builds self_s"),
    ("osalg.monomial", "calls self_s"),
    ("osalg.residue", "calls self_s"),
    ("osalg.reduced_basis", "calls self_s"),
    ("osalg.inverse_boundary", "calls self_s"),
    ("osalg.wedge", "calls self_s"),
    ("realization.chirotope_from_matrix", "calls self_s"),
    ("realization.placing_triangulation", "calls self_s"),
    ("bases.bounded_extension", "calls self_s"),
    ("bases.tq_basis", "calls self_s"),
    ("bases.build_flag", "calls self_s"),
    ("bases.graded_basis", "calls self_s"),
    ("bases.aomoto", "calls self_s"),
    ("cli.run", "calls self_s"),
    ("serialize.parse_input", "self_s"),
    ("serialize.dumps_canonical", "self_s"),
)
_UNITS = {"calls": "count", "builds": "count", "self_s": "s"}
PER_LAYER = tuple(
    (f"{span}.{field}", _UNITS[field]) for span, fields in _SPANS
    for field in fields.split()) + (
    ("chirotope.value.calls", "count"),
    ("forms.om_cache.lookups", "count"),
    ("forms.om_cache.hit_ratio", "ratio"),
    ("forms.om_cache.entries", "count"),
    ("bases.extension_yield", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

# Layers each workload is expected to exercise; a traced run in which one
# of them records no calls is reported as incorrect.
ACTIVE_LAYERS = {
    "sweep_uniform_r4": ("om", "forms", "linalg"),
    "sweep_nonpappus_r3": ("om", "forms", "chirotope", "matroid"),
    "cli_stream": ("om", "forms", "linalg.det", "chirotope", "osalg",
                   "realization", "bases", "cli", "serialize"),
}


def launch(args: list, env: dict | None = None,
           deadline: float | None = None) -> dict:
    """Start one worker, wait for it, and return its result line."""
    env = dict(os.environ if env is None else env)
    env.pop("OMCANON_VALIDATE", None)
    t0 = time.perf_counter()
    timeout = (deadline if deadline is not None else t0 + DEADLINE_S) - t0
    proc = subprocess.run(
        [sys.executable, WORKER, "--work-dir", WORK_DIR, "--t0", repr(t0)]
        + args, env=env, text=True, capture_output=True,
        timeout=max(timeout, 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(workload: str, seed: int, trace: int, items: int = 0,
             env: dict | None = None, deadline: float | None = None) -> dict:
    """One timed pass; items > 0 times only the first items (smoke test)."""
    result = launch(["--workload", workload, "--seed", str(seed), "--trace",
                     str(trace), "--items", str(items)], env, deadline)
    print(f"pass trace={trace}: raw setup {result['raw_setup_s']:.3f} s, "
          f"raw wall {result['raw_wall_s']:.3f} s, reference "
          f"{result['reference_ms']:.3f} ms, wall {result['wall_s']:.3f} s, "
          f"{len(result['failed'])} failed", file=sys.stderr)
    return result


def setup_times(workload: str, seed: int, deadline: float) -> list:
    """Speed-scaled set-up times of SETUP_ONLY set-up-only launches."""
    return [launch(["--workload", workload, "--seed", str(seed),
                    "--setup-only"], deadline=deadline)["setup_s"]
            for _ in range(SETUP_ONLY)]


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(untraced passes, traced passes, set-up times) of one run.

    Passes repeat until `seconds` have gone by and there are MIN_PASSES
    untraced ones; none starts that would end after the deadline.
    Untraced, SETUP_ONLY set-up-only launches precede each pass, so the
    set-up times of a run are spread over the whole run rather than caught
    in one slow spell of the host.
    """
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    untraced, traced, setups = [], [], []
    while True:
        step = time.perf_counter()
        if not trace:
            setups += setup_times(workload, seed, deadline)
        untraced.append(run_pass(workload, seed, 0, deadline=deadline))
        if trace:
            traced.append(run_pass(workload, seed, 1, deadline=deadline))
        now = time.perf_counter()
        if now - started >= seconds and len(untraced) >= MIN_PASSES:
            break
        if now + (now - step) > deadline:
            print("warning: deadline reached before enough passes",
                  file=sys.stderr)
            break
    return untraced, traced, setups


def failed_items(passes: list, pinned: list | None) -> int:
    """Items that raised or failed a check, or whose output digest differs
    from the pinned one (default seed) or from the first pass."""
    reference = pinned if pinned is not None else passes[0]["digests"]
    failed = 0
    for p in passes:
        bad = set(p["failed"])
        if len(p["digests"]) != len(reference):
            bad.update(range(len(p["digests"])))
        bad.update(i for i, (d, want) in enumerate(zip(p["digests"],
                                                       reference))
                   if d is None or d != want)
        failed += len(bad)
    return failed


def end_to_end(passes: list, setups: list) -> dict:
    """Medians and pooled percentiles of speed-scaled times."""
    pooled = [x for p in passes for x in p["latencies_ms"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_p50_ms": statistics.median(pooled),
        "item_p90_ms": statistics.quantiles(pooled, n=10)[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(traced: list, untraced: list) -> dict:
    first = traced[0]
    values = {}
    for span, fields in _SPANS:
        calls = first["layers"].get(span, (0, 0.0))[0]
        for field in fields.split():
            if field == "self_s":
                values[f"{span}.self_s"] = statistics.median(
                    p["layers"].get(span, (0, 0.0))[1]
                    * p["wall_s"] / p["raw_wall_s"] for p in traced)
            else:
                values[f"{span}.{field}"] = calls
    values["chirotope.value.calls"] = first["counts"].get("chirotope.value", 0)
    lookups, hits, entries = first["om_cache"]
    values["forms.om_cache.lookups"] = lookups
    values["forms.om_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    values["forms.om_cache.entries"] = entries
    attempts = values["om.lex_extension.calls"]
    values["bases.extension_yield"] = (
        values["bases.bounded_extension.calls"] / attempts if attempts else 0.0)
    values["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def inactive_layers(workload: str, traced: list) -> list:
    layers = traced[0]["layers"]
    counts = traced[0]["counts"]
    out = []
    for layer in ACTIVE_LAYERS[workload]:
        calls = sum(c for name, (c, _) in layers.items()
                    if name == layer or name.startswith(layer + "."))
        calls += sum(c for name, c in counts.items()
                     if name.startswith(layer + "."))
        if calls == 0:
            out.append(layer)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "omcanon", "__init__.py")):
        print("error: no omcanon sources under src/; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    pinned = None
    if args.seed == DEFAULT_SEED:
        with open(DIGESTS, encoding="utf-8") as fh:
            pinned = json.load(fh)[args.workload]

    try:
        untraced, traced, setups = measure(args.workload, args.seed,
                                           args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted = sum(len(p["digests"]) for p in passes)
    failed = failed_items(passes, pinned)
    correct = failed == 0
    if args.trace:
        metrics = per_layer(traced, untraced)
        inactive = inactive_layers(args.workload, traced)
        if inactive:
            print(f"error: layers with no calls: {inactive}", file=sys.stderr)
            correct = False
    else:
        metrics = end_to_end(untraced, setups)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
