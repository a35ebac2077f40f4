"""One pass of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --t0 PERF_COUNTER --work-dir DIR [--items N] [--setup-only]

`run.py` starts it.  `--t0` is the parent's `time.perf_counter()` just
before it started this process (the monotonic clock is shared by all
processes), so set-up time covers interpreter start-up, `import omcanon`
and input generation.  The pass prints one JSON object on its last stdout
line: set-up and timed-phase seconds, per-sample latencies (a sample is a
tope and its negative on the sweeps, a command on cli_stream), the mean
time of a reference slice, peak RSS, one output digest per item, the items
that failed a check and, traced, the span totals.  Timed-phase times and
the set-up time of a set-up-only launch are scaled to the speed of an
uncontended host (see REFERENCE_MS); `raw_*` are as measured.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import omcanon  # noqa: E402
from omcanon import cli, forms, serialize  # noqa: E402
from omcanon.om import OrientedMatroid  # noqa: E402

import inputs  # noqa: E402
from spans import Tracer  # noqa: E402

CHECK_SAMPLE = 5  # topes per pass given an independent correctness check
SETUP_SLICES = 10  # reference slices timed after a set-up-only launch
# Time of one reference_slice on an uncontended host (2-vCPU VM, CPython
# 3.11.7).  The host's other tenants make the same work run up to 1.8 times
# slower, in spells of seconds to minutes.  A time measured while reference
# slices took r ms is multiplied by REFERENCE_MS / r, its speed factor.
REFERENCE_MS = 5.0
SPEED_WINDOW = 5  # neighbouring slices averaged into one item's factor


def reference_slice() -> None:
    """A fixed slice of pure-Python work that does not touch omcanon.

    A pass runs one after every timed item, outside the item's timing, to
    measure the speed the host gave it at that moment.  `Fraction`
    arithmetic and tuple hashing are the operations the library spends its
    time on.  The cyclic garbage collector is off meanwhile, so that the
    slice never scans the library's heap and its time does not depend on
    the program.
    """
    gc.disable()
    try:
        total = Fraction(0)
        for i in range(1, 500):
            total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 1)
        seen = {tuple((i * k) % 3 - 1 for k in range(7)) + (i,)
                for i in range(2000)}
        {t: t[::-1] for t in seen}
    finally:
        gc.enable()


def speed_factors(slices_ms: list) -> list:
    """One speed factor per item, from the slices timed around it.

    A single slice is noisy, and the host keeps one state for seconds, so
    each item's factor uses the mean of the SPEED_WINDOW slices centred on
    the one after it.
    """
    half = SPEED_WINDOW // 2
    return [REFERENCE_MS * len(window) / sum(window)
            for window in (slices_ms[max(0, i - half):i + half + 1]
                           for i in range(len(slices_ms)))]


def digest(doc) -> str:
    """SHA-256 of the canonical JSON of an output document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Sweep:
    """Reduced canonical form of every tope of one oriented matroid."""

    def __init__(self, chi, n_topes: int, matrix=None):
        self.chi = chi
        self.n_topes = n_topes
        self.matrix = matrix
        self.om = None
        self.topes: list = []
        self.forms: list = []

    def prepare(self) -> None:
        self.om = OrientedMatroid(self.chi)
        self.topes = self.om.sorted_topes()
        self.forms = [None] * len(self.topes)

    def items(self) -> int:
        return len(self.topes)

    def run_item(self, i: int) -> None:
        self.forms[i] = forms.canonical_form_tope(self.om, self.topes[i])

    def groups(self, n_items: int) -> list:
        """Each timed tope with its negative, when that is timed too.

        At even rank a tope and its negative reorient to the same
        chirotope, so the second of the pair is a recursion-cache hit; one
        latency per pair keeps the work of every sample alike.
        """
        index = {t: i for i, t in enumerate(self.topes[:n_items])}
        out = []
        for i, tope in enumerate(self.topes[:n_items]):
            j = index.get(-tope)
            if j is None:
                out.append([i])
            elif i < j:
                out.append([i, j])
        return out

    def document(self, i: int) -> dict:
        return {"tope": serialize.sign_vector_to_str(self.topes[i]),
                "form": serialize.oselement_to_document(self.forms[i])}

    def check_sample(self, seed: int, n_items: int) -> list:
        """Seeded indices among the first n_items for the independent check.

        A wrong tope count fails every item instead.
        """
        if len(self.topes) != self.n_topes:
            raise AssertionError(f"{len(self.topes)} topes, expected "
                                 f"{self.n_topes}")
        rng = random.Random(f"check:{seed}")
        return sorted(rng.sample(range(n_items), min(CHECK_SAMPLE, n_items)))


class UniformSweep(Sweep):
    def check(self, seed: int, n_items: int) -> list:
        """Indices whose recursion form differs from a placing triangulation."""
        bad = []
        for i in self.check_sample(seed, n_items):
            if self.forms[i] is None:
                bad.append(i)
                continue
            tope = self.topes[i]
            tri = omcanon.placing_triangulation(self.matrix.reorient(tope))
            value = omcanon.canonical_form_from_triangulation(
                self.chi.reorient(tope), tri)
            if (serialize.oselement_to_document(value)
                    != serialize.oselement_to_document(self.forms[i])):
                bad.append(i)
        return bad


class NonPappusSweep(Sweep):
    def check(self, seed: int, n_items: int) -> list:
        """Indices whose form fails the residue axioms at some atom."""
        return [i for i in self.check_sample(seed, n_items)
                if self.forms[i] is None
                or not all(omcanon.check_residue_axioms(
                    self.om, self.topes[i]).values())]


class CliStream:
    """Four `omcanon` commands per input, run in this one process."""

    def __init__(self, stream: list):
        self.commands = []
        for path, tope, weights in stream:
            self.commands += [
                ["canonical", "--input", path, f"--tope={tope}"],
                ["basis", "--input", path, "--grade", "1"],
                ["aomoto", "--input", path, f"--weights={weights}"],
                ["verify", "--input", path, "--suite", "all"],
            ]
        self.results: list = []

    def prepare(self) -> None:
        self.results = [None] * len(self.commands)

    def items(self) -> int:
        return len(self.commands)

    def run_item(self, i: int) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(self.commands[i]))
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        self.results[i] = (code, out.getvalue())

    def groups(self, n_items: int) -> list:
        return [[i] for i in range(n_items)]

    def document(self, i: int) -> dict:
        code, out = self.results[i]
        doc = json.loads(out) if code in (0, 1) else None
        if self.commands[i][0] == "verify" and doc is not None:
            for entry in doc["checks"]:
                entry.pop("seconds", None)  # wall time, not an output
        argv = [os.path.basename(a) if a.endswith(".json") else a
                for a in self.commands[i]]
        return {"argv": argv, "exit": code, "output": doc}

    def check(self, seed: int, n_items: int) -> list:
        """Indices that exited non-zero or whose verify did not pass."""
        bad = []
        for i, result in enumerate(self.results[:n_items]):
            if result is None or result[0] != 0:
                bad.append(i)
            elif (self.commands[i][0] == "verify"
                  and json.loads(result[1])["passed"] is not True):
                bad.append(i)
        return bad


def make_workload(name: str, seed: int, work_dir: str):
    if name == "sweep_uniform_r4":
        mat = inputs.uniform_matrix(seed)
        return UniformSweep(omcanon.chirotope_from_matrix(mat),
                            inputs.UNIFORM_TOPES, mat)
    if name == "sweep_nonpappus_r3":
        return NonPappusSweep(inputs.nonpappus_extension(seed),
                              inputs.NONPAPPUS_TOPES)
    if name == "cli_stream":
        demo_dir = os.path.join(ROOT, "demos", "data")
        return CliStream(inputs.cli_stream_inputs(seed, demo_dir, work_dir))
    raise ValueError(f"unknown workload {name!r}")




def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--items", type=int, default=0,
                        help="time only the first N items (smoke test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the inputs exist")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.work_dir)
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        t = time.perf_counter()
        for _ in range(SETUP_SLICES):
            reference_slice()
        reference_ms = (time.perf_counter() - t) * 1e3 / SETUP_SLICES
        print(json.dumps({"setup_s": setup_s * REFERENCE_MS / reference_ms,
                          "raw_setup_s": setup_s}))
        return 0

    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.enabled = True
    cache_before = forms.oriented_matroid_for.cache_info()

    start = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - start
    n_items = workload.items()
    if args.items:
        n_items = min(n_items, args.items)
    latencies, raised, slices = [], set(), []
    for i in range(n_items):
        tracer.item = i
        t = time.perf_counter()
        try:
            workload.run_item(i)
        except Exception as exc:  # noqa: BLE001 - counted as a failed item
            raised.add(i)
            print(f"item {i} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        t_item = time.perf_counter()
        latencies.append((t_item - t) * 1e3)
        tracer.enabled = False
        reference_slice()
        slices.append((time.perf_counter() - t_item) * 1e3)
        tracer.enabled = bool(args.trace)
    tracer.enabled = False
    raw_wall_s = prepare_s + sum(latencies) / 1e3
    factors = speed_factors(slices) or [1.0]
    scaled = [lat * f for lat, f in zip(latencies, factors)]
    wall_s = prepare_s * factors[0] + sum(scaled) / 1e3
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digests = []
    for i in range(n_items):
        try:
            digests.append(None if i in raised
                           else digest(workload.document(i)))
        except Exception as exc:  # noqa: BLE001 - unreadable output fails
            digests.append(None)
            print(f"item {i} output unreadable: {exc!r}", file=sys.stderr)

    result = {
        "raw_setup_s": setup_s,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "latencies_ms": [sum(scaled[i] for i in group)
                         for group in workload.groups(n_items)],
        "peak_rss_mb": peak_rss_mb,
        "reference_ms": sum(slices) / max(len(slices), 1),
        "digests": digests,
    }
    if args.trace:
        result["layers"] = {name: list(v) for name, v
                            in tracer.layer_totals().items()}
        result["counts"] = dict(tracer.counts)
        cache_after = forms.oriented_matroid_for.cache_info()
        hits = cache_after.hits - cache_before.hits
        lookups = hits + cache_after.misses - cache_before.misses
        result["om_cache"] = [lookups, hits, cache_after.currsize]
        tracer.write(os.path.join(args.work_dir,
                                  f"spans_{args.workload}.tsv"))

    bad = set(raised)
    try:
        bad.update(workload.check(args.seed, n_items))
    except Exception as exc:  # noqa: BLE001 - a check that cannot run fails
        print(f"check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        bad.update(range(n_items))
    result["failed"] = sorted(bad)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
