"""Desk-scale timing report: tope enumeration and the forms of all topes,
or the CLI commands on the same matrices.

For each size n x r it draws an r x n integer matrix with
random.Random(SEED).randint(-9, 9), row by row, and prints the seconds to
check its chirotope's axioms (`validate_chirotope`), to compute the Tutte
polynomial of its matroid (`UnderlyingMatroid.tutte`), to enumerate its
topes (`sorted_topes`) and to compute the reduced canonical form of every
tope (`canonical_form_tope`), and the memo entries held after the forms
(the sum of `omcanon._memo.cache_sizes()`).  With --commands it prints
instead the seconds of `omcanon.cli.run` on that matrix, labelled 0..n-1,
for `basis --grade r-1`, `aomoto --weights 2,3,...,n` and
`verify --suite triangulation`, input validation and output included, and
before them `import_s`, the seconds of `from omcanon.cli import run` that
each of those processes paid first; --command names one command to time
alone, among them `canonical --tope T` on the first sorted tope T, which
is found before the timing and the memos emptied after it.  Each size,
and with --commands each command, runs in a fresh process, so no cache
carries over from one to the next.  The report gates nothing; each
figure is the wall-clock median of RUNS fresh processes, since single
runs of one cell spread wider than most changes they would be read for
(`import_s` is the median of the commands' medians).

    PYTHONPATH=src python tools/desk.py            # every default size
    PYTHONPATH=src python tools/desk.py 8x4 10x3   # chosen sizes
    PYTHONPATH=src python tools/desk.py --commands 10x4
    PYTHONPATH=src python tools/desk.py --commands --command canonical 12x5
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

SEED = 0
RUNS = 3
SIZES = ("8x4", "10x3", "10x4", "12x3", "11x4", "12x4", "10x5")
COMMANDS = ("basis", "aomoto", "verify")  # the default --commands report
CHOICES = COMMANDS + ("canonical",)


def size(text: str) -> tuple:
    n, r = (int(x) for x in text.split("x"))
    if not 1 <= r <= n:
        raise argparse.ArgumentTypeError(f"need 1 <= r <= n, got {text}")
    return n, r


def matrix_rows(n: int, r: int) -> list:
    rng = random.Random(SEED)
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]


def measure(n: int, r: int) -> dict:
    """Topes and seconds for one seeded matrix, in this process."""
    from omcanon import (OrientedMatroid, RationalMatrix, canonical_form_tope,
                         chirotope_from_matrix, validate_chirotope)
    from omcanon._memo import cache_sizes
    chi = chirotope_from_matrix(
        RationalMatrix.from_rows(tuple(range(n)), matrix_rows(n, r)))
    start = time.perf_counter()
    validate_chirotope(chi)
    validate_s = time.perf_counter() - start
    om = OrientedMatroid(chi, validate=False)
    start = time.perf_counter()
    om.underlying.tutte()
    tutte_s = time.perf_counter() - start
    start = time.perf_counter()
    topes = om.sorted_topes()
    enumerate_s = time.perf_counter() - start
    start = time.perf_counter()
    for t in topes:
        canonical_form_tope(om, t)
    forms_s = time.perf_counter() - start
    return {"topes": len(topes), "validate_s": validate_s,
            "tutte_s": tutte_s, "enumerate_s": enumerate_s, "forms_s": forms_s,
            "memo_entries": sum(cache_sizes().values())}


def first_tope(n: int, r: int) -> str:
    """The first sorted tope of the seeded matrix, as the CLI writes it;
    every memo it filled is emptied again."""
    from omcanon import OrientedMatroid, RationalMatrix, chirotope_from_matrix
    from omcanon._memo import clear_caches
    from omcanon.serialize import sign_vector_to_str
    chi = chirotope_from_matrix(
        RationalMatrix.from_rows(tuple(range(n)), matrix_rows(n, r)))
    tope = OrientedMatroid(chi, validate=False).sorted_topes()[0]
    clear_caches()
    return sign_vector_to_str(tope)


def command_argv(command: str, n: int, r: int, path: str) -> list:
    if command == "canonical":
        return ["canonical", f"--tope={first_tope(n, r)}", "--input", path]
    if command == "basis":
        return ["basis", "--grade", str(r - 1), "--input", path]
    if command == "aomoto":
        weights = ",".join(str(w) for w in range(2, n + 1))
        return ["aomoto", "--weights", weights, "--input", path]
    return ["verify", "--suite", "triangulation", "--input", path]


def measure_command(command: str, n: int, r: int) -> dict:
    """Seconds and exit code of one CLI command on the seeded matrix, in
    this process, and the seconds of importing the command line first."""
    start = time.perf_counter()
    from omcanon.cli import run
    import_s = time.perf_counter() - start
    doc = {"format": "matrix", "rank": r,
           "elements": [str(e) for e in range(n)],
           "matrix": [[str(x) for x in row] for row in matrix_rows(n, r)]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"desk_{n}x{r}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = command_argv(command, n, r, path)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(argv)
        seconds = time.perf_counter() - start
    return {"seconds": seconds, "exit": code, "import_s": import_s}


def fresh(*argv) -> dict | None:
    """This script's JSON answer from a new process, or None (its stderr
    echoed) when that process fails."""
    proc = subprocess.run([sys.executable, __file__, *argv],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout)


def median_row(rows: list) -> dict:
    """One answer from several of the same measurement: the median of each
    time (a key ending in _s, or seconds) and the other fields of the first
    run that exited nonzero, else of the first run."""
    base = next((row for row in rows if row.get("exit")), rows[0])
    return {k: statistics.median(row[k] for row in rows)
            if k == "seconds" or k.endswith("_s") else v
            for k, v in base.items()}


def fresh_median(*argv) -> dict | None:
    """`median_row` of RUNS answers of `fresh`, or None when one fails."""
    rows = [fresh(*argv) for _ in range(RUNS)]
    return None if None in rows else median_row(rows)


def report_forms(sizes) -> int:
    print(f"{'n x r':>7} {'topes':>6} {'validate_s':>11} {'tutte_s':>8} "
          f"{'enumerate_s':>12} {'forms_s':>9} {'memo_entries':>13}")
    for n, r in sizes:
        row = fresh_median("--one", f"{n}x{r}")
        if row is None:
            return 1
        print(f"{n:>3} x {r} {row['topes']:>6} {row['validate_s']:>11.4f} "
              f"{row['tutte_s']:>8.4f} {row['enumerate_s']:>12.3f} "
              f"{row['forms_s']:>9.3f} {row['memo_entries']:>13}")
    return 0


def report_commands(sizes, commands) -> int:
    """One line per size; a command that exits nonzero shows its code and
    makes the report exit 1."""
    print(f"{'n x r':>7} {'import_s':>9}"
          + "".join(f" {c + '_s':>12}" for c in commands))
    failed = False
    for n, r in sizes:
        cells, imports = [], []
        for command in commands:
            row = fresh_median("--one", f"{n}x{r}", "--command", command)
            if row is None:
                return 1
            imports.append(row["import_s"])
            cell = f"{row['seconds']:.3f}"
            if row["exit"]:
                cell += f" (exit {row['exit']})"
                failed = True
            cells.append(f" {cell:>12}")
        print(f"{n:>3} x {r} {statistics.median(imports):>9.3f}"
              + "".join(cells))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sizes", nargs="*", type=size,
                        default=[size(s) for s in SIZES],
                        help="sizes as NxR, such as 8x4 (default: %s)"
                             % " ".join(SIZES))
    parser.add_argument("--commands", action="store_true",
                        help="time the CLI commands instead of the forms")
    parser.add_argument("--one", action="store_true",
                        help="measure the single size in this process and "
                             "print it as JSON")
    parser.add_argument("--command", choices=CHOICES,
                        help="time this CLI command: alone with --commands, "
                             "in this process with --one")
    args = parser.parse_args(argv)
    if args.one:
        (n, r), = args.sizes
        result = (measure_command(args.command, n, r) if args.command
                  else measure(n, r))
        print(json.dumps(result))
        return 0
    if args.commands:
        return report_commands(args.sizes, [args.command] if args.command
                               else COMMANDS)
    return report_forms(args.sizes)


if __name__ == "__main__":
    sys.exit(main())
