"""Desk-scale timing report: tope enumeration and the forms of all topes.

For each size n x r it draws an r x n integer matrix with
random.Random(SEED).randint(-9, 9), row by row, and prints the seconds to
check its chirotope's axioms (`validate_chirotope`), to compute the Tutte
polynomial of its matroid (`UnderlyingMatroid.tutte`), to enumerate its
topes (`sorted_topes`) and to compute the reduced canonical form of every
tope (`canonical_form_tope`), and the memo entries held after the forms
(the sum of `omcanon._memo.cache_sizes()`).  Each size runs in a fresh
process, so no cache carries over from one size to the next.  The report
gates nothing; its figures are single wall-clock runs.

    PYTHONPATH=src python tools/desk.py            # every default size
    PYTHONPATH=src python tools/desk.py 8x4 10x3   # chosen sizes
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time

SEED = 0
SIZES = ("8x4", "10x3", "10x4", "12x3", "11x4", "12x4", "10x5")


def size(text: str) -> tuple:
    n, r = (int(x) for x in text.split("x"))
    if not 1 <= r <= n:
        raise argparse.ArgumentTypeError(f"need 1 <= r <= n, got {text}")
    return n, r


def measure(n: int, r: int) -> dict:
    """Topes and seconds for one seeded matrix, in this process."""
    from omcanon import (OrientedMatroid, RationalMatrix, canonical_form_tope,
                         chirotope_from_matrix, validate_chirotope)
    from omcanon._memo import cache_sizes
    rng = random.Random(SEED)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
    chi = chirotope_from_matrix(
        RationalMatrix.from_rows(tuple(range(n)), rows))
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sizes", nargs="*", type=size,
                        default=[size(s) for s in SIZES],
                        help="sizes as NxR, such as 8x4 (default: %s)"
                             % " ".join(SIZES))
    parser.add_argument("--one", action="store_true",
                        help="measure the single size in this process and "
                             "print it as JSON")
    args = parser.parse_args(argv)
    if args.one:
        (n, r), = args.sizes
        print(json.dumps(measure(n, r)))
        return 0
    print(f"{'n x r':>7} {'topes':>6} {'validate_s':>11} {'tutte_s':>8} "
          f"{'enumerate_s':>12} {'forms_s':>9} {'memo_entries':>13}")
    for n, r in args.sizes:
        proc = subprocess.run(
            [sys.executable, __file__, "--one", f"{n}x{r}"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        row = json.loads(proc.stdout)
        print(f"{n:>3} x {r} {row['topes']:>6} {row['validate_s']:>11.4f} "
              f"{row['tutte_s']:>8.4f} {row['enumerate_s']:>12.3f} "
              f"{row['forms_s']:>9.3f} {row['memo_entries']:>13}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
