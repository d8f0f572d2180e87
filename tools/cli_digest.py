#!/usr/bin/env python3
"""Digest what the multihead CLI prints over a fixed matrix of commands.

    tools/cli_digest.py --src DIR [--write PATH | --check PATH] [--dump DIR]

Imports ``multihead`` from DIR (a checkout's ``src``), runs each argv of a
fixed matrix through ``multihead.cli.main`` in this process, and prints one
sha256 of (exit code, stdout, stderr) per case, then one over all cases.
Two source trees that print the same digests print the same bytes on every
case.  ``--write PATH`` saves those lines as a manifest, headed by an
environment stamp (Python, numpy and the CPU SIMD features numpy reports);
``--check PATH`` prints each case whose digest differs from the manifest's,
with the stamp lines that differ and a tally of those cases per command, head
count and family, and exits 1 if any case does.  ``--dump DIR``
also writes each case to DIR/<index>.json (the index zero-padded): its argv
and the exit code, stdout and stderr that its digest hashes, the two streams
split into lines, so ``diff -r`` of two trees' dumps shows the lines that moved.

The matrix covers ``roots``, ``stats``, ``fock`` and ``wigner`` in each of
their formats on small grids, ``sweep`` for all five quantities and
``validate``, over N in {1, 2, 3, 4, 6, 12}, both families and amplitudes from
0 and -0@1 up to 60@0.7 and 1e100; ``stats`` and the ``parity`` and
``mandel-q`` sweeps of both families at N = 5, whose cat head sum has no
j = N/2 term, and N = 8; ``stats`` at N in {1, 2}, both families, at 1e-200@2
and 5e-324@2, whose moments underflow to signed zeros;
``validate`` over 288 states (r in {0, 0.05, 1, sqrt 2, 3, 10, 30, 60} x theta
in {0, 0.7, 3}); far-out ``wigner`` grids; the edge matrix, which
``tests/test_cli.py`` runs too (N in {1, 2, 12, 4097} x r in {0, 1e-300,
1e100, 1e200, 1e308}, every command: 340 distinct argvs, 155 of them exit-3
refusals, among them the two-head cat Wigner grids at r = 1e100 and up, whose
fringe phases outrun double precision; at r = 1e308, 2 mu passes the largest
double); one argv for each of the exit
codes 1, 2 and 3; one whose ``--out`` cannot be opened;
and, far past mu = 350, the two-head cat's default ``wigner`` grid at r = 9e5
and its ``validate`` at r = 1600; the ``validate`` of a 170-head cat, whose
a^N factors pass the largest double; and ``validate``'s refusals (exit 3) of
the cats at r = 1 with N in {301, 512}, whose a^N images underflow a double,
and of one-head states at r in {100, 1000}, whose means 1e4 and 1e6 pass the
largest cutoff.  A ``mean-photon`` sweep up to r = 1e8, in
both formats, prints fixed-notation texts with every integer digit count from
1 to 16.  A four-head cat Mandel Q sweep to r = 900 has 8 crossings, too many
for one ``evaluate`` of their bisection trees.  Long sweeps (``--r-max 25`` at
the default step, past the Mandel Q crossings and the squeezing edges, and
the two-head cat's parity in CSV, exactly 1 at all 2501 samples, and a
20,001-sample ``--r-max 200``), ``fock --max-m
130`` (17,161 elements; ``--max-m`` 0 and 127 give one element and exactly
one block), the default 201 x 201 ``wigner`` grid (three
formatter blocks), a 17000 x 2 one (one row over two blocks) and a 2 x 17000
one (17,000 row labels over three blocks) make the emitters span more than one
formatter block.  An argv the matrix repeats runs
once, where it first appears.  A warning is captured as "Category: message"
on stderr, without its file and line, so moving a source line does not change
a digest.  An exception that escapes ``main`` is that case's outcome,
recorded as "Type: message" in place of the exit code, so one crashing case
does not end the run.  The tool itself uses only the standard
library, and numpy for the stamp.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import warnings
from collections import Counter
from itertools import zip_longest
from pathlib import Path

HEADS = (1, 2, 3, 4, 6, 12)
FAMILIES = ("incoherent", "coherent")
AMPLITUDES = ("0", "-0@1", "0.05@1.1", "1+1i", "1.4142135623730951@0.7", "3@3", "10@0.7",
              "60@0.7", "1e100")
# validate's own matrix: 8 moduli x 3 angles x 6 head counts x 2 families.
VALIDATE_MODULI = ("0", "0.05", "1", "1.4142135623730951", "3", "10", "30", "60")
QUANTITIES = ("mean-photon", "mandel-q", "var-x1", "var-x2", "parity")
SMALL_GRID = ("--nx", "4", "--ny", "3")
# The edge matrix, which tests/test_cli.py also runs; 4097 is one head past roots.HEADS_MAX.
EDGE_HEADS = (1, 2, 12, 4097)
EDGE_MODULI = ("0", "1e-300", "1e100", "1e200", "1e308")
FAR_OUT = (("--x-min=1e160", "--x-max=2e160"), ("--y-min=-1e200", "--y-max=1e200"))


def spec(alpha: str, n: int, family: str) -> tuple:
    # The '=' form keeps an amplitude such as -0@1 from reading as an option.
    return (f"--alpha={alpha}", "--heads", str(n), "--family", family)


def cases():
    for alpha in AMPLITUDES:
        for n in HEADS:
            for fmt in ("json", "text"):
                yield ("roots", f"--alpha={alpha}", "--heads", str(n), "--format", fmt)
            for family in FAMILIES:
                s = spec(alpha, n, family)
                yield ("stats", *s)
                for fmt in ("json", "csv"):
                    yield ("fock", *s, "--max-m", "6", "--format", fmt)
                    yield ("wigner", *s, *SMALL_GRID, "--format", fmt)
                yield ("validate", *s)
    for r in VALIDATE_MODULI:
        for theta in ("0", "0.7", "3.0"):
            for n in HEADS:
                for family in FAMILIES:
                    yield ("validate", *spec(f"{r}@{theta}", n, family))
    for n in HEADS:
        for family in FAMILIES:
            for quantity in QUANTITIES:
                yield ("sweep", "--theta", "0.7", "--heads", str(n), "--family", family,
                       "--quantity", quantity, "--r-max", "4", "--step", "0.05")
            yield ("sweep", "--heads", str(n), "--family", family, "--quantity", "mandel-q",
                   "--r-max", "4", "--step", "0.05", "--format", "csv")
    # N = 5 has no j = N/2 head-sum term; N = 8 has one and three inner pairs.
    for n in (5, 8):
        for family in FAMILIES:
            for alpha in AMPLITUDES:
                yield ("stats", *spec(alpha, n, family))
            for quantity in ("parity", "mandel-q"):
                yield ("sweep", "--theta", "0.7", "--heads", str(n), "--family", family,
                       "--quantity", quantity, "--r-max", "4", "--step", "0.05")
    # Moments that underflow to zero at an angle whose phase factor is negative: signed zeros.
    for alpha in ("1e-200@2", "5e-324@2"):
        for n in (1, 2):
            for family in FAMILIES:
                yield ("stats", *spec(alpha, n, family))
    for n in (2, 3, 4):
        for family in FAMILIES:
            for quantity in ("mandel-q", "var-x1", "var-x2"):
                for fmt in ("json", "csv"):
                    yield ("sweep", "--heads", str(n), "--family", family, "--quantity", quantity,
                           "--r-max", "25", "--format", fmt)
    # 20,001 samples: a samples table of several formatter blocks.
    for fmt in ("json", "csv"):
        yield ("sweep", "--heads", "3", "--family", "coherent", "--quantity", "mandel-q",
               "--r-max", "200", "--format", fmt)
    # The four-head cat's Mandel Q crosses zero near r = (k pi)^2: 8 intervals whose
    # bisection trees take more than one evaluate's points, the last three closing
    # on an exact zero.  Then the two-head cat's parity, exactly 1 at all 2501 samples.
    yield ("sweep", "--heads", "4", "--family", "coherent", "--quantity", "mandel-q",
           "--r-max", "900", "--step", "0.5")
    yield ("sweep", "--heads", "2", "--family", "coherent", "--quantity", "parity",
           "--r-max", "25", "--format", "csv")
    # About 1000 samples in uneven steps up to r = 1e8: fixed-notation texts with every
    # integer digit count from 1 to 16, r's 1..8 and r^2's 5..16, most with fraction digits.
    for fmt in ("json", "csv"):
        yield ("sweep", "--heads", "1", "--family", "coherent", "--quantity", "mean-photon",
               "--r-max", "1e8", "--step", "99991.3", "--format", fmt)
    # One element (its head stands in for the only separator), one formatter
    # block exactly (128^2 = 16384 elements), and two.
    for family in FAMILIES:
        for max_m in ("0", "127", "130"):
            for fmt in ("json", "csv"):
                yield ("fock", *spec("10@0.7", 2, family), "--max-m", max_m, "--format", fmt)
    # Far-out points: |beta|^2 overflows, for a cat at mu = 2 and at mu = 1000.
    for alpha, n in (("1+1i", 3), ("1000", 2)):
        for family in FAMILIES:
            for span in FAR_OUT:
                yield ("wigner", *spec(alpha, n, family), "--nx", "3", "--ny", "2", *span)
    # The default 201 x 201 grid spans three formatter blocks; one 17000-point row, two;
    # 17000 rows of two points, three, each row with its own label.
    for family, alpha, n in (("incoherent", "1+1i", 3), ("coherent", "3@0.7", 12)):
        for fmt in ("csv", "json"):
            yield ("wigner", *spec(alpha, n, family), "--format", fmt)
    for fmt in ("csv", "json"):
        for nx, ny in (("17000", "2"), ("2", "17000")):
            yield ("wigner", *spec("1+1i", 2, "coherent"), "--nx", nx, "--ny", ny,
                   "--format", fmt)
    yield from edge_cases()
    yield ("validate", *spec("1+1i", 2, "coherent"), "--tol", "1e-300")  # exit 1
    yield ("stats", *spec("1", 0, "coherent"))  # exit 2
    yield ("roots", "--alpha", "1", "--heads", "4097")  # exit 3
    yield ("roots", "--alpha", "1", "--heads", "2", "--out", "/nonexistent/dir/x")
    # The two-head cat far past mu = 350: its default grid at mu = 9e5, and validate's at 1600.
    yield ("wigner", "--alpha", "9e5", "--heads", "2", "--family", "coherent")
    yield ("validate", "--alpha", "1600", "--heads", "2", "--family", "coherent")
    # A 170-head cat: its lowering factors sqrt((k + 170)!/k!) pass the largest double.
    yield ("validate", "--alpha", "1@0.7", "--heads", "170", "--family", "coherent")
    # Refusals: the a^N images of 301- and 512-head cats underflow a double (exit 3),
    # and one-head states whose means, 1e4 and 1e6, pass the largest cutoff.
    for n in ("301", "512"):
        yield ("validate", "--alpha", "1", "--heads", n, "--family", "coherent")
    for r in ("100", "1000"):
        for family in FAMILIES:
            yield ("validate", "--alpha", r, "--heads", "1", "--family", family)


def edge_cases():
    """Every command at the edges of N and r; tests/test_cli.py runs each argv once."""
    for n in EDGE_HEADS:
        for r in EDGE_MODULI:
            yield ("roots", "--alpha", r, "--heads", str(n))
            for family in FAMILIES:
                s = ("--alpha", r, "--heads", str(n), "--family", family)
                yield ("stats", *s)
                yield ("wigner", *s, "--nx", "2", "--ny", "2")
                yield ("fock", *s, "--max-m", "2")
                yield ("validate", *s)
                r_max = float(r) or 1e-300  # r = 0 sweeps up to 1e-300 instead
                for quantity in QUANTITIES:
                    yield ("sweep", "--heads", str(n), "--family", family, "--quantity", quantity,
                           "--r-max", repr(r_max), "--step", repr(r_max / 2))


def _short_warning(message, category, *_):
    sys.stderr.write(f"{category.__name__}: {message}\n")


def run(main, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def record(outcome) -> bytes:
    """The bytes a case's digest hashes: its (exit code, stdout, stderr) as JSON."""
    return json.dumps(outcome).encode()


def dump_text(argv, outcome) -> str:
    """A case as --dump writes it; joining its stdout and stderr lines gives the outcome back."""
    code, out, err = outcome
    fields = {"argv": list(argv), "code": code, "stdout": out.splitlines(keepends=True),
              "stderr": err.splitlines(keepends=True)}
    return json.dumps(fields, indent=1) + "\n"


def stamp() -> list:
    """The manifest's header: what the digests may depend on besides the source."""
    import numpy as np

    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    found = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
    return [
        f"# python {platform.python_version()} {platform.machine()}",
        f"# numpy {np.__version__}",
        f"# simd baseline {' '.join(__cpu_baseline__)}",
        f"# simd found {' '.join(found)}",
    ]


def check(lines: list, manifest: Path) -> int:
    """Print each case whose line differs from the manifest's; 1 if any does."""
    old = manifest.read_text().splitlines()
    old_stamp = [line for line in old if line.startswith("#")]
    old_cases = [line for line in old if not line.startswith("#")]
    changed = [(was, now) for was, now in zip_longest(old_cases[:-1], lines[:-1]) if was != now]
    if not changed:
        print(f"{len(lines) - 1} cases match {manifest}")
        return 0
    for was, now in changed:
        print(f"- {was}\n+ {now}")
    new_stamp = stamp()
    stamp_diff = [f"- {line}" for line in old_stamp if line not in new_stamp]
    stamp_diff += [f"+ {line}" for line in new_stamp if line not in old_stamp]
    print(f"{len(changed)} of {len(lines) - 1} cases differ from {manifest}")
    print(*(stamp_diff or ["environment stamp: the manifest's"]), sep="\n")
    print("differing cases per command, head count and family:")
    print(*tally(now or was for was, now in changed), sep="\n")
    return 1


def tally(lines) -> list:
    """How many of the manifest lines fall on each command, head count and family."""
    counts = Counter()
    for line in lines:
        argv = line.split()[1:]
        heads, family = (argv[argv.index(flag) + 1] if flag in argv else ""
                         for flag in ("--heads", "--family"))
        counts[argv[0], int(heads) if heads.isdigit() else -1, family] += 1
    return [f"{count:6d}  {command} {'N = ' + str(heads) if heads >= 0 else ''} {family}".rstrip()
            for (command, heads, family), count in sorted(counts.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, required=True, help="directory holding multihead")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", type=Path, metavar="PATH", help="save the digests as a manifest")
    mode.add_argument("--check", type=Path, metavar="PATH", help="compare with a manifest")
    parser.add_argument("--dump", type=Path, metavar="DIR", help="write each case's outcome to DIR")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from multihead import cli

    matrix = list(dict.fromkeys(cases()))
    width = len(str(len(matrix) - 1))
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    lines = []
    total = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _short_warning
        for index, case in enumerate(matrix):
            outcome = run(cli.main, case)
            digest = hashlib.sha256(record(outcome)).hexdigest()
            total.update(digest.encode())
            lines.append(f"{digest} {' '.join(case)}")
            if args.dump:
                (args.dump / f"{index:0{width}d}.json").write_text(dump_text(case, outcome))
    lines.append(f"{total.hexdigest()} total")
    if args.check:
        return check(lines, args.check)
    if args.write:
        args.write.write_text("\n".join(stamp() + lines) + "\n")
    else:
        print(*lines, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
