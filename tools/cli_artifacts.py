"""Render the CLI reference artifacts, or compare two rendered sets.

Usage::

    python tools/cli_artifacts.py [--src SRC] --out DIR
    python tools/cli_artifacts.py --compare DIR_A DIR_B

The first form imports ``torsionlab`` from ``SRC`` (default: this
checkout's ``src``) and writes one artifact per case into ``DIR``: the
criterion-9 examples (``CLI_EXAMPLES`` of ``perfbench/workloads.py``, read,
not copied) plus ``EXTRA_CASES`` below.  Each case runs through
``torsionlab.cli.main`` with ``DIR`` as the working directory and relative
``--output`` and loop paths, so the embedded run configuration does not
depend on where ``DIR`` lives and two checkouts render comparable files.

The second form reports, per file, whether the two sets are byte-identical
and otherwise the largest absolute deviation between their numbers (when
the text around the numbers matches).  It exits 1 unless every file of
either set is present in both and byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOOP_FILE = "loop.json"

# cases beyond criterion 9: a chart override, the CSV renderers, a disclination,
# a sphere kernel's leading eigenvalues (a pruned block solve)
EXTRA_CASES = (
    ["tensors", "--chart", "builtin:sphere", "--param", "r=2.0", "--at", "1.0,0.5",
     "--source", "cartan"],
    ["geodesic", "--chart", "builtin:polar", "--q0", "1.2,0.3", "--qdot0", "0.4,0.2",
     "--t1", "0.2", "--step", "0.05", "--format", "csv"],
    ["burgers", "--chart", "builtin:disclination", "--param", "om=0.05", "--loop", "{loop}"],
    ["spectrum", "--manifold", "sphere", "--n-theta", "24", "--n-phi", "48",
     "--ladder", "0.08,0.04", "--format", "csv"],
    ["amplitude", "--manifold", "sphere", "--n-theta", "24", "--n-phi", "48",
     "--epsilon", "0.08"],
)

_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN)")


def cases(examples):
    """``(file name, argv)`` of every case, loop paths resolved to ``LOOP_FILE``."""
    for k, argv in enumerate(examples + EXTRA_CASES):
        argv = [arg.format(loop=LOOP_FILE) for arg in argv]
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        yield f"{k:02d}-{argv[0]}.{fmt}", argv


def render_all(src, out) -> int:
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "perfbench")]
    from workloads import CLI_EXAMPLES, CLI_LOOP

    from torsionlab import cli

    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    Path(LOOP_FILE).write_text(json.dumps(CLI_LOOP), encoding="utf-8")
    failed = 0
    for name, argv in cases(CLI_EXAMPLES):
        code = cli.main(argv + ["--output", name])
        print(f"{name:<28} exit {code}")
        failed += code != 0
    return 1 if failed else 0


def _deviation(a: str, b: str):
    """Largest |x - y| over the numbers of two texts, or None if the text between differs."""
    pa, pb = _NUMBER.split(a), _NUMBER.split(b)
    if len(pa) != len(pb) or pa[0::2] != pb[0::2]:
        return None
    worst = 0.0
    for x, y in zip(pa[1::2], pb[1::2]):
        x, y = float(x), float(y)
        if x != y:
            worst = max(worst, abs(x - y) if math.isfinite(x - y) else math.inf)
    return worst


def compare(dir_a, dir_b) -> int:
    names = sorted({p.name for p in dir_a.iterdir()} | {p.name for p in dir_b.iterdir()})
    same = 0
    for name in names:
        fa, fb = dir_a / name, dir_b / name
        if not (fa.is_file() and fb.is_file()):
            status = f"only in {dir_a if fa.is_file() else dir_b}"
        elif fa.read_bytes() == fb.read_bytes():
            status, same = "identical", same + 1
        else:
            dev = _deviation(fa.read_text("utf-8"), fb.read_text("utf-8"))
            status = "differs: text" if dev is None else f"differs: max |dx| = {dev:.3e}"
        print(f"{name:<28} {status}")
    print(f"{same}/{len(names)} files byte-identical")
    return 0 if same == len(names) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding torsionlab")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="render the artifacts into this directory")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                      help="compare two rendered directories")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return render_all(args.src, args.out.resolve())


if __name__ == "__main__":
    sys.exit(main())
