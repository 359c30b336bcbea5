"""Compare two CLI outputs under the cross-BLAS rerun contract in README.md.

Run from anywhere::

    python tests/compare_outputs.py first.csv second.csv --rel 4.8e-16

Both files are split into lines and each line into tokens at commas, ``=``
and whitespace.  Lines and tokens must match one for one.  A token that
parses as a float with a fraction or an exponent may differ from its partner
by at most ``--rel`` relative; every other token (text, verdicts, integers,
comment lines) must be identical.  Exits 1 on the first violation, naming
the line, and prints the largest relative float difference otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys

_SPLIT = re.compile(r"[,=\s]+")


def _float(token: str) -> float | None:
    """The token's value if it is a float literal that is not an integer, else None."""
    if not re.search(r"[.eE]", token) or token.lower() in ("nan", "inf", "-inf"):
        return None
    try:
        return float(token)
    except ValueError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first")
    parser.add_argument("second")
    parser.add_argument("--rel", type=float, required=True, help="largest relative float difference")
    args = parser.parse_args(argv)
    with open(args.first) as fa, open(args.second) as fb:
        lines = list(zip(fa.read().splitlines(), fb.read().splitlines(), strict=True))
    worst, differ = 0.0, 0
    for number, (a, b) in enumerate(lines, start=1):
        ta, tb = _SPLIT.split(a), _SPLIT.split(b)
        for x, y in zip(ta, tb, strict=True):
            fx, fy = _float(x), _float(y)
            if fx is None or fy is None:
                if x != y:
                    print(f"line {number}: {x!r} != {y!r}", file=sys.stderr)
                    return 1
                continue
            rel = abs(fx - fy) / max(abs(fx), abs(fy)) if fx != fy else 0.0
            differ += fx != fy
            if rel > args.rel:
                print(f"line {number}: {x} and {y} differ by {rel:.3g} > {args.rel:g}", file=sys.stderr)
                return 1
            worst = max(worst, rel)
    print(f"{len(lines)} lines match; {differ} floats differ, by at most {worst:.3g} relative")
    return 0


if __name__ == "__main__":
    sys.exit(main())
