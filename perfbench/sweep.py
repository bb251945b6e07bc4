"""One-off genus-sweep size report (untimed).

    python3 perfbench/sweep.py [--out perfbench/genus_sweep.json]

Compiles `compile_surface(n, orientable)` for n in {2, 4, 8, 16, 32} in both
families and records vertices, guards, clauses, max_coord_bits (largest bit
length of any vertex coordinate's numerator or denominator), total_coord_bits
(sum of those bit lengths over all coordinates) and gallery_bytes (size of
`write_gallery`).  Checks that vertex counts are exactly affine in n and
reports how the bit lengths grow.  Exits 1 if a family is not affine.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERA = (2, 4, 8, 16, 32)


def sizes(tg, g) -> dict:
    coords = [c for v in g.polygon.vertices for c in (v.x, v.y)]
    bits = [(abs(c.numerator).bit_length(), c.denominator.bit_length())
            for c in coords]
    return {
        "vertices": tg.vertex_count(g),
        "guards": g.k,
        "clauses": len(g.formula.clauses),
        "max_coord_bits": max(max(b) for b in bits),
        "total_coord_bits": sum(sum(b) for b in bits),
        "gallery_bytes": len(tg.files.write_gallery(g).encode("utf-8")),
    }


def affine(ns, values) -> bool:
    """True iff (n, value) points lie exactly on one line."""
    slope = Fraction(values[1] - values[0], ns[1] - ns[0])
    return all(values[0] + slope * (n - ns[0]) == v for n, v in zip(ns, values))


def growth(ns, values) -> list[str]:
    """Ratio of each value to the previous one, as n doubles."""
    return [f"{b / a:.3f}" for a, b in zip(values, values[1:])]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=str(Path(__file__).parent / "genus_sweep.json"))
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import topogallery as tg
    import topogallery.files  # noqa: F401  (binds tg.files)

    report = {"genera": list(GENERA), "families": {}}
    ok = True
    for orientable in (True, False):
        family = "orientable" if orientable else "non-orientable"
        rows = []
        for n in GENERA:
            row = {"n": n, **sizes(tg, tg.compile_surface(n, orientable))}
            rows.append(row)
            print(family, json.dumps(row), flush=True)
        verts = [r["vertices"] for r in rows]
        is_affine = affine(GENERA, verts)
        ok = ok and is_affine
        report["families"][family] = {
            "rows": rows,
            "vertices_affine_in_n": is_affine,
            "vertices_per_genus": str(Fraction(verts[1] - verts[0],
                                               GENERA[1] - GENERA[0])),
            "max_coord_bits_growth_per_doubling": growth(
                GENERA, [r["max_coord_bits"] for r in rows]),
            "total_coord_bits_growth_per_doubling": growth(
                GENERA, [r["total_coord_bits"] for r in rows]),
        }
        print(family, "vertices affine in n:", is_affine)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
