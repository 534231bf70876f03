"""Smallest possible input: an empty cycle spec.

With no vertices the region is the plain annulus, the map has no folds
beyond the two boundary circles, and the synthesized surface is a torus.
The degree collapses to the constant part of the count, which is 4.
"""

from reebforge.graphs import GraphSpec, validated
from reebforge.layout import build_arrangement
from reebforge.oracle import membership_check
from reebforge.poly import synthesize
from reebforge.sweep import euler_check, sweep_reeb


def main():
    spec = validated(GraphSpec(mode="circle", vertices=0,
                               multiplicities=(), dimension=2))
    model = synthesize(spec)
    print("degree:", model.degree)
    print("ambient dimension:", model.ambient_dimension)

    arr = build_arrangement(spec)
    result = sweep_reeb(arr)
    print("reeb graph has no vertex circle:", result.no_vertex_circle)

    report = euler_check(arr, spec)
    print("euler characteristic:", report.chi_from_saddles,
          "genus:", report.genus)

    mem = membership_check(model, count=5000, seed=1)
    print("membership mismatches:", len(mem.mismatches),
          "of", mem.count, "points")


if __name__ == "__main__":
    main()
