#!/usr/bin/env python3
"""Writes a seeded CSV of continuous columns, where nearly every row is its
own joint cell: the shape that stresses the out-of-core summaries.

  continuous_csv.py mixed ROWS OUT.csv   D,N,Z,G: negatives, zeros of both
                                         signs, empty cells, a numeric Z with
                                         many distinct values (binned when
                                         conditioned on) and a categorical G
  continuous_csv.py boston ROWS OUT.csv  D,N,C,B,R,TX: Boston-like columns
                                         written with %.6f
"""
import random
import sys


def mixed(rows, out):
    rng = random.Random(5)
    out.write("D,N,Z,G\n")
    for _ in range(rows):
        d = rng.uniform(-40.0, 40.0)
        n = 0.25 * d + rng.uniform(-12.0, 12.0)
        z = rng.uniform(-3.0, 3.0)
        pick = rng.randrange(50)
        d_text = {0: "0", 1: "-0", 2: ""}.get(pick, "%.4f" % d)
        n_text = {3: "", 4: "-0.0"}.get(pick, "%.6f" % n)
        g_text = "" if pick == 5 else rng.choice(["north", "south", "east"])
        out.write("%s,%s,%.4f,%s\n" % (d_text, n_text, z, g_text))


def boston(rows, out):
    rng = random.Random(11)
    out.write("D,N,C,B,R,TX\n")
    for _ in range(rows):
        d = rng.uniform(1.0, 12.0)
        n = 0.9 - 0.04 * d + rng.gauss(0.0, 0.05)
        c = rng.expovariate(0.3)
        b = rng.uniform(0.3, 400.0)
        r = rng.gauss(6.3, 0.7)
        tx = rng.uniform(180.0, 720.0)
        out.write("%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n" % (d, n, c, b, r, tx))


def main():
    shapes = {"mixed": mixed, "boston": boston}
    if len(sys.argv) != 4 or sys.argv[1] not in shapes:
        sys.exit(__doc__)
    with open(sys.argv[3], "w") as out:
        shapes[sys.argv[1]](int(sys.argv[2]), out)


if __name__ == "__main__":
    main()
