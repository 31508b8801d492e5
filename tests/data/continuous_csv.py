#!/usr/bin/env python3
"""Writes a seeded CSV of continuous columns, where nearly every row is its
own joint cell: the shape that stresses the out-of-core summaries.

  continuous_csv.py mixed ROWS OUT.csv   D,N,Z,G: negatives, zeros of both
                                         signs, empty cells, a numeric Z with
                                         many distinct values (binned when
                                         conditioned on) and a categorical G
  continuous_csv.py boston ROWS OUT.csv  D,N,C,B,R,TX: Boston-like columns
                                         written with %.6f
  continuous_csv.py messy ROWS OUT.csv   K,Q,N,M: CRLF records, categories
                                         quoted around commas, quotes and
                                         embedded LF / CRLF line breaks, blank
                                         lines, empty cells, no final newline
  continuous_csv.py nans ROWS OUT.csv    A,B,C,T,G: numeric A, B and a tied T
                                         with empty and `nan` cells (their
                                         NaNs are values; B's empty cells
                                         all in its first tenth), C with
                                         `nan` but no empty cell (its NaNs
                                         read as nulls), -0 cells, and a
                                         categorical G
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


def messy(rows, out):
    rng = random.Random(23)
    keys = ["plain", '"comma, inside"', '"line\nbreak"', '"crlf\r\nbreak"', '"say ""hi"""']
    out.write("K,Q,N,M\r\n")
    for i in range(rows):
        k = rng.randrange(len(keys))
        q = k % 3 if rng.random() < 0.4 else rng.randrange(3)
        n = rng.uniform(-5.0, 5.0)
        m = 0.3 * n + rng.uniform(-4.0, 4.0)
        k_text = "" if rng.randrange(50) == 0 else keys[k]
        m_text = "" if rng.randrange(50) == 1 else "%.5f" % m
        out.write("%s,%s,%.4f,%s" % (k_text, "pqr"[q], n, m_text))
        if i + 1 < rows:
            out.write("\r\n")
            if rng.randrange(20) == 0:
                out.write("\r\n" * rng.randint(1, 2))


def nans(rows, out):
    rng = random.Random(31)
    out.write("A,B,C,T,G\n")
    for i in range(rows):
        a = rng.gauss(0.0, 1.0)
        b = 0.5 * a + rng.gauss(0.0, 1.0)
        c = 0.4 * b + rng.gauss(0.0, 1.0)
        t = rng.randrange(6) + (1 if a > 0.5 else 0)
        a_text = {0: "", 1: "nan"}.get(rng.randrange(30), "%.4f" % a)
        b_text = {0: "nan", 1: "nan", 2: "-0"}.get(rng.randrange(30), "%.6f" % b)
        if 10 * i < rows and rng.randrange(10) == 0:
            b_text = ""
        c_text = "nan" if rng.randrange(20) == 0 else "%.5f" % c
        t_text = {0: "", 1: "nan", 2: "nan"}.get(rng.randrange(25), "%d" % t)
        g = rng.choice(["north", "south", "east"])
        out.write("%s,%s,%s,%s,%s\n" % (a_text, b_text, c_text, t_text, g))


def main():
    shapes = {"mixed": mixed, "boston": boston, "messy": messy, "nans": nans}
    if len(sys.argv) != 4 or sys.argv[1] not in shapes:
        sys.exit(__doc__)
    with open(sys.argv[3], "w", newline="") as out:
        shapes[sys.argv[1]](int(sys.argv[2]), out)


if __name__ == "__main__":
    main()
