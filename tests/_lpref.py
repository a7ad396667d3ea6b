"""Reference LP optimum by exhaustive vertex enumeration.

Only works when every variable is box-bounded: the feasible region is then a
compact polytope, so it is nonempty iff it has a vertex and the optimum is
attained at one.  Every vertex lies on n linearly independent active
hyperplanes drawn from the rows (taken as equalities) and the variable
bounds, so enumerating the n-subsets and filtering by feasibility finds the
exact optimum.  A subset holding both bounds of one variable is singular
and skipped unsolved.  Exponential, fine as a test oracle for small programs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from slotsched.simplex import LinearProgram


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination; None when the system is singular."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _feasible(lp: LinearProgram, x: list[Fraction]) -> bool:
    for j in range(lp.n_vars):
        if x[j] < lp.lo[j] or (lp.hi[j] is not None and x[j] > lp.hi[j]):
            return False
    for coeffs, rel, rhs in lp.rows:
        act = sum((c * x[v] for v, c in coeffs.items()), Fraction(0))
        if rel == "<=" and act > rhs:
            return False
        if rel == ">=" and act < rhs:
            return False
        if rel == "==" and act != rhs:
            return False
    return True


def vertex_optimum(lp: LinearProgram) -> tuple[str, Fraction | None]:
    """("optimal", value) or ("infeasible", None).  Needs finite bounds."""
    n = lp.n_vars
    if n == 0:
        return "optimal", Fraction(0)
    planes: list[tuple[list[Fraction], Fraction]] = []
    for coeffs, _, rhs in lp.rows:
        dense = [Fraction(0)] * n
        for v, c in coeffs.items():
            dense[v] += c
        planes.append((dense, rhs))
    # a variable's two bound planes are parallel, and adjacent in any sorted set
    # holding both: such a set is singular
    parallel = {(len(planes) + 2 * j, len(planes) + 2 * j + 1) for j in range(n)}
    for j in range(n):
        if lp.hi[j] is None:
            raise ValueError("vertex enumeration needs finite bounds")
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        planes.append((unit, lp.lo[j]))
        planes.append((unit[:], lp.hi[j]))
    best: Fraction | None = None
    better = max if lp.sense == "max" else min
    for combo in itertools.combinations(range(len(planes)), n):
        if not parallel.isdisjoint(zip(combo, combo[1:])):
            continue
        x = _solve_square([planes[i][0] for i in combo], [planes[i][1] for i in combo])
        if x is None or not _feasible(lp, x):
            continue
        value = sum((lp.obj[j] * x[j] for j in range(n)), Fraction(0))
        best = value if best is None else better(best, value)
    if best is None:
        return "infeasible", None
    return "optimal", best


def random_boxed_lp(rng, max_vars: int = 5, max_rows: int = 5) -> LinearProgram:
    """Random fully-boxed LP with mixed relations and rational data."""
    n = rng.randint(1, max_vars)
    lp = LinearProgram(rng.choice(["max", "min"]))
    for _ in range(n):
        lo = Fraction(rng.randint(-4, 2))
        hi = lo + Fraction(rng.randint(0, 6))
        lp.add_variable(
            objective=Fraction(rng.randint(-5, 5), rng.randint(1, 3)), lo=lo, hi=hi
        )
    for _ in range(rng.randint(0, max_rows)):
        coeffs = {
            j: Fraction(rng.randint(-4, 4), rng.randint(1, 2))
            for j in range(n)
            if rng.random() < 0.7
        }
        coeffs = {j: c for j, c in coeffs.items() if c}
        if not coeffs:
            continue
        rel = rng.choice(["<=", "<=", ">=", ">=", "=="])
        lp.add_row(coeffs, rel, Fraction(rng.randint(-8, 8), rng.randint(1, 2)))
    return lp


def check_certificates(lp: LinearProgram, sol) -> None:
    """Assert exact feasibility, dual signs, complementary slackness, and the
    Lagrangian identity obj == y.b + z.x with z the reduced costs."""
    assert sol.status == "optimal"
    x, y = sol.x, sol.duals
    assert _feasible(lp, list(x))
    sense_flip = 1 if lp.sense == "max" else -1
    zb = Fraction(0)
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        act = lp.row_activity(x, i)
        if rel == "<=":
            assert sense_flip * y[i] >= 0, f"row {i} dual sign"
        elif rel == ">=":
            assert sense_flip * y[i] <= 0, f"row {i} dual sign"
        if act != rhs:
            assert y[i] == 0, f"row {i} slack but dual nonzero"
        zb += y[i] * rhs
    lagrangian = zb
    for j in range(lp.n_vars):
        z = lp.obj[j] - sum(
            (y[i] * coeffs.get(j, Fraction(0)) for i, (coeffs, _, _) in enumerate(lp.rows)),
            Fraction(0),
        )
        at_lo = x[j] == lp.lo[j]
        at_hi = lp.hi[j] is not None and x[j] == lp.hi[j]
        if not at_lo and not at_hi:
            assert z == 0, f"var {j} interior but reduced cost {z}"
        elif at_lo and not at_hi:
            assert sense_flip * z <= 0, f"var {j} at lower, reduced cost {z}"
        elif at_hi and not at_lo:
            assert sense_flip * z >= 0, f"var {j} at upper, reduced cost {z}"
        lagrangian += z * x[j]
    assert lagrangian == sol.objective, "Lagrangian identity failed"
