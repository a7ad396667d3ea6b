"""Exact rational linear programming with duals.

Two-phase bounded-variable simplex over exact rationals: nonbasic variables
sit at either bound, so box constraints never become rows.  Pivoting uses
Bland's smallest-index rule throughout, which trades speed for guaranteed
termination; at the problem sizes this package deals in, that trade is free.

The tableau is fraction-free.  Each row is a list of Python ints over one
positive denominator of its own, its entry in its basic column, and carries
its basic variable's value as one more int over that denominator, so a
pivot is integer multiply-subtract on the rows that have a nonzero in the
entering column, followed by one gcd per such row; the other rows are not
touched.  A nonbasic variable moving between its bounds adds a multiple of
its column to those values in the same way.  Bound spans are int pairs.
A program stores the ints or Fractions it is given; each column and row
becomes ints once, through `model.as_ints`, as the tableau takes it in.
Costs are `fractions.Fraction`s, as is everything the public API returns.
The package needs nothing outside the standard library.

Duals are Lagrange multipliers for the rows as written: for a maximization,
a binding <= row has a nonnegative dual and a binding >= row a nonpositive
one; for a minimization the signs flip.

Columns and rows each enter the tableau one way only.  A column enters
nonbasic at its lower bound, written in the current basis, so no basic
value moves: only `add_column` gives a variable a coefficient in a row the
tableau already holds, and its variables start at 0.  A row is expressed in
the current basis: where the current point satisfies it, its slack becomes
basic; where it does not, an artificial takes up the violation, and a phase
1 over the new artificials alone restores feasibility before phase 2 runs.
An inequality row's artificial column is dropped once it is fixed out of
the basis; its slack keeps standing for the row.  A first solve takes in
every column, then every row, into an empty tableau; every later solve of
the same program takes in only the columns and rows appended since and
resumes from the previous basis.  Bland's rule holds throughout, so
termination is unchanged.  This is what makes column generation, and
row-and-column generation, affordable.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from slotsched.model import as_ints

_q = Fraction  # rational type of costs and results; bench/run.py reports it
_ZERO = Fraction(0)
_NO_SPAN = (0, 1)  # the bound span of a fixed variable, as ubound holds it
_PIVOT_LIMIT = 1_000_000  # pivots per phase of one solve; a guard, since Bland's rule terminates

LOWER, UPPER, BASIC, FIXED = 0, 1, 2, 3

_REL = ("<=", ">=", "==")


class CyclingLimitError(RuntimeError):
    """Pivot count exceeded the safety limit (should never happen with Bland)."""


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...] | None
    duals: tuple[Fraction, ...] | None
    objective: Fraction | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _check_numbers(*values) -> None:
    for v in values:
        if type(v) is not int and not isinstance(v, Fraction):
            raise ValueError(f"LP data must be ints or Fractions, got {v!r}")


class LinearProgram:
    """Mutable LP builder: variables with [lo, hi] bounds (hi=None for +inf),
    rows with <=, >= or == relations.  All data are ints or Fractions, stored
    as given; the tableau turns them into ints.  Any other value, a float or
    a bool included, is refused with a ValueError."""

    def __init__(self, sense: str = "max"):
        if sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
        self.sense = sense
        self.obj: list[int | Fraction] = []
        self.lo: list[int | Fraction] = []
        self.hi: list[int | Fraction | None] = []
        # rows: (coeffs dict var->coeff, rel, rhs)
        self.rows: list[tuple[dict[int, int | Fraction], str, int | Fraction]] = []
        self._tableau: "_Tableau | None" = None

    @property
    def n_vars(self) -> int:
        return len(self.obj)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def add_variable(self, objective=0, lo=0, hi=None) -> int:
        _check_numbers(objective, lo, 0 if hi is None else hi)
        if hi is not None and hi < lo:
            raise ValueError(f"empty bound interval [{lo}, {hi}]")
        self.obj.append(objective)
        self.lo.append(lo)
        self.hi.append(hi)
        return len(self.obj) - 1

    def add_row(self, coeffs: dict[int, int | Fraction], rel: str, rhs) -> int:
        if rel not in _REL:
            raise ValueError(f"relation must be one of {_REL}, got {rel!r}")
        for var in coeffs:
            if not 0 <= var < self.n_vars:
                raise ValueError(f"row references unknown variable {var}")
        _check_numbers(*coeffs.values(), rhs)
        self.rows.append((dict(coeffs), rel, rhs))
        return len(self.rows) - 1

    def add_column(self, objective, entries: dict[int, int | Fraction], hi=None) -> int:
        """Append a variable with bounds [0, hi] given its column: entries map
        row index -> coeff.  Entries may name rows added since the last solve."""
        for row in entries:
            if not 0 <= row < self.n_rows:
                raise ValueError(f"column references unknown row {row}")
        _check_numbers(*entries.values())
        var = self.add_variable(objective, hi=hi)
        for row, coeff in entries.items():
            self.rows[row][0][var] = coeff
        return var


def solve(lp: LinearProgram) -> LpSolution:
    """Solve to proven optimality (or infeasible/unbounded), exactly.

    A program solved before resumes from its last basis, any other from an
    empty tableau.  Every variable the tableau does not hold yet is absorbed
    as a column, then every row it does not hold yet."""
    tab = lp._tableau or _Tableau(lp.sense)
    for var in range(tab.nstruct, lp.n_vars):
        tab.absorb_column(lp, var)
    arts = []
    for i in range(len(tab.basis), lp.n_rows):
        art = tab.absorb_row(lp, i)
        if art is not None:
            arts.append(art)
    if tab.phase1(arts) == "infeasible":
        lp._tableau = None
        return LpSolution("infeasible", None, None, None)
    tab.drop_dead_artificials()
    if tab.phase2() == "unbounded":
        lp._tableau = None
        return LpSolution("unbounded", None, None, None)
    lp._tableau = tab
    x = tab.primal_values(lp)
    duals = tab.dual_values()
    tab.drop_dead_artificials()  # those phase 2 took out of the basis
    obj = sum((c * v for c, v in zip(lp.obj, x) if c and v), _ZERO)
    return LpSolution("optimal", tuple(x), tuple(duals), obj)


def _lowest_terms(row: list[int], rhs: int, den: int) -> tuple[list[int], int, int]:
    """The rational row (row | rhs) / den (den > 0) with gcd(den, rhs, *row)
    == 1.  The row is scanned only when den and rhs share a factor."""
    if den == 1:
        return row, rhs, 1
    g = math.gcd(den, rhs)
    if g != 1:
        g = math.gcd(g, *row)
        if g != 1:
            return [a // g for a in row], rhs // g, den // g
    return row, rhs, den


def _eliminate(
    row: list[int], rhs: int, den: int, nonzeros: list[tuple[int, int]], prhs: int, pden: int, enter: int
) -> tuple[list[int], int, int]:
    """Clear (row | rhs)/den's entering column with the pivot row (prow |
    prhs)/pden, given by its nonzeros (j, prow[j]) and with entering entry 1:
    for f = row[enter], (row*pden - f*prow) / (den*pden) in lowest terms,
    and likewise for the rhs.  When pden == 1 only the entries at those
    nonzeros change."""
    f = row[enter]
    if pden != 1:
        row = [a * pden for a in row]
        rhs *= pden
        den *= pden
    for j, b in nonzeros:
        row[j] -= f * b
    return _lowest_terms(row, rhs - f * prhs, den)


class _Tableau:
    """Bounded-variable simplex state on integer rows.

    Row i stands for the rational row (tab[i] | rhs[i]) / tab[i][basis[i]]:
    tab[i] is a list of ints and rhs[i] an int, kept in lowest terms
    (gcd(rhs[i], *tab[i]) == 1), and the row's entry in its basic column is
    its positive denominator, so the basic variable's value is rhs[i] /
    tab[i][basis[i]].  Every nonbasic variable sits at a bound, 0 or its span
    ubound (an int pair (num, den), or None for no upper bound), and the rhs
    already accounts for those at their upper bound: moving a nonbasic
    variable between bounds, or making it basic, goes through _shift.  The
    z-row is zrow / zden under the same rules, with no rhs.  Costs are
    Fractions.

    Columns: the nstruct structural variables (shifted to lower bound 0),
    then per row, in row order, its slack (inequality rows) and its
    artificial (where the slack could not start basic, and always for an
    equality row).  A new tableau holds no columns and no rows: absorb_column
    and absorb_row write each one.  Each row keeps one witness (column,
    sign): its slack, or for an equality row its artificial.  The witness
    columns embed B^-1, which is what dual extraction and column absorption
    read.  Phase 1 fixes artificials at 0.  An inequality row's artificial
    is +-1 times its slack column, so once it is fixed nonbasic nothing
    reads it and its column is dropped; an equality row's artificial, and
    one still basic at 0, stay.

    The tableau keeps no reference to its program (methods that read it take
    it as an argument), so a program and its cached tableau form no cycle.
    """

    def __init__(self, sense: str):
        self.sign = 1 if sense == "max" else -1
        self.nstruct = 0
        self.ubound: list[tuple[int, int] | None] = []
        self.cost: list[Fraction] = []
        self.status: list[int] = []
        self.tab: list[list[int]] = []
        self.rhs: list[int] = []
        self.basis: list[int] = []
        self.witness: list[tuple[int, int]] = []  # per row: (column, sign)
        self.zrow: list[int] = []
        self.zden = 1

    def _new_col(self) -> int:
        """Append a slack or artificial column, nonbasic at 0 with no upper
        bound, as a zero entry in every row held so far."""
        self.ubound.append(None)
        self.cost.append(_ZERO)
        self.status.append(LOWER)
        for row in self.tab:
            row.append(0)
        return len(self.status) - 1

    def drop_dead_artificials(self) -> None:
        """Delete every column past the structurals that is fixed
        nonbasic and no row's witness: the artificials of inequality rows
        that phase 1 fixed or a later pivot took out of the basis.  Slacks
        are never fixed, and an equality row's artificial is its witness.
        Later columns shift left in order, so Bland's rule sees the same
        sequence.  The z-row is rebuilt by the next phase."""
        witnesses = {col for col, _ in self.witness}
        status = self.status
        cols = [j for j in range(self.nstruct, len(status)) if status[j] == FIXED and j not in witnesses]
        if not cols:
            return
        for col in reversed(cols):
            for row in self.tab:
                del row[col]
            del self.ubound[col], self.cost[col], self.status[col]
        self.basis = [b - bisect_left(cols, b) for b in self.basis]
        self.witness = [(c - bisect_left(cols, c), s) for c, s in self.witness]

    # -- phases ------------------------------------------------------------

    def _reset_zrow(self, costs: list[Fraction]) -> None:
        """z_j = sum_i c_B(i) * tab[i][j] / tab[i][basis[i]] - c_j over one
        common denominator, that of the costs and the row weights c_B(i) /
        tab[i][basis[i]]."""
        rows = [(i, b) for i, b in enumerate(self.basis) if costs[b]]
        n = len(costs)
        ints, zden = as_ints(costs + [costs[b] / self.tab[i][b] for i, b in rows])
        zrow = [-c for c in ints[:n]]
        for (i, _), k in zip(rows, ints[n:]):
            zrow = [z + k * a for z, a in zip(zrow, self.tab[i])]
        self.zrow, _, self.zden = _lowest_terms(zrow, 0, zden)

    def phase1(self, arts: list[int]) -> str:
        """Drive the artificial columns `arts` to zero, then fix them there.
        Artificials of earlier solves are fixed at zero already."""
        if not arts:
            return "feasible"
        costs = [_ZERO] * len(self.status)
        for col in arts:
            costs[col] = Fraction(-1)
        self._reset_zrow(costs)
        if self._iterate() == "unbounded":
            raise AssertionError("phase 1 objective is bounded above by zero")
        new = set(arts)
        if any(self.rhs[i] for i, b in enumerate(self.basis) if b in new):
            return "infeasible"
        # lock artificials at zero; basic-at-zero artificials may remain
        for col in arts:
            self.ubound[col] = _NO_SPAN
            if self.status[col] != BASIC:
                self.status[col] = FIXED
        return "feasible"

    def phase2(self) -> str:
        self._reset_zrow(self.cost)
        return self._iterate()

    # -- core pivoting -----------------------------------------------------

    def _iterate(self) -> str:
        tab, rhs = self.tab, self.rhs
        basis, ubound, status = self.basis, self.ubound, self.status
        for _ in range(_PIVOT_LIMIT):
            zrow = self.zrow
            enter = -1
            direction = 1
            for j, st in enumerate(status):
                if st == LOWER and zrow[j] < 0:
                    enter, direction = j, 1
                    break
                if st == UPPER and zrow[j] > 0:
                    enter, direction = j, -1
                    break
            if enter < 0:
                return "optimal"
            # ratio test: largest step t >= 0 along the improving direction;
            # start from the entering variable's own bound span.  Over row
            # i's denominator d = tab[i][basis[i]], its entry is g / d and
            # its value rhs[i] / d, so its cap is rhs[i] / g down to 0, or
            # (ub * d - rhs[i]) / -g up to a span ub; caps are int pairs
            # (num, positive den) compared by cross-multiplying.
            limit = ubound[enter]
            leave_row = -1
            leave_to = LOWER
            for i in range(len(basis)):
                g = direction * tab[i][enter]
                if g > 0:
                    cap = (rhs[i], g)
                    to = LOWER
                elif g < 0:
                    b = basis[i]
                    ub = ubound[b]
                    if ub is None:
                        continue
                    cap = (ub[0] * tab[i][b] - rhs[i] * ub[1], -g * ub[1])
                    to = UPPER
                else:
                    continue
                if limit is None:
                    limit, leave_row, leave_to = cap, i, to
                    continue
                here, best = cap[0] * limit[1], limit[0] * cap[1]
                if here < best:
                    limit, leave_row, leave_to = cap, i, to
                elif here == best and (leave_row < 0 or basis[i] < basis[leave_row]):
                    # prefer pivoting over a bound flip on a tie, and break
                    # row ties by the smallest basic index (Bland)
                    limit, leave_row, leave_to = cap, i, to
            if limit is None:
                return "unbounded"
            if leave_row < 0:
                # bound flip: the entering variable crosses its whole span
                self._shift(enter, direction * limit[0], limit[1])
                status[enter] = UPPER if direction > 0 else LOWER
                continue
            self._pivot(leave_row, enter, leave_to)
        raise CyclingLimitError(f"exceeded {_PIVOT_LIMIT} pivots")

    def _shift(self, col: int, qn: int, qd: int) -> None:
        """Raise nonbasic column col's value by qn/qd (qd > 0): each row's
        basic value falls by qn/qd times its entry in col.  A row is
        rescaled only where qd does not divide that entry's numerator."""
        tab, rhs, basis = self.tab, self.rhs, self.basis
        for i, row in enumerate(tab):
            a = row[col]
            if not a:
                continue
            up = qd // math.gcd(a, qd)
            if up != 1:
                row = [b * up for b in row]
                rhs[i] *= up
            tab[i], rhs[i], _ = _lowest_terms(row, rhs[i] - qn * (a * up // qd), row[basis[i]])

    def _pivot(self, r: int, enter: int, leave_to: int) -> None:
        leaving = self.basis[r]
        # the entering variable turns basic, measured from 0, and the leaving
        # one nonbasic at its bound; the elimination then yields every new
        # basic value in the rhs
        if self.status[enter] == UPPER:
            un, ud = self.ubound[enter]
            self._shift(enter, -un, ud)
        ub = self.ubound[leaving]
        if leave_to == UPPER and ub[0]:
            self._shift(leaving, *ub)  # its column is row r's unit column
        # row r over its pivot entry: its old denominator cancels
        tab, rhs, basis = self.tab, self.rhs, self.basis
        prow, prhs, pden = tab[r], rhs[r], tab[r][enter]
        if pden < 0:
            prow, prhs, pden = [-a for a in prow], -prhs, -pden
        prow, prhs, pden = _lowest_terms(prow, prhs, pden)
        tab[r], rhs[r] = prow, prhs
        nonzeros = [(j, b) for j, b in enumerate(prow) if b]
        for i in range(len(tab)):
            if i != r and tab[i][enter]:
                row = tab[i]
                tab[i], rhs[i], _ = _eliminate(row, rhs[i], row[basis[i]], nonzeros, prhs, pden, enter)
        if self.zrow[enter]:
            self.zrow, _, self.zden = _eliminate(self.zrow, 0, self.zden, nonzeros, 0, pden, enter)
        self.status[leaving] = FIXED if ub == _NO_SPAN else leave_to
        self.status[enter] = BASIC
        self.basis[r] = enter

    # -- extraction, and absorbing columns and rows ---------------------------

    def primal_values(self, lp: LinearProgram) -> list[Fraction]:
        x = [Fraction(*self.ubound[j]) if st == UPPER else _ZERO for j, st in enumerate(self.status[: self.nstruct])]
        for i, b in enumerate(self.basis):
            if b < self.nstruct:
                x[b] = Fraction(self.rhs[i], self.tab[i][b])
        return [v + lo if lo else v for v, lo in zip(x, lp.lo)]

    def dual_values(self) -> list[Fraction]:
        # row i's multiplier is read off the z-row under its witness column;
        # the witness sign restores A's original +-1 entry, the outer sign
        # undoes the min->max flip
        return [Fraction(self.sign * s * self.zrow[col], self.zden) for col, s in self.witness]

    def absorb_column(self, lp: LinearProgram, var: int) -> None:
        """Extend the tableau with variable `var` of `lp`, the next one it does
        not hold, nonbasic at its lower bound, so no rhs moves: only
        add_column gives a variable a coefficient in a row the tableau holds,
        and its variables start at 0.  A fresh tableau holds no columns, so a
        cold solve writes every column this way, and a resumed one every
        variable added since.

        The column takes tableau index `var` == nstruct, keeping the
        structurals contiguous; every slack and artificial shifts right by
        one.  Its bound span is hi - lo.  The z-row is rebuilt at the next
        phase, so only the B^-1 A column needs computing."""
        lo, hi = lp.lo[var], lp.hi[var]
        # B^-1 e_i is embedded in row i's witness column, so the new column
        # is sum_i c_i * ws_i * (witness column of row i), with the c_i scaled
        # to integers k_i over one scale
        terms: list[tuple[int, int | Fraction]] = []
        for i, (wcol, ws) in enumerate(self.witness):  # rows still pending read the column when absorbed
            c = lp.rows[i][0].get(var)
            if c:
                terms.append((wcol, c if ws > 0 else -c))
        ks, scale = as_ints([c for _, c in terms])
        ints = [(wcol, k) for (wcol, _), k in zip(terms, ks)]
        tab, rhs = self.tab, self.rhs
        for r, row in enumerate(tab):
            num = 0
            for wcol, k in ints:
                num += k * row[wcol]
            if num:
                # the entry is num / (d * scale) over the row's denominator
                # d; rescale the row where the reduced fraction needs a larger d
                g = math.gcd(num, scale)
                num, up = num // g, scale // g
                if up != 1:
                    tab[r] = row = [a * up for a in row]
                    rhs[r] *= up
            row.insert(var, num)
        ub = None if hi is None else (hi - lo).as_integer_ratio()
        self.ubound.insert(var, ub)
        cost = Fraction(lp.obj[var])  # _reset_zrow divides costs by ints
        self.cost.insert(var, cost if self.sign == 1 else -cost)
        self.status.insert(var, FIXED if ub == _NO_SPAN else LOWER)
        self.nstruct += 1
        self.basis = [b + 1 if b >= var else b for b in self.basis]
        self.witness = [(c + 1, s) for c, s in self.witness]

    def absorb_row(self, lp: LinearProgram, i: int) -> int | None:
        """Extend the tableau with row i of `lp`, the next row it does not
        hold, written in the current basis.  A fresh tableau holds no rows,
        so a cold solve writes every row this way.

        The row is scaled to integers, with its rhs less the activity of the
        nonbasic variables (at their lower bounds, plus the span of those at
        their upper bound), and each basic column's entry is cleared against
        that column's row; the rhs is then the gap, the rhs less the
        activity at the current point.  An inequality row appends its slack
        column, its witness.  Where the gap satisfies the row, the slack
        becomes basic and None is returned.  Otherwise an artificial column
        follows (always, and as the witness, for an equality row), basic at
        the size of the violation, and is returned for phase 1 to drive to
        zero."""
        coeffs, rel, b = lp.rows[i]
        status, ubound = self.status, self.ubound
        rest = b - sum((c * lp.lo[v] for v, c in coeffs.items() if lp.lo[v]), _ZERO)
        rest -= sum((c * Fraction(*ubound[v]) for v, c in coeffs.items() if status[v] == UPPER), _ZERO)
        (rhs, *ints), den = as_ints([rest, *coeffs.values()])
        row = [0] * len(status)
        for v, a in zip(coeffs, ints):
            row[v] = a
        for k, col in enumerate(self.basis):
            if row[col]:
                nonzeros = [(j, a) for j, a in enumerate(self.tab[k]) if a]
                row, rhs, den = _eliminate(row, rhs, den, nonzeros, self.rhs[k], self.tab[k][col], col)
        self.tab.append(row)
        self.rhs.append(rhs)
        # (column, sign) of the slack, then of the artificial if needed
        sign = 0 if rel == "==" else 1 if rel == "<=" else -1
        cols = [(self._new_col(), sign)] if sign else []
        art = None
        if not sign or sign * rhs < 0:
            art = self._new_col()
            cols.append((art, 1 if rhs >= 0 else -1))
        for col, s in cols:
            row[col] = s * den
        self.witness.append(cols[0])
        # the last column is basic at |gap|; negate the row where it reads -1
        basic, s = cols[-1]
        if s < 0:
            self.tab[-1] = [-a for a in row]
            self.rhs[-1] = -rhs
        self.basis.append(basic)
        status[basic] = BASIC
        return art
