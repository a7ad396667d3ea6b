"""Exact rational linear programming with duals.

Two-phase bounded-variable simplex over exact rationals: nonbasic variables
sit at either bound, so box constraints never become rows.  Pivoting uses
Bland's smallest-index rule throughout, which trades speed for guaranteed
termination; at the problem sizes this package deals in, that trade is free.

The tableau is fraction-free.  Each row is a list of Python ints over one
positive denominator of its own, so a pivot is integer multiply-subtract on
the rows that have a nonzero in the entering column, followed by one gcd per
such row; the other rows are not touched.  Basic values, bounds and costs,
O(rows) work per pivot, are `fractions.Fraction`, as is everything the
public API returns.  The package needs nothing outside the standard library.

Duals are Lagrange multipliers for the rows as written: for a maximization,
a binding <= row has a nonnegative dual and a binding >= row a nonpositive
one; for a minimization the signs flip.

Rows enter the tableau one way only.  Each row is expressed in the current
basis: where the current point satisfies it, its slack becomes basic; where
it does not, an artificial takes up the violation, and a phase 1 over the
new artificials alone restores feasibility before phase 2 runs.  A cold
solve starts from a tableau of structural columns and no rows, every
variable at its lower bound, and takes in every row this way.  Columns and
rows can both be appended to a solved program, and the next solve resumes
from the previous basis: a new column enters nonbasic at its lower bound,
so the basis stays feasible, and new rows come in as above.  Bland's rule
holds throughout, so termination is unchanged.  This is what makes column
generation, and row-and-column generation, affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_q = Fraction  # rational type of values, bounds, costs and results; bench/run.py reports it
_ZERO = Fraction(0)
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


class LinearProgram:
    """Mutable LP builder: variables with [lo, hi] bounds (hi=None for +inf),
    rows with <=, >= or == relations.  All data exact rationals."""

    def __init__(self, sense: str = "max"):
        if sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
        self.sense = sense
        self.obj: list[Fraction] = []
        self.lo: list[Fraction] = []
        self.hi: list[Fraction | None] = []
        # rows: (coeffs dict var->Fraction, rel, rhs)
        self.rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
        self._tableau: "_Tableau | None" = None
        self._pending_cols: list[int] = []

    @property
    def n_vars(self) -> int:
        return len(self.obj)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def add_variable(self, objective=0, lo=0, hi=None) -> int:
        lo = Fraction(lo)
        if hi is not None:
            hi = Fraction(hi)
            if hi < lo:
                raise ValueError(f"empty bound interval [{lo}, {hi}]")
        self.obj.append(Fraction(objective))
        self.lo.append(lo)
        self.hi.append(hi)
        return len(self.obj) - 1

    def add_row(self, coeffs: dict[int, Fraction], rel: str, rhs) -> int:
        if rel not in _REL:
            raise ValueError(f"relation must be one of {_REL}, got {rel!r}")
        for var in coeffs:
            if not 0 <= var < self.n_vars:
                raise ValueError(f"row references unknown variable {var}")
        self.rows.append(({v: Fraction(c) for v, c in coeffs.items()}, rel, Fraction(rhs)))
        # a solved program keeps its tableau: the next solve() absorbs every
        # row past the tableau's last one
        return len(self.rows) - 1

    def add_column(self, objective, entries: dict[int, Fraction], lo=0, hi=None) -> int:
        """Append a variable given its column: entries map row index -> coeff.

        The previous optimal basis stays feasible (the new variable enters
        nonbasic at its lower bound), so a following solve() warm-starts.
        Entries may name rows added since the last solve.
        """
        for row in entries:
            if not 0 <= row < self.n_rows:
                raise ValueError(f"column references unknown row {row}")
        var = self.add_variable(objective, lo=lo, hi=hi)
        for row, coeff in entries.items():
            self.rows[row][0][var] = Fraction(coeff)
        self._pending_cols.append(var)
        return var

    def row_activity(self, x: tuple[Fraction, ...], row: int) -> Fraction:
        coeffs, _, _ = self.rows[row]
        return sum((c * x[v] for v, c in coeffs.items() if x[v]), Fraction(0))


def solve(lp: LinearProgram, warm: bool = True) -> LpSolution:
    """Solve to proven optimality (or infeasible/unbounded), exactly.

    With warm=True a program solved before resumes from its last basis,
    absorbing the columns added since.  warm=False, or a pending column with
    a nonzero lower bound, starts from a tableau with no rows.  Either way
    every row the tableau does not hold yet is absorbed next."""
    tab = lp._tableau if warm else None
    if tab is not None and any(lp.lo[v] != 0 for v in lp._pending_cols):
        tab = None
    if tab is None:
        tab = _Tableau(lp)
    else:
        for var in sorted(lp._pending_cols):
            tab.absorb_column(lp, var)
    arts = []
    for i in range(len(tab.basis), lp.n_rows):
        art = tab.absorb_row(lp, i)
        if art is not None:
            arts.append(art)
    lp._pending_cols.clear()
    if tab.phase1(arts) == "infeasible":
        lp._tableau = None
        return LpSolution("infeasible", None, None, None)
    if tab.phase2() == "unbounded":
        lp._tableau = None
        return LpSolution("unbounded", None, None, None)
    lp._tableau = tab
    x = tab.primal_values(lp)
    duals = tab.dual_values()
    obj = sum((lp.obj[j] * x[j] for j in range(lp.n_vars)), Fraction(0))
    return LpSolution("optimal", tuple(x), tuple(duals), obj)


def _scaled_row(lp: LinearProgram, i: int) -> tuple[int, dict[int, int], Fraction]:
    """Row i of `lp` as (scale, integer coefficients, shifted rhs): the
    coefficients times the lcm of their denominators, and the rhs less the
    row's activity at the lower bounds (columns are shifted to lower 0)."""
    coeffs, _, b = lp.rows[i]
    scale = math.lcm(*(c.denominator for c in coeffs.values()))
    ints = {v: c.numerator * (scale // c.denominator) for v, c in coeffs.items()}
    return scale, ints, b - sum((c * lp.lo[v] for v, c in coeffs.items() if lp.lo[v]), _ZERO)


def _lowest_terms(row: list[int], den: int) -> tuple[list[int], int]:
    """The rational row row/den (den > 0) with gcd(den, *row) == 1."""
    if den == 1:
        return row, 1
    g = math.gcd(den, *row)
    if g == 1:
        return row, den
    return [a // g for a in row], den // g


def _eliminate(
    row: list[int], den: int, nonzeros: list[tuple[int, int]], pden: int, enter: int
) -> tuple[list[int], int]:
    """Clear row/den's entering column with the pivot row prow/pden, given
    by its nonzeros (j, prow[j]) and with entering entry 1: for f =
    row[enter], (row*pden - f*prow) / (den*pden) in lowest terms.  When
    pden == 1 only the entries at those nonzeros change."""
    f = row[enter]
    if pden != 1:
        row = [a * pden for a in row]
        den *= pden
    for j, b in nonzeros:
        row[j] -= f * b
    return _lowest_terms(row, den)


class _Tableau:
    """Bounded-variable simplex state on integer rows.

    Row i stands for the rational row tab[i] / den[i]: tab[i] is a list of
    ints and den[i] a positive int, kept in lowest terms (gcd(den[i],
    *tab[i]) == 1), so the row's basic column holds tab[i][basis[i]] ==
    den[i].  The z-row is zrow / zden under the same rules.  Basic values
    (val), bound spans (ubound) and costs are Fractions.

    Columns: structural variables (shifted to lower bound 0), then per row,
    in row order, its slack (inequality rows) and its artificial (where the
    slack could not start basic, and always for an equality row).  Each row
    keeps one witness (column, sign): its slack, or for an equality row its
    artificial.  The witness columns embed B^-1, which is what dual
    extraction and warm column absorption read, so artificials are fixed to
    0 after phase 1 but keep their columns.

    The tableau keeps no reference to its program (methods that read it take
    it as an argument), so a program and its cached tableau form no cycle.
    """

    def __init__(self, lp: LinearProgram):
        self.sign = 1 if lp.sense == "max" else -1
        # structural columns, shifted: x = x' + lo, x' in [0, hi-lo]
        self.ncols = lp.n_vars
        self.ubound: list[Fraction | None] = [
            hi - lo if lo and hi is not None else hi for lo, hi in zip(lp.lo, lp.hi)
        ]
        self.cost: list[Fraction] = lp.obj[:] if self.sign == 1 else [-c for c in lp.obj]
        self.status = [FIXED if ub == 0 else LOWER for ub in self.ubound]
        # no rows yet: absorb_row writes each one
        self.tab: list[list[int]] = []
        self.den: list[int] = []
        self.val: list[Fraction] = []
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
        self.ncols += 1
        return self.ncols - 1

    # -- phases ------------------------------------------------------------

    def _reset_zrow(self, costs: list[Fraction]) -> None:
        """z_j = sum_i c_B(i) * tab[i][j] / den[i] - c_j over one common
        denominator: the lcm of the costs' and the weights' denominators."""
        weights = [(i, costs[b] / self.den[i]) for i, b in enumerate(self.basis) if costs[b]]
        zden = math.lcm(*(c.denominator for c in costs), *(w.denominator for _, w in weights))
        zrow = [-c.numerator * (zden // c.denominator) for c in costs]
        for i, w in weights:
            k = w.numerator * (zden // w.denominator)
            zrow = [z + k * a for z, a in zip(zrow, self.tab[i])]
        self.zrow, self.zden = _lowest_terms(zrow, zden)

    def phase1(self, arts: list[int]) -> str:
        """Drive the artificial columns `arts` to zero, then fix them there.
        Artificials of earlier solves are fixed at zero already."""
        if not arts:
            return "feasible"
        costs = [_ZERO] * self.ncols
        for col in arts:
            costs[col] = Fraction(-1)
        self._reset_zrow(costs)
        if self._iterate() == "unbounded":
            raise AssertionError("phase 1 objective is bounded above by zero")
        new = set(arts)
        infeas = sum((self.val[i] for i, b in enumerate(self.basis) if b in new), _ZERO)
        if infeas != 0:
            return "infeasible"
        # lock artificials at zero; basic-at-zero artificials may remain
        for col in arts:
            self.ubound[col] = _ZERO
            if self.status[col] != BASIC:
                self.status[col] = FIXED
        return "feasible"

    def phase2(self) -> str:
        self._reset_zrow(self.cost)
        return self._iterate()

    # -- core pivoting -----------------------------------------------------

    def _iterate(self) -> str:
        tab, den, val = self.tab, self.den, self.val
        basis, ubound, status = self.basis, self.ubound, self.status
        for _ in range(_PIVOT_LIMIT):
            zrow = self.zrow
            enter = -1
            direction = 1
            for j in range(self.ncols):
                st = status[j]
                if st == LOWER and zrow[j] < 0:
                    enter, direction = j, 1
                    break
                if st == UPPER and zrow[j] > 0:
                    enter, direction = j, -1
                    break
            if enter < 0:
                return "optimal"
            # ratio test: largest step t >= 0 along the improving direction;
            # start from the entering variable's own bound span.  Row i's
            # entry is g / den[i], so its cap is val[i] * den[i] / g; caps
            # are compared as int pairs (num, positive den) by cross-multiplying.
            ub = ubound[enter]
            limit = None if ub is None else (ub.numerator, ub.denominator)
            leave_row = -1
            leave_to = LOWER
            for i in range(len(basis)):
                g = direction * tab[i][enter]
                if g > 0:
                    v = val[i]
                    cap = (v.numerator * den[i], v.denominator * g)
                    to = LOWER
                elif g < 0:
                    ub = ubound[basis[i]]
                    if ub is None:
                        continue
                    v = ub - val[i]
                    cap = (v.numerator * den[i], -v.denominator * g)
                    to = UPPER
                else:
                    continue
                if limit is None:
                    limit, leave_row, leave_to = cap, i, to
                    continue
                lhs, rhs = cap[0] * limit[1], limit[0] * cap[1]
                if lhs < rhs:
                    limit, leave_row, leave_to = cap, i, to
                elif lhs == rhs and (leave_row < 0 or basis[i] < basis[leave_row]):
                    # prefer pivoting over a bound flip on a tie, and break
                    # row ties by the smallest basic index (Bland)
                    limit, leave_row, leave_to = cap, i, to
            if limit is None:
                return "unbounded"
            t = Fraction(*limit)
            if t:
                # val[i] -= t * direction * tab[i][enter] / den[i], built as
                # one fraction over vd * td * den[i]
                tn, td = limit[0] * direction, limit[1]
                for i in range(len(basis)):
                    a = tab[i][enter]
                    if a:
                        v = val[i]
                        vd = v.denominator
                        val[i] = Fraction(v.numerator * td * den[i] - tn * a * vd, vd * td * den[i])
            if leave_row < 0:
                status[enter] = UPPER if direction > 0 else LOWER
                continue
            self._pivot(leave_row, enter, t, direction, leave_to)
        raise CyclingLimitError(f"exceeded {_PIVOT_LIMIT} pivots")

    def _pivot(self, r: int, enter: int, t: Fraction, direction: int, leave_to: int) -> None:
        leaving = self.basis[r]
        # row r over its pivot entry: the den[r] cancels
        prow, pden = self.tab[r], self.tab[r][enter]
        if pden < 0:
            prow, pden = [-a for a in prow], -pden
        prow, pden = _lowest_terms(prow, pden)
        self.tab[r], self.den[r] = prow, pden
        nonzeros = [(j, b) for j, b in enumerate(prow) if b]
        tab, den = self.tab, self.den
        for i in range(len(tab)):
            if i != r and tab[i][enter]:
                tab[i], den[i] = _eliminate(tab[i], den[i], nonzeros, pden, enter)
        if self.zrow[enter]:
            self.zrow, self.zden = _eliminate(self.zrow, self.zden, nonzeros, pden, enter)
        if self.ubound[leaving] == 0:
            self.status[leaving] = FIXED
        else:
            self.status[leaving] = leave_to
        self.status[enter] = BASIC
        self.basis[r] = enter
        self.val[r] = t if direction > 0 else self.ubound[enter] - t

    # -- extraction, warm columns and warm rows ------------------------------

    def _point(self) -> list[Fraction]:
        """Current values of every tableau column, structurals shifted."""
        vals: list[Fraction] = [
            self.ubound[j] if self.status[j] == UPPER else _ZERO
            for j in range(self.ncols)
        ]
        for i, b in enumerate(self.basis):
            vals[b] = self.val[i]
        return vals

    def primal_values(self, lp: LinearProgram) -> list[Fraction]:
        vals = self._point()
        return [vals[j] + lo if lo else vals[j] for j, lo in enumerate(lp.lo)]

    def dual_values(self) -> list[Fraction]:
        # row i's multiplier is read off the z-row under its witness column;
        # the witness sign restores A's original +-1 entry, the outer sign
        # undoes the min->max flip
        return [Fraction(self.sign * s * self.zrow[col], self.zden) for col, s in self.witness]

    def absorb_column(self, lp: LinearProgram, var: int) -> None:
        """Extend the tableau with a structural column of `lp` appended after
        the last solve.  The z-row is rebuilt at the next phase2 call, so only
        the B^-1 A column needs computing here."""
        col = self._insert_structural_col(lp, var)
        # B^-1 e_i is embedded in row i's witness column, so the new column
        # is sum_i c_i * ws_i * (witness column of row i), with the c_i scaled
        # to integers k_i by the lcm of their denominators
        terms: list[tuple[int, Fraction]] = []
        for i, (wcol, ws) in enumerate(self.witness):  # rows still pending read the column when absorbed
            c = lp.rows[i][0].get(var)
            if c:
                terms.append((wcol, ws * c))
        scale = math.lcm(*(c.denominator for _, c in terms))
        nums = [0] * len(self.tab)
        for wcol, c in terms:
            k = c.numerator * (scale // c.denominator)
            nums = [num + k * row[wcol] for num, row in zip(nums, self.tab)]
        for r, (num, row) in enumerate(zip(nums, self.tab)):
            if not num:
                continue
            # the entry is num / (den[r] * scale); rescale the row where the
            # reduced fraction needs a larger denominator
            g = math.gcd(num, scale)
            num, up = num // g, scale // g
            if up != 1:
                self.tab[r] = row = [a * up for a in row]
                self.den[r] *= up
            row[col] = num

    def absorb_row(self, lp: LinearProgram, i: int) -> int | None:
        """Extend the tableau with row i of `lp`, the next row it does not
        hold, written in the current basis.  A fresh tableau holds no rows,
        so a cold solve writes every row this way.

        The row is scaled to integers and each basic column's entry is
        cleared against that column's row.  An inequality row appends its
        slack column, its witness.  Where the current point satisfies the
        row, the slack becomes basic and None is returned.  Otherwise an
        artificial column follows (always, and as the witness, for an
        equality row), basic at the size of the violation, and is returned
        for phase 1 to drive to zero."""
        coeffs, rel, _ = lp.rows[i]
        scale, ints, rhs = _scaled_row(lp, i)
        point = self._point()
        gap = rhs - sum((c * point[v] for v, c in coeffs.items() if point[v]), _ZERO)
        row, den = [0] * self.ncols, scale
        for v, a in ints.items():
            row[v] = a
        for k, col in enumerate(self.basis):
            if row[col]:
                nonzeros = [(j, a) for j, a in enumerate(self.tab[k]) if a]
                row, den = _eliminate(row, den, nonzeros, self.den[k], col)
        self.tab.append(row)
        self.den.append(den)
        # (column, sign) of the slack, then of the artificial if needed
        sign = 0 if rel == "==" else 1 if rel == "<=" else -1
        cols = [(self._new_col(), sign)] if sign else []
        art = None
        if not sign or sign * gap < 0:
            art = self._new_col()
            cols.append((art, 1 if gap >= 0 else -1))
        for col, s in cols:
            row[col] = s * den
        self.witness.append(cols[0])
        # the last column is basic at |gap|; negate the row where it reads -1
        basic, s = cols[-1]
        if s < 0:
            self.tab[i] = [-a for a in row]
        self.basis.append(basic)
        self.status[basic] = BASIC
        self.val.append(abs(gap))
        return art

    def _insert_structural_col(self, lp: LinearProgram, var: int) -> int:
        """Place the new variable at tableau index `var` so structural columns
        stay contiguous; every witness, a slack or an artificial, sits right
        of the structurals and shifts right by one."""
        lo, hi = lp.lo[var], lp.hi[var]
        if lo != 0:
            raise ValueError("warm-absorbed columns must have lo == 0")
        ub = None if hi is None else hi - lo
        self.ubound.insert(var, ub)
        self.cost.insert(var, self.sign * lp.obj[var])
        self.status.insert(var, FIXED if ub == 0 else LOWER)
        self.ncols += 1
        for i in range(len(self.basis)):
            self.tab[i].insert(var, 0)
            if self.basis[i] >= var:
                self.basis[i] += 1
        self.witness = [(c + 1, s) for c, s in self.witness]
        return var
