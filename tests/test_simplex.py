"""Exact simplex: hand cases, a classic cycling instance, duals, random
cross-checks against vertex enumeration, warm-started column adds with
fractional data (property-tested), warm-started row adds (property-tested on
fractional bounds, with every bound move that rewrites a row's rhs),
variables added after a solve, dropped artificial columns, and a digest that
pins the pivot path.  A warm solve's cold reference is the same program
rebuilt from scratch."""

from __future__ import annotations

import gc
import hashlib
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _lpref import check_certificates, random_boxed_lp, rebuilt, row_activity, vertex_optimum
from slotsched import simplex
from slotsched.simplex import BASIC, UPPER, LinearProgram, LpSolution, solve


def test_max_single_variable():
    lp = LinearProgram("max")
    x = lp.add_variable(objective=1, lo=0, hi=10)
    lp.add_row({x: Fraction(1)}, "<=", 3)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.x == (Fraction(3),)
    assert sol.objective == 3
    assert sol.duals == (Fraction(1),)


def test_infeasible_pair():
    lp = LinearProgram("max")
    x = lp.add_variable(objective=1, lo=0, hi=10)
    lp.add_row({x: Fraction(1)}, "<=", 1)
    lp.add_row({x: Fraction(1)}, ">=", 2)
    assert solve(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram("max")
    lp.add_variable(objective=1, lo=0, hi=None)
    assert solve(lp).status == "unbounded"


def test_bounds_only_optimum():
    lp = LinearProgram("min")
    lp.add_variable(objective=3, lo=-2, hi=5)
    lp.add_variable(objective=-1, lo=0, hi=4)
    sol = solve(lp)
    assert sol.objective == 3 * -2 + -1 * 4
    assert sol.x == (Fraction(-2), Fraction(4))


def test_fixed_variable():
    lp = LinearProgram("max")
    x = lp.add_variable(objective=1, lo=2, hi=2)
    y = lp.add_variable(objective=1, lo=0, hi=3)
    lp.add_row({x: Fraction(1), y: Fraction(1)}, "<=", 4)
    sol = solve(lp)
    assert sol.x == (Fraction(2), Fraction(2))
    assert sol.objective == 4


def test_equality_row_and_duals():
    # min 2a + 3b  s.t.  a + b == 4, a <= 3
    lp = LinearProgram("min")
    a = lp.add_variable(objective=2, lo=0, hi=10)
    b = lp.add_variable(objective=3, lo=0, hi=10)
    lp.add_row({a: Fraction(1), b: Fraction(1)}, "==", 4)
    lp.add_row({a: Fraction(1)}, "<=", 3)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.x == (Fraction(3), Fraction(1))
    assert sol.objective == 9
    check_certificates(lp, sol)


def test_beale_cycling_instance_terminates():
    # the classic example that cycles under naive most-negative pivoting
    lp = LinearProgram("min")
    x1 = lp.add_variable(objective=Fraction(-3, 4))
    x2 = lp.add_variable(objective=150)
    x3 = lp.add_variable(objective=Fraction(-1, 50))
    x4 = lp.add_variable(objective=6)
    lp.add_row({x1: Fraction(1, 4), x2: -60, x3: Fraction(-1, 25), x4: 9}, "<=", 0)
    lp.add_row({x1: Fraction(1, 2), x2: -90, x3: Fraction(-1, 50), x4: 3}, "<=", 0)
    lp.add_row({x3: Fraction(1)}, "<=", 1)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == Fraction(-1, 20)


def test_negative_rhs_inequalities():
    # x >= 3 expressed as -x <= -3 exercises the artificial-basis path
    lp = LinearProgram("min")
    x = lp.add_variable(objective=1, lo=0, hi=10)
    lp.add_row({x: Fraction(-1)}, "<=", -3)
    sol = solve(lp)
    assert sol.x == (Fraction(3),)
    check_certificates(lp, sol)


def test_duals_price_capacity():
    # max 5a + 4b s.t. 6a + 4b <= 24, a + 2b <= 6 (a classic): duals 3/4, 1/2
    lp = LinearProgram("max")
    a = lp.add_variable(objective=5, lo=0, hi=100)
    b = lp.add_variable(objective=4, lo=0, hi=100)
    lp.add_row({a: 6, b: 4}, "<=", 24)
    lp.add_row({a: 1, b: 2}, "<=", 6)
    sol = solve(lp)
    assert sol.objective == 21
    assert sol.x == (Fraction(3), Fraction(3, 2))
    assert sol.duals == (Fraction(3, 4), Fraction(1, 2))
    check_certificates(lp, sol)


def test_add_column_improves_and_matches_cold_solve():
    # covering-style min problem; adding a better column lowers the optimum
    lp = LinearProgram("min")
    lp.add_variable(objective=3, lo=0, hi=None)
    lp.add_row({0: Fraction(1)}, ">=", 2)
    lp.add_row({}, ">=", 0)
    sol0 = solve(lp)
    assert sol0.objective == 6
    lp.add_column(objective=1, entries={0: Fraction(1), 1: Fraction(1)})
    warm = solve(lp)
    assert warm.objective == 2
    cold = solve(rebuilt(lp))
    assert cold.objective == warm.objective
    assert cold.x == warm.x


def test_solved_program_freed_by_reference_count():
    # the cached tableau must not point back at its program: with the cyclic
    # collector off, dropping the last reference frees both
    lp = LinearProgram("min")
    lp.add_variable(objective=3, lo=0, hi=None)
    lp.add_row({0: Fraction(1)}, ">=", 2)
    solve(lp)
    lp.add_column(objective=1, entries={0: Fraction(1)})
    assert solve(lp).objective == 2
    assert lp._tableau is not None
    program, tableau = weakref.ref(lp), weakref.ref(lp._tableau)
    gc.disable()
    try:
        del lp
        assert program() is None
        assert tableau() is None
    finally:
        gc.enable()


def test_add_column_sequence_objective_monotone():
    rng = random.Random(5)
    lp = LinearProgram("min")
    for j in range(3):
        lp.add_variable(objective=5 + j, lo=0, hi=None)
    for i in range(3):
        lp.add_row({i: Fraction(1)}, ">=", i + 1)
    prev = solve(lp).objective
    for step in range(6):
        entries = {
            i: Fraction(rng.randint(0, 2)) for i in range(3) if rng.random() < 0.8
        }
        lp.add_column(objective=Fraction(rng.randint(1, 4)), entries=entries)
        cur = solve(lp)
        cold = solve(rebuilt(lp))
        assert cur.objective == cold.objective
        assert cur.objective <= prev  # adding a column never hurts a min LP
        prev = cur.objective


def test_random_lps_match_vertex_enumeration():
    rng = random.Random(20260817)
    optimal = infeasible = 0
    for _ in range(120):
        lp = random_boxed_lp(rng)
        sol = solve(lp)
        status, value = vertex_optimum(lp)
        assert sol.status == status
        if status == "optimal":
            assert sol.objective == value
            check_certificates(lp, sol)
            optimal += 1
        else:
            infeasible += 1
    # the corpus must exercise both outcomes to mean anything
    assert optimal >= 30 and infeasible >= 10


def test_solutions_deterministic():
    rng = random.Random(9)
    lps = [random_boxed_lp(rng) for _ in range(20)]
    first = [solve(lp) for lp in lps]
    second = [solve(rebuilt(lp)) for lp in lps]
    assert first == second


# sha256 over the criterion-10 corpus; a change to it needs its reason in CHANGES.md
PIVOT_PATH_DIGEST = "c2f06e081eee557bd0a38381e66ee95ae68e28568b8a17d3c642280b41764df9"


def test_pivot_path_is_pinned_on_the_criterion_10_corpus():
    # where an LP has several optimal vertices or several optimal duals, the
    # pair returned is fixed by the pivot path: Bland's entering rule, the
    # ratio-test tie-breaks and the tableau's column order
    rng = random.Random("acc10")
    digest = hashlib.sha256()
    for _ in range(500):
        sol = solve(random_boxed_lp(rng))
        digest.update(repr((sol.status, sol.x, sol.duals, sol.objective)).encode())
    assert digest.hexdigest() == PIVOT_PATH_DIGEST


def _unique_optimum(lp: LinearProgram, sol) -> bool:
    """True when the vertex sol.x is nondegenerate (exactly n active
    constraints) and every active inequality or bound has a nonzero
    multiplier.  Complementary slackness then keeps all of them active at
    any optimum, so sol.x is the only optimal point and sol.duals the only
    optimal multipliers: a second solve must return the same pair."""
    x, y = sol.x, sol.duals
    active = 0
    for i, (_, rel, rhs) in enumerate(lp.rows):
        if rel == "==":
            active += 1
        elif row_activity(lp, x, i) == rhs:
            if y[i] == 0:
                return False
            active += 1
    for j in range(lp.n_vars):
        z = lp.obj[j] - sum((y[i] * coeffs.get(j, 0) for i, (coeffs, _, _) in enumerate(lp.rows)), Fraction(0))
        for bound in (lp.lo[j], lp.hi[j]):
            if bound is not None and x[j] == bound:
                if z == 0:
                    return False
                active += 1
    return active == lp.n_vars


_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
_positive = st.builds(Fraction, st.integers(1, 24), st.integers(1, 9))
_var = st.tuples(_rationals, st.builds(Fraction, st.integers(-9, 3), st.integers(1, 5)), _positive)
_row = st.tuples(
    st.dictionaries(st.integers(0, 2), _rationals, max_size=3),
    st.sampled_from(["<=", ">=", "=="]),
    _rationals,
)
_col = st.tuples(_rationals, st.dictionaries(st.integers(0, 3), _rationals, min_size=1, max_size=4), _positive)


@settings(max_examples=150, deadline=None)
@given(
    sense=st.sampled_from(["max", "min"]),
    variables=st.lists(_var, min_size=1, max_size=3),
    rows=st.lists(_row, min_size=1, max_size=4),
    columns=st.lists(_col, min_size=1, max_size=4),
)
def test_warm_column_adds_with_fractional_data_match_cold_solves(sense, variables, rows, columns):
    # fractional entries in an added column make absorb_column rescale rows
    # to a larger denominator; every warm solve must agree with a cold one
    lp = LinearProgram(sense)
    for obj, lo, span in variables:
        lp.add_variable(objective=obj, lo=lo, hi=lo + span)
    for coeffs, rel, rhs in rows:
        lp.add_row({v % lp.n_vars: c for v, c in coeffs.items()}, rel, rhs)
    solve(lp)
    for obj, entries, hi in columns:
        lp.add_column(obj, {r % lp.n_rows: c for r, c in entries.items()}, lo=0, hi=hi)
        warm = solve(lp)
        cold = solve(rebuilt(lp))
        assert warm.status == cold.status
        if cold.status != "optimal":
            continue
        assert warm.objective == cold.objective
        check_certificates(lp, warm)
        check_certificates(lp, cold)
        if _unique_optimum(lp, cold):
            assert warm.x == cold.x
            assert warm.duals == cold.duals


# -- warm row absorption ----------------------------------------------------------


def _random_row(rng, n_vars, rel):
    coeffs = {j: Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for j in range(n_vars) if rng.random() < 0.7}
    coeffs = {j: c for j, c in coeffs.items() if c} or {rng.randrange(n_vars): Fraction(1)}
    return coeffs, rel, Fraction(rng.randint(-8, 8), rng.randint(1, 2))


def _check_against_cold_and_oracle(lp, warm):
    # the vertex oracle needs every variable boxed
    cold = solve(rebuilt(lp))
    assert (warm.status, warm.objective) == (cold.status, cold.objective)
    if None not in lp.hi:
        assert (warm.status, warm.objective) == vertex_optimum(lp)
    if cold.optimal:
        check_certificates(lp, warm)
        if _unique_optimum(lp, cold):
            assert (warm.x, warm.duals) == (cold.x, cold.duals)


def test_warm_rows_match_cold_solves_and_the_vertex_oracle():
    # solve, then add one to three rows of mixed relations, some satisfied
    # by the current optimum and some violated, and solve again, warm
    rng = random.Random(20261019)
    seen = {"satisfied": 0, "violated": 0, "<=": 0, ">=": 0, "==": 0, "infeasible": 0, "optimal": 0}
    for _ in range(150):
        lp = random_boxed_lp(rng, max_vars=3, max_rows=3)
        sol = solve(lp)
        if not sol.optimal:
            continue
        for _ in range(rng.randint(1, 3)):
            coeffs, rel, rhs = _random_row(rng, lp.n_vars, rng.choice(["<=", ">=", "=="]))
            act = sum((c * sol.x[v] for v, c in coeffs.items()), Fraction(0))
            ok = {"<=": act <= rhs, ">=": act >= rhs, "==": act == rhs}[rel]
            seen["satisfied" if ok else "violated"] += 1
            seen[rel] += 1
            lp.add_row(coeffs, rel, rhs)
        warm = solve(lp)
        seen[warm.status] += 1
        _check_against_cold_and_oracle(lp, warm)
    assert min(seen.values()) >= 10, seen


def test_rows_and_columns_interleave_warm():
    # rows added while columns are pending, columns added after a row (with
    # entries in it, absorbed or still pending), and several solves in a row
    rng = random.Random(77)
    steps = {"row": 0, "column": 0, "row then column": 0, "column then row": 0}
    for _ in range(40):
        lp = random_boxed_lp(rng, max_vars=2, max_rows=2)
        if not solve(lp).optimal:
            continue
        for _ in range(3):
            step = rng.choice(list(steps))
            steps[step] += 1
            for kind in step.split(" then "):
                if kind == "row":
                    lp.add_row(*_random_row(rng, lp.n_vars, rng.choice(["<=", ">=", "=="])))
                else:
                    entries = {r: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for r in range(lp.n_rows)
                               if rng.random() < 0.6}
                    lp.add_column(Fraction(rng.randint(-3, 3)), entries, lo=0, hi=Fraction(rng.randint(1, 4)))
            warm = solve(lp)
            _check_against_cold_and_oracle(lp, warm)
            if not warm.optimal:
                break
    assert min(steps.values()) >= 10, steps


def test_violated_row_moves_the_optimum_and_its_dual_binds():
    # max x + y, x + y <= 4, boxes [0, 3]: then cut with x <= 1
    lp = LinearProgram("max")
    x = lp.add_variable(objective=2, lo=0, hi=3)
    y = lp.add_variable(objective=1, lo=0, hi=3)
    lp.add_row({x: 1, y: 1}, "<=", 4)
    assert solve(lp).x == (Fraction(3), Fraction(1))
    lp.add_row({x: 1}, "<=", 1)
    sol = solve(lp)
    assert sol.x == (Fraction(1), Fraction(3))
    assert sol.objective == 5
    assert sol.duals == (Fraction(0), Fraction(2))
    check_certificates(lp, sol)


def test_satisfied_row_keeps_the_basis():
    lp = LinearProgram("min")
    x = lp.add_variable(objective=1, lo=0, hi=5)
    lp.add_row({x: 1}, ">=", 2)
    first = solve(lp)
    lp.add_row({x: 1}, "<=", 4)
    second = solve(lp)
    assert second.x == first.x and second.objective == first.objective
    assert second.duals == (Fraction(1), Fraction(0))


def test_row_that_empties_the_program_reports_infeasible():
    lp = LinearProgram("max")
    x = lp.add_variable(objective=1, lo=0, hi=3)
    lp.add_row({x: 1}, ">=", 2)
    assert solve(lp).objective == 3
    lp.add_row({x: 1}, "==", Fraction(1, 2))
    assert solve(lp).status == "infeasible"
    assert lp._tableau is None  # the next solve starts cold


# -- variables added after a solve ---------------------------------------------------


def test_variable_added_after_a_solve_gets_its_own_column():
    # y's coefficient in the new row must land on y, not on the slack of row 0
    lp = LinearProgram("max")
    x = lp.add_variable(1, hi=1)
    lp.add_row({x: 1}, "<=", 5)
    solve(lp)
    tableau = lp._tableau
    y = lp.add_variable(1, hi=2)
    lp.add_row({y: 1}, "<=", 1)
    warm = solve(lp)
    assert lp._tableau is tableau  # resumed, not rebuilt
    assert warm == LpSolution("optimal", (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)), Fraction(2))
    assert warm == solve(rebuilt(lp))
    assert vertex_optimum(lp) == ("optimal", 2)


def test_variable_with_no_upper_bound_added_after_a_solve():
    # max 2x + y, x <= 2, then y >= 0 unbounded above with x + y <= 3
    lp = LinearProgram("max")
    x = lp.add_variable(2, hi=3)
    lp.add_row({x: 1}, "<=", 2)
    assert solve(lp).objective == 4
    y = lp.add_variable(1)
    lp.add_row({x: 1, y: 1}, "<=", 3)
    warm = solve(lp)
    assert warm == LpSolution("optimal", (Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)), Fraction(5))
    assert warm == solve(rebuilt(lp))


def test_variable_with_a_nonzero_lower_bound_rebuilds_the_tableau():
    # max x - 2z, x <= 3, then z in [1, 3] with x - z <= 1: optimum x = 2, z = 1
    lp = LinearProgram("max")
    x = lp.add_variable(1, hi=4)
    lp.add_row({x: 1}, "<=", 3)
    solve(lp)
    tableau = lp._tableau
    z = lp.add_variable(-2, lo=1, hi=3)
    lp.add_row({x: 1, z: -1}, "<=", 1)
    warm = solve(lp)
    assert lp._tableau is not tableau
    assert warm == LpSolution("optimal", (Fraction(2), Fraction(1)), (Fraction(0), Fraction(1)), Fraction(0))
    assert warm == solve(rebuilt(lp))
    assert vertex_optimum(lp) == ("optimal", 0)


_new_var = st.tuples(
    _rationals,
    st.sampled_from([0, 0, Fraction(-3, 2), 2]),
    st.one_of(st.none(), _positive),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    sense=st.sampled_from(["max", "min"]),
    variables=st.lists(_var, min_size=1, max_size=2),
    rows=st.lists(_row, min_size=1, max_size=2),
    new_vars=st.lists(_new_var, min_size=1, max_size=2),
    new_rows=st.lists(_row, min_size=1, max_size=2),
)
def test_variables_added_after_a_solve_match_rebuilt_solves(sense, variables, rows, new_vars, new_rows):
    # new rows name old and new variables alike; a new nonzero lower bound
    # rebuilds the tableau, anything else resumes from the last basis
    lp = LinearProgram(sense)
    for obj, lo, span in variables:
        lp.add_variable(objective=obj, lo=lo, hi=lo + span)
    for coeffs, rel, rhs in rows:
        lp.add_row({v % lp.n_vars: c for v, c in coeffs.items()}, rel, rhs)
    if not solve(lp).optimal:
        return
    tableau = lp._tableau
    for obj, lo, span in new_vars:
        lp.add_variable(objective=obj, lo=lo, hi=None if span is None else lo + span)
    for coeffs, rel, rhs in new_rows:
        lp.add_row({(v + len(variables)) % lp.n_vars: c for v, c in coeffs.items()}, rel, rhs)
    warm = solve(lp)
    if warm.optimal:
        assert (lp._tableau is tableau) == all(lo == 0 for _, lo, _ in new_vars)
    _check_against_cold_and_oracle(lp, warm)


# -- bound moves on fractional bounds, and dropped artificials ----------------------


def _record_bound_moves(monkeypatch) -> Counter:
    """Count the tableau's bound moves as they happen: a bound flip (a shift
    outside a pivot), a pivot whose leaving variable goes to a fractional
    upper bound (a shift of a basic column with a denominator above 1), and
    a row absorbed while one of its structurals sits at its upper bound."""
    seen: Counter = Counter()
    tableau = simplex._Tableau
    shift, pivot, absorb_row = tableau._shift, tableau._pivot, tableau.absorb_row
    pivoting = []

    def record_shift(self, col, qn, qd):
        if not pivoting:
            seen["bound flip"] += 1
        elif self.status[col] == BASIC and qd > 1:
            seen["leaves to a fractional upper bound"] += 1
        return shift(self, col, qn, qd)

    def record_pivot(self, *args):
        pivoting.append(True)
        try:
            return pivot(self, *args)
        finally:
            pivoting.pop()

    def record_absorb_row(self, lp, i):
        if any(self.status[v] == UPPER for v in lp.rows[i][0]):
            seen["row absorbed at an upper bound"] += 1
        return absorb_row(self, lp, i)

    monkeypatch.setattr(tableau, "_shift", record_shift)
    monkeypatch.setattr(tableau, "_pivot", record_pivot)
    monkeypatch.setattr(tableau, "absorb_row", record_absorb_row)
    return seen


def test_warm_rows_on_fractional_bounds_match_cold_solves_and_the_vertex_oracle(monkeypatch):
    # fractional bound spans make a bound move rescale the rows it touches
    seen = _record_bound_moves(monkeypatch)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        sense=st.sampled_from(["max", "min"]),
        variables=st.lists(_var, min_size=1, max_size=3),
        rows=st.lists(_row, max_size=3),
        added=st.lists(_row, min_size=1, max_size=3),
    )
    def check(sense, variables, rows, added):
        lp = LinearProgram(sense)
        for obj, lo, span in variables:
            lp.add_variable(objective=obj, lo=lo, hi=lo + span)
        for coeffs, rel, rhs in rows:
            lp.add_row({v % lp.n_vars: c for v, c in coeffs.items()}, rel, rhs)
        if not solve(lp).optimal:
            return
        for coeffs, rel, rhs in added:
            lp.add_row({v % lp.n_vars: c for v, c in coeffs.items()}, rel, rhs)
        _check_against_cold_and_oracle(lp, solve(lp))

    check()
    kinds = ("bound flip", "leaves to a fractional upper bound", "row absorbed at an upper bound")
    assert all(seen[kind] for kind in kinds), seen


def test_warm_solve_keeps_no_dead_artificial_column():
    # every violated >= row brings an artificial; once phase 1 or a pivot has
    # fixed it nonbasic its column is gone, and only basic ones may stay
    rng = random.Random(20261020)
    violated = 0
    for _ in range(80):
        lp = random_boxed_lp(rng, max_vars=3, max_rows=3)
        sol = solve(lp)
        if not sol.optimal:
            continue
        for _ in range(rng.randint(1, 3)):
            coeffs, rel, rhs = _random_row(rng, lp.n_vars, ">=")
            violated += sum((c * sol.x[v] for v, c in coeffs.items()), Fraction(0)) < rhs
            lp.add_row(coeffs, rel, rhs)
        warm = solve(lp)
        _check_against_cold_and_oracle(lp, warm)
        if not warm.optimal:
            continue
        tab = lp._tableau
        witnesses = {col for col, _ in tab.witness}
        extra = [j for j in range(lp.n_vars, tab.ncols) if j not in witnesses]
        assert all(tab.status[j] == BASIC for j in extra)
        assert tab.ncols == lp.n_vars + lp.n_rows + len(extra)
    assert violated >= 30, violated
