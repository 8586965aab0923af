"""Decomposer: Hensel lifting, ball-tree output shapes, exhaustive verification."""

import json
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicells import cli, decompose, padic, polys
from padicells.cells import (
    BoundZeroError,
    Cell,
    CellCondition,
    _bound_valuation,
    coset_of,
    pin_bound_residues,
    point_cell,
    punctured_ball_cell,
    stage_center,
    stage_window,
    zp_cell,
)
from padicells.decompose import (
    HenselConditionError,
    HenselRoot,
    PrecisionExhausted,
    PreparedTerm,
    VerifyReport,
    _ball_hull,
    _SPLIT,
    _BallWalk,
    _center_value,
    _factor_over_q,
    _read_term,
    _TrackedRoot,
    _zp_root_seeds,
    decompose_univariate,
    hensel_lift,
    prepared_to_json,
    verify_prepared,
)
from padicells.expr import (
    Const,
    ConstructibleExpr,
    EvaluationPrecisionError,
    RestrictedSeries,
    eval_dterm,
)
from padicells.integrate import (
    eliminate_last_variable,
    group_prepared,
    igusa_zeta,
    poincare_check,
    prepared_power,
    root_counts,
)
from padicells.padic import (
    INF,
    PAdicScalar,
    Prime,
    in_coset,
    int_valuation,
    rational_valuation,
)

P2, P3, P5 = Prime(2), Prime(3), Prime(5)
PRIMES = {2: P2, 3: P3, 5: P5}


def poly(*coeffs):
    return polys.poly_from(coeffs)


# ---------------------------------------------------------------------------
# reference verifier: the per-residue loop verify_prepared ran before it
# read each cell once, kept verbatim with the stage-by-stage membership
# test it called. It runs exact membership for every residue against every
# cell, so verify_prepared must return the same report wherever it runs.

def reference_membership(A, point):
    """Exact membership of a point, stage by stage."""
    if len(point) != A.arity:
        raise ValueError(f"point has {len(point)} coordinates, cell has {A.arity}")
    p = A.prime
    for i, cond in enumerate(A.conditions):
        base = point[:i]
        center, err = eval_dterm(cond.center, base, p)
        if err != INF:
            raise EvaluationPrecisionError("center not determined at this precision")
        diff = point[i] - center
        k = diff.valuation
        if not in_coset(diff, cond.coset):
            return False
        if cond.lower is not None:
            v = _bound_valuation(cond.lower, base, p)
            limit = v - 1 if cond.lower_strict else v
            if not k <= limit:
                return False
            if cond.lower_val_residue is not None and v % cond.coset.n != cond.lower_val_residue:
                return False
        if cond.upper is not None:
            v = _bound_valuation(cond.upper, base, p)
            limit = v + 1 if cond.upper_strict else v
            if not k >= limit:
                return False
            if cond.upper_val_residue is not None and v % cond.coset.n != cond.upper_val_residue:
                return False
    return True


def _reference_prepared_valuation(term, k):
    """v of the prepared description at v(t-gamma) = k; None if not integral."""
    cond = term.cell.conditions[-1]
    delta = term.delta.constant_value()
    if delta == 0:
        return INF
    vd = rational_valuation(delta, cond.prime.p)
    if term.a == 0:
        return F(vd)
    vmu = cond.coset.mu.valuation
    e = F(term.a * (k - vmu), cond.coset.n)
    if e.denominator != 1:
        return None
    return vd + e


def reference_verify(terms, f, p, N, domain=None):
    fi, fscale = polys.integerize(f)
    vscale = rational_valuation(fscale, p.p)
    var_min = min((rational_valuation(c, p.p) for c in f[1:] if c), default=0)
    hull = _ball_hull(domain, p) if domain is not None else None
    counterexamples = []
    checks = 0
    pN = p.p**N

    def note(msg):
        if len(counterexamples) < 5:
            counterexamples.append(msg)

    for r in range(pN):
        point = [PAdicScalar(F(r), p)]
        members = [
            i for i, term in enumerate(terms) if reference_membership(term.cell, point)
        ]
        in_hull = hull is None or rational_valuation(
            F(r) - hull[0], p.p
        ) >= hull[1]
        if len(members) > 1:
            note(f"lift {r} lies in {len(members)} cells")
            continue
        if not members:
            if in_hull and terms:
                note(f"lift {r} is in the domain but in no cell")
            continue
        if not in_hull:
            note(f"lift {r} is outside the domain but in a cell")
            continue
        term = terms[members[0]]
        cond = term.cell.conditions[-1]
        gamma = _center_value(cond)
        vf = (
            int_valuation(polys.evaluate_int(fi, r), p.p) + vscale
            if polys.evaluate_int(fi, r)
            else INF
        )
        if cond.coset.is_zero():
            # the lift IS the center: compare exactly at the point
            checks += 1
            delta = term.delta.constant_value()
            vd = INF if delta == 0 else rational_valuation(delta, p.p)
            if vf != vd:
                note(f"point cell at {gamma}: v(f) = {vf}, prepared {vd}")
            continue
        k = rational_valuation(F(r) - gamma, p.p)
        if k >= N or not vf < N + var_min:
            continue  # class does not determine both sides
        want = _reference_prepared_valuation(term, k)
        checks += 1
        if want is None:
            note(f"lift {r}: prepared exponent not integral at k = {k}")
        elif vf != want:
            note(f"lift {r}: v(f) = {vf}, prepared description gives {want}")
    return VerifyReport(not counterexamples, pN, checks, tuple(counterexamples))


def reference_read_term(term, p, N):
    """The lifts r mod p^N a term's cell holds, with their levels
    k = v(r - center), as _read_term found them before it listed each
    cell's members: every lift is tested against the cell in integers."""
    cond = term.cell.conditions[0]
    center = stage_center(cond, []).value
    window = stage_window(cond, [])
    a, b = center.numerator, center.denominator
    vb = int_valuation(b, p.p)
    coset = cond.coset
    trivial = coset.is_zero() or coset.n == 1
    lifts = {}
    for r in range(p.p**N):
        x = r * b - a
        k = int_valuation(x, p.p) - vb if x else INF
        if window.k_min <= k <= window.k_max and (
            (x == 0) == coset.is_zero()
            if trivial
            else in_coset(PAdicScalar(F(x, b), p), coset)
        ):
            lifts[r] = k
    return lifts


def read_like_reference(terms, p, N):
    """_read_term of each term against the scanning reference's lifts, on
    every ball c + p^d Z_p with d <= N: a level means the cell holds every
    residue of the ball at that level, None that it holds none of them,
    and _SPLIT is allowed only at d < N, where a ball has many residues."""
    for term in terms:
        lifts = reference_read_term(term, p, N)
        reading = _read_term(term, p, N)
        for d in range(N + 1):
            for c in range(p.p**d):
                got = reading.on_ball(c, d)
                ball = range(c, p.p**N, p.p**d)
                if got is _SPLIT:
                    assert d < N, (term, c)
                elif got is None:
                    assert not any(r in lifts for r in ball), (term, c, d)
                else:
                    assert all(lifts.get(r) == got for r in ball), (term, c, d, got)


def verified(terms, f, p, N, domain=None):
    """verify_prepared's report, checked equal to the reference's, with
    each term read on every ball as the scanning reference reads it."""
    report = verify_prepared(terms, f, p, N, domain)
    assert report == reference_verify(terms, f, p, N, domain)
    read_like_reference(terms, p, N)
    return report


# ---------------------------------------------------------------------------
# hensel_lift

def test_lift_exact_root():
    r = hensel_lift(poly(-1, 0, 1), P3, 1, 6)
    assert (r.approx - 1) % 3**6 == 0


def test_lift_sqrt_minus_one():
    r = hensel_lift(poly(1, 0, 1), P5, 2, 4)
    assert r.approx == 182  # 182^2 + 1 = 5^4 * 53
    assert (r.approx**2 + 1) % 5**4 == 0
    assert r.approx % 5 == 2


def test_lift_rejects_weak_seed():
    for seed in range(3):
        with pytest.raises(HenselConditionError, match="Hensel condition fails"):
            hensel_lift(poly(-3, 0, 1), P3, seed, 6)


def test_lift_class_is_stable_under_refinement():
    a = hensel_lift(poly(1, 0, 1), P5, 2, 4)
    b = hensel_lift(poly(1, 0, 1), P5, 2, 8)
    assert (a.approx - b.approx) % 5**4 == 0
    assert rational_valuation(polys.evaluate(poly(1, 0, 1), b.approx), 5) >= 8


def test_lift_multiple_root_rejected():
    with pytest.raises(HenselConditionError):
        hensel_lift(poly(0, 0, 1), P3, 0, 4)


def test_lift_refuses_f_outside_zp():
    # (t^2 + 10t - 10)/7 at p = 7: the seed passes the Hensel check with
    # v(f(0)) = -1 > 2*v(f'(0)) = -2, but no Newton step gains a digit,
    # so the lift over Fractions never returned
    with pytest.raises(ValueError, match="needs f in Z_p"):
        hensel_lift((F(-10, 7), F(10, 7), F(1, 7)), Prime(7), 0, 1)
    with pytest.raises(ValueError, match="a seed in Z_p"):
        hensel_lift(poly(1, 0, 1), P5, F(2, 5), 4)


# ---------------------------------------------------------------------------
# decompose_univariate

def test_monomial_t():
    terms = decompose_univariate(poly(0, 1), P3, None, 6)
    assert len(terms) == 2
    ball, point = terms
    assert (ball.a, ball.l) == (1, 0)
    assert not ball.cell.conditions[0].coset.is_zero()
    assert point.cell.conditions[0].coset.is_zero()
    assert point.delta == ConstructibleExpr.zero()


def test_monomial_t_squared():
    terms = decompose_univariate(poly(0, 0, 1), P3, None, 6)
    assert [t.a for t in terms] == [2, 0]
    report = verified(terms, poly(0, 0, 1), P3, 6, zp_cell(P3))
    assert report.passed, report.counterexamples


def test_two_simple_roots():
    f = poly(-1, 0, 1)
    terms = decompose_univariate(f, P3, None, 6)
    assert sorted(t.a for t in terms) == [0, 0, 0, 0, 1, 1]
    report = verified(terms, f, P3, 6, zp_cell(P3))
    assert report.passed, report.counterexamples
    # roots are exact rationals here, so no approximation floors
    assert all(t.center_floor is None for t in terms)


def test_rootless_factor_gives_constant_cells():
    f = poly(-3, 0, 1)  # no root in Z_3
    terms = decompose_univariate(f, P3, None, 6)
    assert all(t.a == 0 for t in terms)
    report = verified(terms, f, P3, 6, zp_cell(P3))
    assert report.passed, report.counterexamples


def test_irrational_root_gets_certified_center():
    f = poly(1, 0, 1)  # t^2 + 1, roots +-sqrt(-1) in Z_5
    terms = decompose_univariate(f, P5, None, 4)
    lifted = [t for t in terms if t.a == 1 and not t.cell.conditions[0].coset.is_zero()]
    assert len(lifted) == 2
    for t in lifted:
        gamma = t.cell.conditions[0].center.value
        assert t.center_floor is not None and t.center_floor >= 6
        assert rational_valuation(gamma**2 + 1, 5) >= 8
    report = verified(terms, f, P5, 4, zp_cell(P5))
    assert report.passed, report.counterexamples


def test_multiplicity_sum_bounded_by_degree():
    f = polys.mul(polys.mul(poly(-1, 1), poly(-1, 1)), poly(2, 1))
    terms = decompose_univariate(f, P3, None, 5)
    mults = [t.a for t in terms if t.a > 0]
    assert sorted(mults) == [1, 2]
    assert sum(mults) <= polys.degree(f)
    report = verified(terms, f, P3, 5, zp_cell(P3))
    assert report.passed, report.counterexamples


def test_close_roots_need_depth():
    f = polys.mul(poly(-1, 1), poly(-1 - 3**9, 1))
    with pytest.raises(PrecisionExhausted, match="precision exhausted"):
        decompose_univariate(f, P3, None, 6)
    terms = decompose_univariate(f, P3, None, 12)
    report = verified(terms, f, P3, 6, zp_cell(P3))
    assert report.passed, report.counterexamples


def test_sub_ball_domain():
    dom = punctured_ball_cell(P3, 0, 1)
    terms = decompose_univariate(poly(0, 1), P3, dom, 5)
    assert terms[0].a == 1
    assert terms[0].cell.conditions[0].upper.value == 3
    report = verified(terms, poly(0, 1), P3, 4, dom)
    assert report.passed, report.counterexamples


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        decompose_univariate((), P3, None, 4)


def test_constant_polynomial():
    terms = decompose_univariate(poly(6), P3, None, 4)
    report = verified(terms, poly(6), P3, 4, zp_cell(P3))
    assert report.passed
    assert all(t.a == 0 for t in terms)


# ---------------------------------------------------------------------------
# verify_prepared as a failure detector

def test_verify_catches_wrong_exponent():
    f = poly(0, 0, 1)
    good = decompose_univariate(f, P3, None, 6)
    bad = [
        PreparedTerm(t.delta, 1 if t.a == 2 else t.a, t.l, t.cell, t.center_floor)
        for t in good
    ]
    report = verified(bad, f, P3, 6, zp_cell(P3))
    assert not report.passed
    assert any("prepared" in c for c in report.counterexamples)


def test_verify_catches_fractional_exponent():
    # |t|^(1/2) on the punctured ball of x: v = k/2, not an integer at odd k
    f = poly(0, 1)
    bad = [replace(t, a=F(1, 2)) if t.a else t for t in decompose_univariate(f, P3, None, 6)]
    report = verified(bad, f, P3, 3, zp_cell(P3))
    assert report.counterexamples[0] == "lift 3: prepared exponent not integral at k = 1"


def test_verify_catches_overlap():
    f = poly(0, 1)
    terms = decompose_univariate(f, P3, None, 6)
    report = verified(terms + terms, f, P3, 3, zp_cell(P3))
    assert not report.passed
    assert any("cells" in c for c in report.counterexamples)


def test_verify_catches_coverage_gap():
    f = poly(-1, 0, 1)
    terms = decompose_univariate(f, P3, None, 6)
    report = verified(terms[2:], f, P3, 3, zp_cell(P3))
    assert not report.passed


def test_verify_vacuous_on_empty():
    report = verified([], poly(1), P3, 2)
    assert report.passed
    assert report.equality_checks == 0


# ---------------------------------------------------------------------------
# serialization

def test_prepared_json_shape():
    terms = decompose_univariate(poly(0, 1), P3, None, 4)
    data = prepared_to_json(terms)
    assert set(data) == {"cells", "terms"}
    assert len(data["cells"]) == len(data["terms"]) == 2
    first = data["terms"][0]
    assert first == {"delta": "1", "a": 1, "l": 0, "gamma": "0", "mu": "1", "n": 1}
    assert data["terms"][1]["mu"] == "0"


def test_random_products_verify():
    # small deterministic corpus of factorable shapes
    import random

    rng = random.Random(7)
    for trial in range(6):
        p = (P2, P3, P5)[trial % 3]
        fs = []
        for _ in range(2):
            deg = rng.randint(1, 2)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
            fs.append(poly(*coeffs))
        f = polys.mul(fs[0], fs[1])
        terms = decompose_univariate(f, p, None, 5)
        report = verified(terms, f, p, 5, zp_cell(p))
        assert report.passed, (f, p.p, report.counterexamples)


@pytest.mark.parametrize("f", [poly(-17, 0, 1), poly(7, 0, 1)])
def test_conjugate_roots_in_one_class_at_p2(f):
    # both square roots of 17 (resp. -7) in Z_2 lie in the class 1 + 2Z_2,
    # where v(f(1)) = 4 > 2 v(f'(1)) = 2 already holds; a seed there would
    # stand for one root only, since the roots separate mod 2^2
    terms = decompose_univariate(f, P2, None, 8)
    report = verified(terms, f, P2, 10, zp_cell(P2))
    assert report.passed, report.counterexamples
    cis = group_prepared(prepared_power(terms, 1))
    res = eliminate_last_variable(cis, base_point=[])
    assert res.value.constant_value() == F(13, 24)
    assert poincare_check(f, P2, 8).passed


# ---------------------------------------------------------------------------
# verify_prepared against the reference verifier

def _shift_center(term, shift):
    cond = term.cell.conditions[0]
    moved = replace(cond, center=Const(cond.center.value + shift))
    return replace(term, cell=Cell((moved,)))


def _corruptions(terms, p):
    """Term lists a decomposer bug could produce, one corruption each."""
    yield terms + terms[:1]
    for i, t in enumerate(terms):
        rest = terms[:i], terms[i + 1:]
        yield rest[0] + rest[1]
        for shift in (1, p.p, F(1, p.p)):
            yield rest[0] + [_shift_center(t, shift)] + rest[1]
        for delta in (t.delta.scale(p.p), t.delta + ConstructibleExpr.const(1)):
            yield rest[0] + [replace(t, delta=delta)] + rest[1]
        yield rest[0] + [replace(t, a=t.a + 1)] + rest[1]


@pytest.mark.parametrize("f, p, N", [
    (poly(-1, 0, 1), P3, 3),
    (poly(0, 0, 1), P2, 5),
    (poly(1, 0, 1), P5, 2),
    (polys.mul(poly(-1, 1), poly(3, 0, 1)), P3, 3),
])
def test_corrupted_terms_match_reference(f, p, N):
    terms = decompose_univariate(f, p, None, 6)
    assert verified(terms, f, p, N, zp_cell(p)).passed
    reports = [verified(bad, f, p, N, zp_cell(p)) for bad in _corruptions(terms, p)]
    # some corruptions do not show at depth N (a changed exponent on a
    # point cell, a cell deeper than p^-N), but most do
    assert 2 * sum(not r.passed for r in reports) > len(reports)


def _term(cond, delta=1, a=0):
    return PreparedTerm(ConstructibleExpr.const(delta), a, 0, Cell((cond,)))


def _hand_made_terms(p):
    """Cosets with n > 1, residue pins, strict and non-strict bounds, and
    centers with p in the denominator or a unit one."""
    annulus = CellCondition(
        center=Const(F(1)), coset=coset_of(p, p.p, 2),
        lower=Const(F(p.p) ** 4), upper=Const(F(1)), upper_strict=True,
    )
    terms = [_term(c.conditions[0], p.p, 2) for c in pin_bound_residues(Cell((annulus,)))]
    terms.append(_term(CellCondition(
        center=Const(F(1, p.p)), coset=coset_of(p, F(1, p.p), 1),
        upper=Const(F(1, p.p)), upper_strict=False,
    ), 3, 1))
    terms.append(_term(CellCondition(
        center=Const(F(2, 7)), coset=coset_of(p, 3, 3),
        lower=Const(F(p.p) ** 3), lower_strict=False, lower_val_residue=0,
    ), F(1, p.p), 3))
    terms.append(_term(CellCondition(center=Const(F(5)), coset=coset_of(p, 0, 1)), 0))
    terms.append(_term(CellCondition(
        center=Const(F(-3)), coset=coset_of(p, -1, 4),
        upper=Const(F(p.p)), upper_strict=True, upper_val_residue=1,
    ), 2, 1))
    return terms


@pytest.mark.parametrize("p, N", [(P2, 6), (P3, 4), (P5, 3)])
def test_hand_made_cells_match_reference(p, N):
    terms = _hand_made_terms(p)
    for f in (poly(1), poly(-1, 1), poly(0, 0, 1), poly(2, -1, 0, 1)):
        for domain in (None, zp_cell(p), punctured_ball_cell(p, 1, 1)):
            verified(terms, f, p, N, domain)
            for i in range(len(terms)):
                verified(terms[i:i + 1], f, p, N, domain)


def _edge_terms(p):
    """Windows a residue pin empties, centers with p in the denominator on
    and off the coset's level grid, zero cosets that hold no lift, and a
    window reaching below level 0."""
    return [
        _term(CellCondition(
            center=Const(F(0)), coset=coset_of(p, 1, 2),
            upper=Const(F(p.p)), upper_strict=False, upper_val_residue=0,
        )),
        _term(CellCondition(
            center=Const(F(2, p.p)), coset=coset_of(p, F(1, p.p), 2),
            upper=Const(F(p.p) ** -3), upper_strict=False,
        ), 1, 2),
        _term(CellCondition(center=Const(F(1, p.p**2)), coset=coset_of(p, 1, 2))),
        _term(CellCondition(
            center=Const(F(1, p.p)), coset=coset_of(p, 1, 1), upper=Const(F(1)),
        )),
        _term(CellCondition(center=Const(F(1, 7)), coset=coset_of(p, 0, 1))),
        _term(CellCondition(center=Const(F(10**6)), coset=coset_of(p, 0, 1))),
        _term(CellCondition(
            center=Const(F(1)), coset=coset_of(p, 0, 1), lower=Const(F(1)),
        )),
        _term(CellCondition(
            center=Const(F(-4, 11)), coset=coset_of(p, 2, 3),
            upper=Const(F(p.p) ** -3), upper_strict=True,
        ), 2, 1),
    ]


TOP_DEPTH = {2: 7, 3: 4, 5: 3}


@pytest.mark.parametrize("p", [P2, P3, P5])
def test_read_term_lists_the_scanned_members(p):
    terms = _hand_made_terms(p) + _edge_terms(p)
    for N in range(1, TOP_DEPTH[p.p] + 1):
        read_like_reference(terms, p, N)


def test_verify_work_is_linear_in_lifts_and_cells(monkeypatch):
    # the scan made cells * p^N valuations; listing members makes one per
    # lift in the main loop and at most two per cell
    p, N = P3, 7
    f = polys.mul(polys.mul(poly(0, 1), poly(-1, 1)), polys.mul(poly(-3, 1), poly(2, 0, 1)))
    terms = decompose_univariate(f, p, None, 8)
    assert len(terms) >= 8
    calls = 0
    real = decompose.int_valuation

    def counted(n, q):
        nonlocal calls
        calls += 1
        return real(n, q)

    monkeypatch.setattr(decompose, "int_valuation", counted)
    assert verify_prepared(terms, f, p, N, zp_cell(p)).passed
    assert calls <= 2 * p.p**N + 2 * len(terms)


def _count_balls(monkeypatch):
    """The (c, d) of every ball verify_prepared visits from now on."""
    visits = []
    real = _BallWalk.visit

    def counted(self, c, d, holders, open_):
        visits.append((c, d))
        return real(self, c, d, holders, open_)

    monkeypatch.setattr(_BallWalk, "visit", counted)
    return visits


@pytest.mark.parametrize("f, p, roots", [
    (poly(-1, 0, 1), P3, 2),
    (poly(6, -5, 1), P5, 2),
])
def test_verify_walks_balls_at_depth_30(monkeypatch, f, p, roots):
    # a scan of the residues would take p^30 steps; only the balls around
    # a cell center or a root split
    N = 30
    terms = decompose_univariate(f, p, None, 8)
    visits = _count_balls(monkeypatch)
    report = verify_prepared(terms, f, p, N, zp_cell(p))
    assert report.passed, report.counterexamples
    assert report.classes_checked == p.p**N
    assert len(visits) <= 4 * (len(terms) + roots) * p.p * N


def test_verify_settles_coset_balls_at_hensel_depth(monkeypatch):
    # the n = 2 annulus of the hand-made cells: a ball at level k settles
    # once d - k reaches the unit digits in_coset reads, 1 at p = 3
    terms = [t for t in _hand_made_terms(P3) if t.cell.conditions[0].coset.n == 2]
    assert terms
    visits = _count_balls(monkeypatch)
    report = verify_prepared(terms, poly(-1, 1), P3, 20, zp_cell(P3))
    assert not report.passed  # the annulus leaves most of Z_3 uncovered
    assert len(visits) < 10**4


@pytest.mark.parametrize("f, p", [(poly(1, 0, 1), P5), (poly(3, 0, 0, 1), P2)])
def test_verify_honours_center_floor(f, p):
    # the centers of these irrational roots are certified down to level
    # center_floor only; at N = 40 lifts reach below it
    terms = decompose_univariate(f, p, None, 8)
    assert any(t.center_floor is not None and t.center_floor < 40 for t in terms)
    assert verify_prepared(terms, f, p, 40, zp_cell(p)).passed
    unfloored = [replace(t, center_floor=None) for t in terms]
    report = verify_prepared(unfloored, f, p, 40, zp_cell(p))
    assert not report.passed
    assert "prepared description gives" in report.counterexamples[0]


def test_sub_ball_domain_off_zero():
    f = poly(-4, 1)
    dom = punctured_ball_cell(P3, 4, 2)
    terms = decompose_univariate(f, P3, dom, 5)
    assert verified(terms, f, P3, 4, dom).passed
    assert not verified(terms, f, P3, 4, zp_cell(P3)).passed
    assert not verified(terms, f, P3, 4, punctured_ball_cell(P3, 1, 1)).passed


@pytest.mark.parametrize("N, center, j", [(1, 4, 2), (1, 0, 2), (2, 4, 3), (1, 1, 3)])
def test_domain_finer_than_the_depth(N, center, j):
    # the hull ball is smaller than a class mod p^N: a lift is in the
    # domain when it is congruent to the hull center mod p^j
    f = poly(-1, 0, 1)
    for terms in (decompose_univariate(f, P3, None, 8), _hand_made_terms(P3)):
        verified(terms, f, P3, N, punctured_ball_cell(P3, center, j))


def test_verifier_errors_match_reference():
    two_stage = PreparedTerm(
        ConstructibleExpr.const(1), 0, 0, Cell(zp_cell(P3).conditions * 2)
    )
    inexact = _term(CellCondition(
        center=RestrictedSeries((F(1),), 2, (Const(F(3)),)), coset=coset_of(P3, 1, 1),
    ))
    zero_bound = _term(CellCondition(
        center=Const(F(0)), coset=coset_of(P3, 1, 1), upper=Const(F(0)),
    ))
    for term, error in (
        (two_stage, ValueError),
        (inexact, EvaluationPrecisionError),
        (zero_bound, BoundZeroError),
    ):
        for verify in (verify_prepared, reference_verify):
            with pytest.raises(error):
                verify([term], poly(0, 1), P3, 2, zp_cell(P3))


@st.composite
def random_cells(draw):
    """A few arbitrary one-variable terms, a polynomial, a depth and a
    domain: most fail verification; the report must still match."""
    p = PRIMES[draw(st.sampled_from(sorted(PRIMES)))]
    N = draw(st.integers(1, TOP_DEPTH[p.p]))
    pw = lambda lo, hi: F(p.p) ** draw(st.integers(lo, hi))  # noqa: E731
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 4))
        point = draw(st.integers(0, 4)) == 0
        mu = 0 if point else draw(st.sampled_from([1, -1, 2, 3])) * pw(-1, 2)
        lower = upper = lower_pin = upper_pin = None
        if draw(st.booleans()):
            lower = Const(draw(st.sampled_from([1, 2, -3])) * pw(-1, 5))
            lower_pin = draw(st.none() | st.integers(0, n - 1))
        if draw(st.booleans()):
            upper = Const(draw(st.sampled_from([1, 2, -3])) * pw(-2, 3))
            upper_pin = draw(st.none() | st.integers(0, n - 1))
        den = draw(st.sampled_from([1, 2, 7, p.p, p.p**2]))
        cond = CellCondition(
            center=Const(F(draw(st.integers(-30, 30)), den)),
            coset=coset_of(p, mu, n),
            lower=lower, upper=upper,
            lower_strict=draw(st.booleans()), upper_strict=draw(st.booleans()),
            lower_val_residue=lower_pin, upper_val_residue=upper_pin,
        )
        delta = draw(st.sampled_from([0, 1, -2, 3])) * pw(-1, 2)
        terms.append(_term(cond, delta, draw(st.integers(0, 3))))
    f = poly(*draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4)))
    assume(not polys.is_zero(f))
    ball = punctured_ball_cell(p, draw(st.integers(0, 8)), draw(st.integers(0, 2)))
    domain = draw(st.sampled_from([None, zp_cell(p), ball]))
    return terms, f, p, N, domain


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(random_cells())
def test_random_cells_match_reference(problem):
    verified(*problem)


@st.composite
def factor_products(draw):
    """A product of one to three linear or quadratic factors over Z."""
    p = PRIMES[draw(st.sampled_from(sorted(PRIMES)))]
    f = poly(draw(st.integers(1, 4)))
    for _ in range(draw(st.integers(1, 3))):
        lead = draw(st.integers(1, 3))
        tail = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=2))
        f = polys.mul(f, poly(*tail, lead))
    return f, p


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(factor_products())
def test_decomposed_products_verify_like_reference(problem):
    f, p = problem
    try:
        terms = decompose_univariate(f, p, None, 8)
    except PrecisionExhausted:
        assume(False)
    N = {2: 6, 3: 4, 5: 3}[p.p]
    report = verified(terms, f, p, N, zp_cell(p))
    assert report.passed, (f, p.p, report.counterexamples)


# ---------------------------------------------------------------------------
# reference factorizer: _factor_over_q as it was when it went through
# sympy's expression layer (Symbol, Add, factor_list, Poly), kept verbatim.
# The dense integer factorizer must give the same factors, multiplicities
# and order.

def reference_factor_over_q(f: polys.PolyQ):
    import sympy  # loaded only where a polynomial is factored: it is slow to import

    t = sympy.Symbol("t")
    expr = sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(f))
    )
    _, factors = sympy.factor_list(expr, t)
    out = []
    for g_expr, exp in factors:
        poly = sympy.Poly(g_expr, t)
        coeffs = [F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
        out.append((polys.poly_from(coeffs), int(exp)))
    out.sort(key=lambda fe: (polys.degree(fe[0]), fe[0]))
    return out


@st.composite
def factor_inputs(draw):
    """Nonzero polynomials over Q of five shapes: rational coefficients
    with denominators (degree <= 6), a power of a product of small
    factors, c*x^m, a constant, and any of them with its sign flipped, so
    the leading coefficient is often negative."""
    shape = draw(st.sampled_from(["rational", "product", "monomial", "constant"]))
    rationals = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9, 25]))
    nonzero = rationals.filter(bool)
    if shape == "rational":
        f = polys.poly_from(
            draw(st.lists(rationals, max_size=6)) + [draw(nonzero)]
        )
    elif shape == "product":
        f = poly(draw(nonzero))
        for _ in range(draw(st.integers(1, 3))):
            g = poly(*draw(st.lists(st.integers(-5, 5), min_size=1, max_size=2)),
                     draw(st.sampled_from([1, -1, 2, 3])))
            f = polys.mul(f, g)
        f = polys.pow_int(f, draw(st.integers(1, 3)))
    elif shape == "monomial":
        f = polys.poly_from([0] * draw(st.integers(1, 6)) + [draw(nonzero)])
    else:
        f = poly(draw(nonzero))
    return polys.neg(f) if draw(st.booleans()) else f


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(factor_inputs())
def test_factor_over_q_matches_reference(f):
    assert decompose._factor_over_q(f) == reference_factor_over_q(f), f



# ---------------------------------------------------------------------------
# reference root finder: _zp_roots as it was before the root test mod p,
# factoring every f, kept verbatim. Skipping the factorizer when f has no
# root mod p must give the same roots, or raise the same error.

def reference_zp_roots(f: polys.PolyQ, p: Prime, lift_N: int) -> list[_TrackedRoot]:
    roots: list[_TrackedRoot] = []
    for g, m in _factor_over_q(f):
        if polys.degree(g) < 1:
            continue
        if polys.degree(g) == 1:
            r = -g[0] / g[1]
            if rational_valuation(r, p.p) < 0:
                continue
            roots.append(_TrackedRoot(HenselRoot(r, lift_N), True, g, m))
            continue
        for seed in _zp_root_seeds(g, p, lift_N):
            lifted = hensel_lift(g, p, seed, lift_N)
            if any(
                not rt.exact
                and rt.factor == g
                and rational_valuation(rt.root.approx - lifted.approx, p.p)
                >= min(rt.root.precision, lift_N)
                for rt in roots
            ):
                continue
            roots.append(_TrackedRoot(lifted, False, g, m))
    roots.sort(key=lambda rt: rt.root.approx)
    return roots


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(factor_inputs(), st.sampled_from([2, 3, 5, 7, 11]), st.sampled_from([3, 24]))
def test_zp_roots_match_reference(f, p, lift_N):
    def outcome(find):
        try:
            return find(f, Prime(p), lift_N)
        except (ArithmeticError, ValueError) as e:
            return type(e), str(e)

    assert outcome(decompose._zp_roots) == outcome(reference_zp_roots), (f, p)


# ---------------------------------------------------------------------------
# reference seeds: _zp_root_seeds as it was when it refined the residue
# classes breadth first, one list per level, kept verbatim. The depth-first
# walk visits the same classes, so it must give the same seeds in another
# order, or raise the same error; and since every seed's root lies in its
# own class, no two seeds of a factor lift to the same root.

def reference_zp_root_seeds(g: polys.PolyQ, p: Prime, depth_cap: int) -> list[int]:
    q = p.p
    G, den = polys.over_common_denominator(g)
    vden = int_valuation(den, q)
    dG = polys.derivative(G)
    seeds: list[int] = []
    level = [(r, 1) for r in range(q)]
    while level:
        nxt = []
        for r, k in level:
            w = rational_valuation(polys.evaluate_int(G, r), q) - vden
            if w < k:
                continue
            e = rational_valuation(polys.evaluate_int(dG, r), q) - vden
            # Hensel's lemma gives one root per class only inside its
            # uniqueness ball: the class must be narrower than |g'(r)|
            if w > 2 * e and k > e:
                seeds.append(r)
                continue
            if k >= depth_cap:
                raise PrecisionExhausted(
                    "precision exhausted: root isolation stalled at depth "
                    f"{k} for a degree-{polys.degree(g)} factor"
                )
            nxt.extend((r + i * q**k, k + 1) for i in range(q))
        level = nxt
    return seeds


@st.composite
def seed_cases(draw):
    """(f, p, depth_cap): f from factor_inputs(), or with roots p-adically
    close: x^2 - p^(2m) c, (x^2 - c)(x^2 - c - p^k), or a cubic with
    rational roots perturbed by p^k."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    shape = draw(st.sampled_from(["factors", "square", "pair", "cubic"]))
    c = draw(st.integers(-12, 12).filter(bool))
    k = draw(st.integers(1, 8))
    if shape == "factors":
        f = draw(factor_inputs())
    elif shape == "square":
        f = poly(-(p ** (2 * draw(st.integers(0, 4)))) * c, 0, 1)
    elif shape == "pair":
        f = polys.mul(poly(-c, 0, 1), poly(-c - p**k, 0, 1))
    else:
        f = poly(1)
        for r in draw(st.lists(st.integers(-9, 9), min_size=3, max_size=3)):
            f = polys.mul(f, poly(-r, 1))
        f = polys.add(f, poly(p**k))
    return f, p, draw(st.sampled_from([3, 24]))


@settings(max_examples=160, derandomize=True, deadline=None, database=None)
@given(seed_cases())
def test_zp_root_seeds_match_reference(case):
    f, p, depth_cap = case
    prime = Prime(p)

    def outcome(seeds, g):
        try:
            return sorted(seeds(g, prime, depth_cap))
        except PrecisionExhausted as e:
            return str(e)

    # the irreducible factors of f, as _zp_roots seeds them: a repeated
    # root would leave about p^(k/2) classes open at depth k
    for g in (g for g, _ in _factor_over_q(f) if polys.degree(g) >= 1):
        seeds = outcome(_zp_root_seeds, g)
        assert seeds == outcome(reference_zp_root_seeds, g), (g, p)
        if isinstance(seeds, str):
            continue
        roots = [hensel_lift(g, prime, seed, depth_cap).approx for seed in seeds]
        for i, a in enumerate(roots):
            for b in roots[:i]:
                assert rational_valuation(a - b, p) < depth_cap, (g, p, seeds)


# ---------------------------------------------------------------------------
# walks deeper than the interpreter's recursion limit: every univariate tree
# runs on decompose._walk's explicit stack, so a tree as deep as two roots
# (x - 1)(x - 1 - 3^k) are close needs no stack frame per level

@pytest.fixture
def recursion_limit():
    """Lowers the recursion limit to 150 frames above the current stack
    depth, yields it, and restores the old limit afterwards."""
    # sympy is imported first: imports nest deeply
    from sympy.polys.factortools import dup_factor_list  # noqa: F401

    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        yield depth + 150
    finally:
        sys.setrecursionlimit(old)


def _close_roots(k: int) -> polys.PolyQ:
    """(x - 1)(x - 1 - 3^k): the ball tree splits down to depth k + 1."""
    return poly(1 + 3**k, -(2 + 3**k), 1)


def test_deep_ball_tree_needs_no_recursion(recursion_limit):
    k = recursion_limit + 20
    f = _close_roots(k)
    terms = decompose_univariate(f, P3, None, k + 10)
    # two rootless siblings at each depth 1..k, three balls at depth k + 1
    assert len(terms) == 4 * k + 6
    assert max(stage_window(t.cell.conditions[0], []).k_min for t in terms) == k + 1
    z = igusa_zeta(f, P3, k + 10)
    assert z.evaluate(F(1)) == 1  # the measure of Z_3
    assert poincare_check(f, P3, 6, z).passed


def test_deep_verify_needs_no_recursion(recursion_limit):
    N = recursion_limit + 20
    f = poly(0, 1)
    report = verify_prepared(decompose_univariate(f, P3, None, 8), f, P3, N, zp_cell(P3))
    assert report.passed and report.classes_checked == 3**N


def test_deep_root_counts_need_no_recursion(recursion_limit):
    i_max = recursion_limit + 20
    assert root_counts(poly(0, 1), P3, i_max) == [1] * (i_max + 1)


def test_deep_cli_decompose_exits_0(recursion_limit, tmp_path, capsys):
    k = recursion_limit + 20
    f = _close_roots(k)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "version": 1, "p": 3, "integrand": f"abs(x0^2 - {-f[1]}*x0 + {f[0]})",
    }))
    assert cli.main(["decompose", str(path), "--precision", str(k + 10)]) == 0
    assert len(json.loads(capsys.readouterr().out)["terms"]) == 4 * k + 6


# ---------------------------------------------------------------------------
# reference lift: hensel_lift as it was when it ran Newton's iterates over
# Fractions, kept verbatim. On a p-integral irreducible factor and a seed
# in Z_p, the lift in ints mod p^(target_N + e) must give the same
# HenselRoot, or raise the same error.

def reference_hensel_lift(f, p, seed, target_N):
    if target_N < 1:
        raise ValueError("target_N must be >= 1")
    x = F(seed)
    df = polys.derivative(f)
    fx = polys.evaluate(f, x)
    e = rational_valuation(polys.evaluate(df, x), p.p)
    w = rational_valuation(fx, p.p)
    if not w > 2 * e:
        raise HenselConditionError(
            f"Hensel condition fails: v(f(seed)) = {w} is not > 2*v(f'(seed)) = {2 * e}"
        )
    # invariant: v(f(x)) = w keeps doubling relative to e, v(f'(x)) stays e
    while w != INF and w - e < target_N:
        x = x - fx / polys.evaluate(df, x)
        fx = polys.evaluate(f, x)
        w = rational_valuation(fx, p.p)
    if w == INF or rational_valuation(x, p.p) < 0:
        return HenselRoot(x, target_N)
    assert isinstance(e, int)
    modulus = p.p ** (target_N + max(e, 0))
    num, den = x.numerator, x.denominator
    approx = F(num * pow(den, -1, modulus) % modulus)
    return HenselRoot(approx, target_N)


monic_cubics = st.lists(st.integers(-40, 40), min_size=2, max_size=3).map(
    lambda cs: poly(*cs, 1)
)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.one_of(factor_inputs(), monic_cubics), st.sampled_from([2, 3, 5, 7]), st.data())
def test_hensel_lift_matches_reference(f, p, data):
    """Every seed below p^2 of an irreducible factor of f, scaled by 1, by
    p or by a p-unit with a denominator. The monic cubics add irreducible
    factors of degree 2 and 3 that have roots in Z_p."""
    factors = [g for g, _ in _factor_over_q(f)]
    assume(factors)
    g = data.draw(st.sampled_from(factors))
    unit = data.draw(st.sampled_from([F(a, b) for a, b in ((2, 7), (-5, 3), (3, 11))
                                      if a % p and b % p]))
    g = polys.scale(g, data.draw(st.sampled_from([F(1), F(p), unit])))
    target_N = data.draw(st.sampled_from([1, 3, 8, 24]))

    def outcome(lift, seed):
        try:
            return lift(g, Prime(p), seed, target_N)
        except (ArithmeticError, ValueError) as e:
            return type(e), str(e)

    for seed in range(p * p):
        assert outcome(hensel_lift, seed) == outcome(reference_hensel_lift, seed), (g, p, seed)


def _largest_prime_below_the_limit() -> Prime:
    n = padic._MR_LIMIT - 1
    while not padic.is_prime(n):
        n -= 1
    return Prime(n)


def test_constant_and_linear_f_at_the_largest_prime():
    """The root test mod p squares its way to x^p, so at a prime near the
    primality limit it loops over no residues: a constant and a linear f
    decompose into one ball and its center, as before the test."""
    P = _largest_prime_below_the_limit()
    q = P.p
    # Euler's criterion decides the quadratics
    non_residue = next(a for a in range(2, q) if pow(a, (q - 1) // 2, q) == q - 1)
    for g, want in [((1, 0, 1), pow(-1, (q - 1) // 2, q) == 1),
                    ((-non_residue, 0, 1), False), ((-8, 0, 0, 1, q), True)]:
        assert polys.has_root_mod_p(g, q) == want, g
    terms = decompose_univariate(poly(3), P, None, 8)
    assert [(t.a, t.delta.constant_value(), t.cell) for t in terms] == [
        (0, 3, punctured_ball_cell(P, F(0), 0)), (0, 3, point_cell(P, Const(F(0))))]
    z = igusa_zeta(poly(3), P)
    assert (z.numerator, z.denominator_factors) == ((1,), ())
    terms = decompose_univariate(poly(-1, 1), P, None, 8)
    assert [(t.a, t.delta.constant_value(), t.cell) for t in terms] == [
        (1, 1, punctured_ball_cell(P, F(1), 0)), (0, 0, point_cell(P, Const(F(1))))]
    z = igusa_zeta(poly(-1, 1), P)
    assert (z.numerator, z.denominator_factors) == ((F(q - 1, q),), ((1, 1),))


# ---------------------------------------------------------------------------
# the decomposer against its form with a separate test for rootless balls
# and its Taylor coefficients read as Fractions

def reference_emit_pair(out, p, center, j, a, delta_ball, delta_point, floor):
    out.append(
        PreparedTerm(
            ConstructibleExpr.const(delta_ball), a, 0, punctured_ball_cell(p, center, j),
            floor,
        )
    )
    out.append(
        PreparedTerm(
            ConstructibleExpr.const(delta_point), 0, 0, point_cell(p, Const(center)), floor
        )
    )


def reference_constant_norm_on_ball(d, j, p):
    """|sum d_i u^i| = |d_0| for every v(u) >= j."""
    if not d or d[0] == 0:
        return False
    v0 = rational_valuation(d[0], p)
    return all(
        v0 < rational_valuation(d[i], p) + i * j for i in range(1, len(d)) if d[i]
    )


def reference_dominant_root_floor(d, m, j, p):
    vm = rational_valuation(d[m], p)
    for i in range(m + 1, len(d)):
        if d[i] and not vm < rational_valuation(d[i], p) + (i - m) * j:
            return None
    floor = INF
    for i in range(m):
        if not d[i]:
            continue
        gap = rational_valuation(d[i], p) - vm
        if gap <= (m - i) * j:
            return None
        # (m-i)*k < gap, i.e. k <= ceil(gap/(m-i)) - 1
        floor = min(floor, -(-gap // (m - i)) - 1)
    return floor


def reference_decompose_univariate(f, p, domain=None, precision_N=8):
    if polys.is_zero(f):
        raise ValueError("f must not be identically zero")
    if precision_N < 1:
        raise ValueError("precision must be >= 1")
    hull_center, hull_j = _ball_hull(domain, p)
    lift_N = max(2 * precision_N, precision_N + 16)
    roots = [
        rt
        for rt in decompose._zp_roots(f, p, lift_N)
        if rational_valuation(rt.root.approx - hull_center, p.p) >= hull_j
    ]
    out = []

    def handle(center, j):
        nonlocal roots
        if j > precision_N:
            raise PrecisionExhausted(
                f"precision exhausted: subdivision passed depth {precision_N}"
            )
        local = [
            k
            for k, rt in enumerate(roots)
            if rational_valuation(rt.root.approx - center, p.p) >= j
        ]
        if len(local) == 1:
            rt = roots[local[0]]
            m = rt.multiplicity
            while True:
                gamma = rt.root.approx
                d = polys.taylor_shift(f, gamma)
                floor = reference_dominant_root_floor(d, m, j, p.p)
                if floor is None:
                    break
                if rt.exact or floor >= precision_N + 2:
                    reference_emit_pair(
                        out,
                        p,
                        gamma,
                        j,
                        m,
                        d[m],
                        d[0],
                        None if floor == INF else int(floor),
                    )
                    return
                deeper = rt.deepen(p, 2 * rt.root.precision)
                roots[local[0]] = rt = deeper
        elif not local:
            d = polys.taylor_shift(f, center)
            if reference_constant_norm_on_ball(d, j, p.p):
                reference_emit_pair(out, p, center, j, 0, d[0], d[0], None)
                return
        for i in range(p.p):
            handle(center + i * F(p.p) ** j, j + 1)

    handle(hull_center, hull_j)
    return out


def _decomposition_outcome(decompose_fn, f, p, domain, N):
    try:
        terms = decompose_fn(f, p, domain, N)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return prepared_to_json(terms), [t.center_floor for t in terms]


@st.composite
def _decomposition_cases(draw):
    """f of degree <= 5 as a scaled product of small factors, some squared,
    perhaps with two roots p^k apart (past the precision for large k),
    over Z_p or over a ball inside it."""
    p = draw(st.sampled_from((P2, P3, P5, Prime(7))))
    f = (F(draw(st.integers(-12, 12).filter(bool)), draw(st.integers(1, 12))),)
    if draw(st.booleans()):
        r, k = draw(st.integers(-9, 9)), draw(st.integers(1, 14))
        f = polys.mul(f, polys.mul(poly(-r, 1), poly(-r - p.p**k, 1)))
    for _ in range(draw(st.integers(0, 3))):
        g = poly(*draw(st.lists(st.integers(-9, 9), min_size=2, max_size=3)))
        g = polys.pow_int(g, draw(st.integers(1, 2)))
        if g and polys.degree(f) + polys.degree(g) <= 5:
            f = polys.mul(f, g)
    domain = None
    if draw(st.booleans()):
        domain = punctured_ball_cell(p, draw(st.integers(-20, 20)), draw(st.integers(0, 3)))
    return f, p, domain, draw(st.integers(3, 12))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_decomposition_cases())
def test_decompose_matches_reference(case):
    f, p, domain, N = case
    assert _decomposition_outcome(decompose_univariate, f, p, domain, N) == (
        _decomposition_outcome(reference_decompose_univariate, f, p, domain, N)
    )
