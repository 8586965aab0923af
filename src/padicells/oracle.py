"""Ground truth by refining residue boxes of Z_p^arity.

A box fixes, for every coordinate x_i, a residue r_i mod p^(d_i) with its
own depth d_i. The tree starts from the box of depth 0 in every
coordinate, which is all of Z_p^arity, and judges each box against the
domain cell, one stage at a time, and against the integrand:

- a stage certainly OUTSIDE on the whole box drops the box;
- every stage INSIDE and an integrand the box pins down adds the box
  exactly;
- otherwise the box splits p ways along its shallowest coordinate among
  those read by the terms of the first undecided stage (t - center, the
  lower or the upper bound) whose valuation the box leaves open; those
  the integrand reads, when only the integrand is undecided. A coordinate
  that only decided terms read is never split: on |x1| <= |x0| a box
  whose x0 has a known valuation splits x1 alone, so the boxes grow
  polynomially with N instead of as p^N. Once all of the chosen
  coordinates sit at depth N, the box's measure goes to boundary_mass.

Decisions are made soundly: expr's evaluator values each subterm at the
canonical lift (the least nonnegative representative) of every coordinate
together with a lower bound on the valuation of its variation across the
box, and anything the box does not pin down is undecided instead of
guessed. Each stage holds the compiled evaluator of t - center and the
compiled readers of its bounds (expr._evaluator, expr._reader), built
once per term node, so a box costs no dispatch on term classes. The
integrand is valued on a box by the same core that values it at a point
(expr._plan_ints, which runs the integrand's evaluation plan, fetched
once per run); where that raises, the box is undecided.
Decisions about punctures and graphs are almost-everywhere decisions,
which is the right notion for integrals: a single excluded point never
carries measure. A box still undecided at full depth is one the flat
enumeration of classes mod p^N leaves undecided as well, so the boundary
mass is never larger than that enumeration's.

The class budget bounds the p^(arity*N) leaves of the tree: above it
oracle_integrate raises BudgetExceeded, so every result carries the
error bound below.

The walk computes in Python ints. The canonical lifts are nonnegative
ints, and a child's lift is its parent's plus j * p^d. A box with depths
d_i has measure p^-(sum d_i), kept as the int weight
p^(arity*N - sum d_i) over the common denominator p^(arity*N). The
integrand comes back from each decided box as an int pair num/den, the
value is summed as one int pair and the boundary mass as one int, and
one Fraction each is built at the end. Each stage's constants (its
prime, coset, unit digit count, the valuations of constant bounds and the
compiled terms) are worked out once per run (_Stage).

An exact result at resolution N satisfies
|true - value| <= boundary_mass * sup|integrand on the domain|.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .cells import Cell, CellCondition
from .expr import (
    Const,
    ConstructibleExpr,
    DTerm,
    EvaluationPrecisionError,
    Lift,
    Var,
    _add_ratio,
    _evaluation_plan,
    _evaluator,
    _plan_ints,
    _reader,
    d_sub,
    free_variables,
    pinned_valuation,
    print_dterm,
)
from .padic import INF, NEG_INF, Coset, PAdicScalar, Prime, in_coset, rational_valuation, unit_digits

DEFAULT_BUDGET = 10**7

INSIDE, OUTSIDE, BOUNDARY = 1, 0, -1
# the terms of a stage: t - center, the lower and the upper norm bound
DIFF, LOWER, UPPER = 1, 2, 4


class UnboundedDomainError(ValueError):
    """The cell escapes Z_p^n, so residue enumeration cannot cover it."""


class BudgetExceeded(ArithmeticError):
    """The p^(arity*N) classes mod p^N exceed the class budget."""


@dataclass(frozen=True)
class OracleResult:
    value: Fraction
    boundary_mass: Fraction
    sampled: bool = False  # always False: over budget the oracle raises


Depths = tuple[int, ...]


# ---------------------------------------------------------------------------
# box-level membership, one stage at a time

class _Stage(NamedTuple):
    """What a stage's verdict reads besides the box, worked out once per
    oracle run: the compiled evaluator of t - center, and each norm bound
    as (reader, valuation, strict, residue pin, is lower, bit). A constant
    bound has its valuation here and reader None; any other is read on
    each box by its compiled reader."""

    diff: Callable
    p: int
    coset: Coset
    graph: bool
    n: int
    digits: int  # unit_digits(n, p)
    bounds: tuple


def _stage(cond: CellCondition, diff: DTerm) -> _Stage:
    p = cond.prime.p
    bounds = []
    for bound, *rest in (
        (cond.lower, cond.lower_strict, cond.lower_val_residue, True, LOWER),
        (cond.upper, cond.upper_strict, cond.upper_val_residue, False, UPPER),
    ):
        if isinstance(bound, Const):
            bounds.append((None, pinned_valuation(bound.value, INF, p), *rest))
        elif bound is not None:
            bounds.append((_reader(bound), None, *rest))
    n = cond.coset.n
    return _Stage(_evaluator(diff), p, cond.coset, cond.coset.is_zero(), n,
                  unit_digits(n, p), tuple(bounds))


def _decide(stage: _Stage, reps: tuple[Lift, ...], depths: Depths) -> tuple[int, int]:
    """The verdict of a stage prepared by _stage on the box, and the bitmask
    of its terms (DIFF, LOWER, UPPER) whose valuation the box leaves open:
    refining the variables of the other terms cannot decide a BOUNDARY
    verdict.

    The stage's diff is t - center(x) for the stage variable t; it reads t
    itself, so its certified depth never exceeds the depth of t. The lifts
    may be ints or Fractions."""
    diff, p, coset, graph, n, digits, bounds = stage
    value, dv = diff(reps, depths, p)
    v = rational_valuation(value, p)
    v_exact = v if v < dv else None  # pinned_valuation
    k_low = min(v, dv)

    if graph:
        # a graph stage never contains a whole box; it can only be
        # certainly missed
        return (OUTSIDE, 0) if v_exact is not None else (BOUNDARY, DIFF)

    verdict, open_terms = INSIDE, 0

    if n == 1:
        pass  # membership in mu*P_1 holds off the null puncture
    elif v_exact is None or dv - v_exact < digits:
        verdict, open_terms = BOUNDARY, DIFF
    elif not in_coset(PAdicScalar(value, coset.prime), coset):
        return OUTSIDE, 0

    for read, bv, strict, pin, is_lower, term in bounds:
        if read is not None:
            bv = read(reps, depths, p)[0]
        if bv is None:
            verdict, open_terms = BOUNDARY, open_terms | term
            continue
        if pin is not None and bv % n != pin:
            return OUTSIDE, 0
        if is_lower:
            k_max = bv - 1 if strict else bv
            if k_low > k_max:
                return OUTSIDE, 0
            if v_exact is None:
                # k only bounded below; may exceed k_max
                verdict, open_terms = BOUNDARY, open_terms | DIFF
        else:
            k_min = bv + 1 if strict else bv
            if k_low >= k_min:
                continue
            if v_exact is not None:
                return OUTSIDE, 0  # k is pinned below k_min across the box
            verdict, open_terms = BOUNDARY, open_terms | DIFF
    return verdict, open_terms


def _check_enumerable(domain: Cell) -> None:
    """Refuse a non-point stage that may reach outside Z_p, whose mass the
    boxes of Z_p^arity would miss, boundary mass included: one with no
    upper norm bound, a center that may leave Z_p, or an upper bound that
    may admit a level below 0 on the coset grid k = v(mu) mod n.

    A term's floor is min(v(value), precision) of its compiled evaluator on
    the root box, every coordinate at depth 0: a lower bound on its
    valuation over all of Z_p^i, exact for a constant. It ignores what the
    earlier stages confine their variables to, so a center x0/3 over
    x0 in 3Z_3, which stays in Z_3, is refused too, and an inverse, which
    certifies nothing on the root box, always is."""
    p = domain.prime.p
    root = (0,) * domain.arity

    def floor(term: DTerm):
        value, precision = _evaluator(term)(root, root, p)
        return min(rational_valuation(value, p), precision)

    for i, cond in enumerate(domain.conditions):
        if cond.coset.is_zero():
            continue
        if cond.upper is None:
            raise UnboundedDomainError(f"unbounded domain: stage {i} has no upper norm bound")
        if floor(cond.center) < 0:
            if isinstance(cond.center, Const):
                raise UnboundedDomainError(f"stage {i} leaves Z_p: its center is outside Z_p")
            raise UnboundedDomainError(
                f"stage {i} may leave Z_p: its center {print_dterm(cond.center)} may leave Z_p")
        k = floor(cond.upper) + cond.upper_strict
        if k == INF:
            continue  # a zero upper bound admits no level
        if k != NEG_INF:
            k += (int(cond.coset.mu.valuation) - k) % cond.coset.n
            if k >= 0:
                continue
        if isinstance(cond.upper, Const):
            raise UnboundedDomainError(f"stage {i} leaves Z_p: it admits the level {k}")
        level = "any level" if k == NEG_INF else f"the level {k}"
        raise UnboundedDomainError(
            f"stage {i} may leave Z_p: its upper bound {print_dterm(cond.upper)} may admit {level}")


def _reads(terms) -> list[int]:
    """Indices of the variables the terms read, ascending."""
    out: set[int] = set()
    for t in terms:
        if t is not None:
            out |= free_variables(t)
    return sorted(out)


# ---------------------------------------------------------------------------
# drivers

def oracle_integrate(
    integrand: ConstructibleExpr,
    domain: Cell,
    p: Prime,
    N: int,
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Refine boxes of Z_p^arity while they are undecided, down to depth N
    in every coordinate.

    Boxes certainly inside with a box-determined integrand contribute
    exactly; boxes still undecided at depth N accumulate into
    boundary_mass. Lifts, weights and sums are ints (see the module
    docstring); value and boundary_mass are exact Fractions. Raises
    BudgetExceeded when the p^(arity*N) classes mod p^N exceed the class
    budget.
    """
    if p != domain.prime:
        raise ValueError("prime does not match the domain's")
    if N < 1:
        raise ValueError("resolution must be >= 1")
    _check_enumerable(domain)
    arity = domain.arity
    if p.p ** (arity * N) > budget:
        raise BudgetExceeded(
            f"{p.p}^({arity}*{N}) classes exceed the class budget of {budget}"
        )

    q = p.p
    conds = domain.conditions
    diffs = [d_sub(Var(i), cond.center) for i, cond in enumerate(conds)]
    stages = [_stage(cond, diff) for cond, diff in zip(conds, diffs)]
    stage_terms = [(diff, cond.lower, cond.upper) for cond, diff in zip(conds, diffs)]
    # the variables read by each subset of a stage's terms, by bitmask, each
    # worked out when a box first needs it
    stage_reads = [[None] * 8 for _ in conds]
    plan = _evaluation_plan(integrand)
    integrand_reads = _reads(
        fac.h for term in integrand.terms
        for fac in term.val_factors + term.norm_factors
    )
    if integrand_reads and integrand_reads[-1] >= arity:
        raise ValueError(f"integrand reads x{integrand_reads[-1]}, but the cell has arity {arity}")
    # measures are int weights over the common denominator q^(arity*N)
    full = q ** (arity * N)
    value_num, value_den = 0, 1
    boundary = 0
    # (lifts, depths, weight, bitmask of the stages known INSIDE on the
    # whole box); a sub-box inherits its parent's INSIDE stages
    stack = [((0,) * arity, (0,) * arity, full, 0)]
    while stack:
        reps, depths, weight, inside = stack.pop()
        first = None
        for s in range(arity):
            if inside >> s & 1:
                continue
            decision, open_terms = _decide(stages[s], reps, depths)
            if decision == OUTSIDE:
                break
            if decision == INSIDE:
                inside |= 1 << s
            elif first is None:
                first, axes = s, stage_reads[s][open_terms]
                if axes is None:
                    axes = stage_reads[s][open_terms] = _reads(
                        t for bit, t in zip((DIFF, LOWER, UPPER), stage_terms[s])
                        if open_terms & bit)
        else:  # no stage is OUTSIDE
            if first is None:
                try:
                    num, den = _plan_ints(plan, reps, depths, q)
                except (EvaluationPrecisionError, ZeroDivisionError, ValueError):
                    axes = integrand_reads  # the box does not pin the integrand
                else:
                    value_num, value_den = _add_ratio(value_num, value_den, num * weight, den)
                    continue
            axis = min(axes, key=depths.__getitem__, default=None)
            if axis is None or depths[axis] >= N:
                boundary += weight
                continue
            d = depths[axis]
            deeper = depths[:axis] + (d + 1,) + depths[axis + 1:]
            head, rep, tail = reps[:axis], reps[axis], reps[axis + 1:]
            step, weight = q**d, weight // q
            for j in range(q):
                stack.append((head + (rep + j * step,) + tail, deeper, weight, inside))
    return OracleResult(Fraction(value_num, value_den * full), Fraction(boundary, full))


def oracle_measure(
    domain: Cell, p: Prime, N: int, budget: int = DEFAULT_BUDGET
) -> OracleResult:
    return oracle_integrate(ConstructibleExpr.const(1), domain, p, N, budget)

