"""Cells in Q_p^m, their level-set densities and exact membership.

A cell constrains each variable in turn: stage i confines t = x_i by
norm bounds |alpha(x)| vs |t - gamma(x)| vs |beta(x)| (each side strict
or absent, with non-strict admitted and normalized by one valuation
step) together with a coset condition t - gamma(x) in mu*P_n. A stage
with mu = 0 pins t to the center exactly.

On a fiber the conditions become an arithmetic progression of attainable
valuations k, and the Haar measure of each level set {v(u) = k} inside
mu*P_n is epsilon * p^-k for a density epsilon read off the index of the
n-th powers among the units. That reduces every fiber integral to a
geometric series, which integrate sums in closed form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction

from .expr import (
    Const,
    DTerm,
    EvaluationPrecisionError,
    ParseError,
    _node,
    eval_dterm,
    free_variables,
    parse_dterm,
    pinned_valuation,
    print_dterm,
)
from .padic import (
    INF,
    NEG_INF,
    Coset,
    PAdicScalar,
    Prime,
    in_coset,
    unit_class_count,
)


class BoundZeroError(ZeroDivisionError):
    """A norm bound evaluated to zero where it must not."""


@_node
class CellCondition:
    """One stage: |lower(x)| vs |t - center(x)| vs |upper(x)|, coset membership.

    lower_val_residue / upper_val_residue, when set, additionally require
    v(lower(x)) resp. v(upper(x)) to sit in a fixed class mod n; symbolic
    integration needs those residues pinned per cell. A stage keeps its
    hash, as a term does (expr._node): elimination keys its tables by
    stages and prefixes of them.
    """

    center: DTerm
    coset: Coset
    lower: DTerm | None = None
    upper: DTerm | None = None
    lower_strict: bool = True
    upper_strict: bool = True
    lower_val_residue: int | None = None
    upper_val_residue: int | None = None

    def __post_init__(self) -> None:
        n = self.coset.n
        for pin, bound, name in (
            (self.lower_val_residue, self.lower, "lower"),
            (self.upper_val_residue, self.upper, "upper"),
        ):
            if pin is not None:
                if bound is None:
                    raise ValueError(f"residue pin on an absent {name} bound")
                if not 0 <= pin < n:
                    raise ValueError(f"{name} residue pin outside 0..{n - 1}")

    @property
    def prime(self) -> Prime:
        return self.coset.prime


@dataclass(frozen=True)
class Cell:
    conditions: tuple[CellCondition, ...]

    def __post_init__(self) -> None:
        if not self.conditions:
            raise ValueError("a cell needs at least one condition")
        prime = self.conditions[0].prime
        for i, cond in enumerate(self.conditions):
            if cond.prime != prime:
                raise ValueError("conditions mix primes")
            allowed = set(range(i))
            for term in (cond.center, cond.lower, cond.upper):
                if term is None:
                    continue
                used = free_variables(term)
                if not used <= allowed:
                    raise ValueError(
                        f"stage {i} references variables {sorted(used - allowed)}"
                    )

    @property
    def prime(self) -> Prime:
        return self.conditions[0].prime

    @property
    def arity(self) -> int:
        return len(self.conditions)


# ---------------------------------------------------------------------------
# level-set density

def level_set_measure(c: Coset) -> Fraction:
    """Density epsilon of one valuation level of mu*P_n.

    Measure{u : v(u) = k, u in mu*P_n} equals epsilon * p^-k for every
    attainable k (those with k = v(mu) mod n) and 0 otherwise, where
    epsilon = ((p - 1)/p) / [U : U^n] for the units U of Z_p, with the
    index from padic.unit_class_count.
    """
    if c.is_zero():
        raise ValueError("level sets of the zero coset are points")
    p = c.prime.p
    return Fraction(p - 1, p * unit_class_count(p, c.n))


# ---------------------------------------------------------------------------
# fibers

def _bound_valuation(term: DTerm, base_point: list[PAdicScalar], prime: Prime) -> int:
    value, err = eval_dterm(term, base_point, prime)
    v = pinned_valuation(value.value, err, prime.p)
    if v is None:
        why = ("evaluates to zero" if value.is_zero() and err == INF
               else "not separated from zero at this precision")
        raise BoundZeroError(f"bound {print_dterm(term)} {why}")
    return v


@dataclass(frozen=True)
class StageWindow:
    """The levels k = v(t - center) one stage admits over a base point,
    read from the valuations of its norm bounds (None for an absent bound).

    The lower bound caps k above (|lower| < p^-k reads k < v(lower)), the
    upper bound cuts it below; a failed residue pin admits no k. The coset
    further asks k = v(mu) mod n, which empty() takes into account.
    """

    coset: Coset
    v_lower: int | None
    v_upper: int | None
    k_min: int | float
    k_max: int | float

    @staticmethod
    def of(cond: CellCondition, v_lower: int | None, v_upper: int | None) -> "StageWindow":
        """The window of cond where its bounds have valuations v_lower and
        v_upper, given for each bound present."""
        n = cond.coset.n
        k_min: int | float = NEG_INF
        k_max: int | float = INF
        pins_hold = True
        if cond.lower is not None:
            k_max = v_lower - 1 if cond.lower_strict else v_lower
            pins_hold = cond.lower_val_residue in (None, v_lower % n)
        if cond.upper is not None:
            k_min = v_upper + 1 if cond.upper_strict else v_upper
            pins_hold = pins_hold and cond.upper_val_residue in (None, v_upper % n)
        if not pins_hold:
            k_min, k_max = INF, NEG_INF
        return StageWindow(cond.coset, v_lower, v_upper, k_min, k_max)

    def levels(self) -> tuple[int | float, int | float]:
        """The least and the greatest attainable level (infinite on an open
        side); the first exceeds the last when the window is empty."""
        lo, hi = self.k_min, self.k_max
        if self.coset.is_zero():
            # t is the center: the one level is INF
            return (INF, INF) if hi == INF else (INF, NEG_INF)
        if lo > hi:
            return lo, hi
        n, r = self.coset.n, int(self.coset.mu.valuation)
        first = lo if lo == NEG_INF else int(lo) + (r - int(lo)) % n
        last = hi if hi == INF else int(hi) - (int(hi) - r) % n
        return first, last

    def empty(self) -> bool:
        first, last = self.levels()
        return first > last


def stage_window(cond: CellCondition, base_point: list[PAdicScalar]) -> StageWindow:
    """The window of a stage over a base point (scalars for the variables
    its bounds use)."""
    prime = cond.prime
    return StageWindow.of(
        cond,
        None if cond.lower is None else _bound_valuation(cond.lower, base_point, prime),
        None if cond.upper is None else _bound_valuation(cond.upper, base_point, prime),
    )


def stage_center(cond: CellCondition, base_point: list[PAdicScalar]) -> PAdicScalar:
    """A stage's center over a base point, which must evaluate exactly."""
    center, err = eval_dterm(cond.center, base_point, cond.prime)
    if err != INF:
        raise EvaluationPrecisionError("center not determined at this precision")
    return center


def fiber_membership(A: Cell, point: list[PAdicScalar]) -> bool:
    """Exact membership of a point, stage by stage: t - center must have
    a valuation in the stage's window and lie in its coset."""
    if len(point) != A.arity:
        raise ValueError(f"point has {len(point)} coordinates, cell has {A.arity}")
    for i, cond in enumerate(A.conditions):
        base = point[:i]
        diff = point[i] - stage_center(cond, base)
        window = stage_window(cond, base)
        if not window.k_min <= diff.valuation <= window.k_max:
            return False
        if not in_coset(diff, cond.coset):
            return False
    return True


# ---------------------------------------------------------------------------
# constructors

def coset_of(prime: Prime, mu, n: int) -> Coset:
    return Coset(PAdicScalar(Fraction(mu), prime), n)


def zp_cell(prime: Prime) -> Cell:
    """Z_p with the origin removed: |t| <= 1, t in 1*P_1."""
    return punctured_ball_cell(prime, 0, 0)


def point_cell(prime: Prime, center) -> Cell:
    cond = CellCondition(
        center=Const(Fraction(center)) if not isinstance(center, DTerm) else center,
        coset=coset_of(prime, 0, 1),
    )
    return Cell((cond,))


def punctured_ball_cell(
    prime: Prime, center, radius_valuation: int, coset: Coset | None = None
) -> Cell:
    """{t : 0 < |t - center| <= p^-radius_valuation}, optionally inside a coset."""
    c = Const(Fraction(center)) if not isinstance(center, DTerm) else center
    cond = CellCondition(
        center=c,
        coset=coset if coset is not None else coset_of(prime, 1, 1),
        # radius p^-j means the bound term must have valuation j
        upper=Const(Fraction(prime.p) ** radius_valuation),
        upper_strict=False,
    )
    return Cell((cond,))


def pin_bound_residues(cell: Cell, stage: int = -1) -> list[Cell]:
    """All residue-pinned refinements of one stage.

    Splits on v(lower) mod n and v(upper) mod n for whichever bounds are
    present and unpinned; the pinned copies partition the original cell.
    """
    idx = stage % len(cell.conditions)
    cond = cell.conditions[idx]
    n = cond.coset.n
    lower_pins = (
        [cond.lower_val_residue]
        if cond.lower is None or cond.lower_val_residue is not None
        else list(range(n))
    )
    upper_pins = (
        [cond.upper_val_residue]
        if cond.upper is None or cond.upper_val_residue is not None
        else list(range(n))
    )
    out = []
    for lo in lower_pins:
        for up in upper_pins:
            new = replace(cond, lower_val_residue=lo, upper_val_residue=up)
            conds = list(cell.conditions)
            conds[idx] = new
            out.append(Cell(tuple(conds)))
    return out


# ---------------------------------------------------------------------------
# serialization

def condition_to_json(cond: CellCondition) -> dict:
    return {
        "alpha": None if cond.lower is None else print_dterm(cond.lower),
        "alpha_strict": cond.lower_strict,
        "alpha_residue": cond.lower_val_residue,
        "beta": None if cond.upper is None else print_dterm(cond.upper),
        "beta_strict": cond.upper_strict,
        "beta_residue": cond.upper_val_residue,
        "gamma": print_dterm(cond.center),
        "mu": str(cond.coset.mu.value),
        "n": cond.coset.n,
    }


def cell_to_json(cell: Cell) -> dict:
    return {"conditions": [condition_to_json(c) for c in cell.conditions]}


# The readers below judge every value from outside; each refusal is a
# ValueError that starts with the value's JSON path: cells[1].conditions[0].mu.

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(raw, path: str) -> Fraction:
    """A JSON integer, or a string -?INT(/INT)? as the DSL and the CLI's
    output write rationals; no floats, bools, decimals or exponents."""
    if type(raw) is int or (type(raw) is str and _RATIONAL.fullmatch(raw)):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):  # a zero denominator, or too many digits
            pass
    raise ValueError(
        f"{path} must be a rational, a JSON integer or a string like -3/4, got {raw!r}"
    )


_JSON_KINDS = {bool: "boolean", int: "integer", str: "string", list: "array"}


def _typed(raw, kind: type, path: str, least: int | None = None):
    """raw when it is a JSON value of the kind (a JSON bool is no integer)
    and, given least, an integer >= least or an array of least or more items."""
    if type(raw) is kind and (least is None or (len(raw) if kind is list else raw) >= least):
        return raw
    want = f"a JSON {_JSON_KINDS[kind]}"
    if least is not None:
        want += f" of {least} or more items" if kind is list else f" >= {least}"
    raise ValueError(f"{path} must be {want}, got {raw!r}")


def _json_object(raw, path: str, required: tuple[str, ...],
                 known: tuple[str, ...]) -> dict:
    """raw when it is a JSON object with every required key and no unknown
    one: a misspelled optional key would otherwise silently take its default.
    The empty path is the top level."""
    if type(raw) is not dict:
        raise ValueError(f"{path or 'the top level'} must be a JSON object, got {raw!r}")
    prefix = f"{path}." if path else ""
    for key in required:
        if key not in raw:
            raise ValueError(f"{prefix}{key} is missing")
    for key in raw:
        if key not in known:
            raise ValueError(f"{prefix}{key} is not a known field")
    return raw


def _dsl(raw, path: str, parse):
    """parse applied to a DSL string; a ParseError keeps its span and gains
    the path."""
    try:
        return parse(_typed(raw, str, path))
    except ParseError as e:
        raise ParseError(f"{path}: {e.message}", e.span) from None


_CONDITION_KEYS = ("alpha", "alpha_strict", "alpha_residue", "beta", "beta_strict",
                   "beta_residue", "gamma", "mu", "n")


def condition_from_json(data, prime: Prime, path: str) -> CellCondition:
    data = _json_object(data, path, ("gamma", "mu", "n"), _CONDITION_KEYS)

    def term(key: str) -> DTerm | None:
        raw = data.get(key)
        return None if raw is None else _dsl(raw, f"{path}.{key}", parse_dterm)

    def pin(key: str) -> int | None:
        raw = data.get(key)
        return None if raw is None else _typed(raw, int, f"{path}.{key}", least=0)

    fields = dict(
        center=_dsl(data["gamma"], f"{path}.gamma", parse_dterm),
        coset=coset_of(prime, parse_rational(data["mu"], f"{path}.mu"),
                       _typed(data["n"], int, f"{path}.n", least=1)),
        lower=term("alpha"),
        upper=term("beta"),
        lower_strict=_typed(data.get("alpha_strict", True), bool, f"{path}.alpha_strict"),
        upper_strict=_typed(data.get("beta_strict", True), bool, f"{path}.beta_strict"),
        lower_val_residue=pin("alpha_residue"),
        upper_val_residue=pin("beta_residue"),
    )
    try:
        return CellCondition(**fields)
    except ValueError as e:  # a residue pin out of range or on an absent bound
        raise ValueError(f"{path}: {e}") from None


def cell_from_json(data, prime: Prime, path: str) -> Cell:
    data = _json_object(data, path, ("conditions",), ("conditions",))
    raw = _typed(data["conditions"], list, f"{path}.conditions", least=1)
    conditions = tuple(condition_from_json(c, prime, f"{path}.conditions[{i}]")
                       for i, c in enumerate(raw))
    try:
        return Cell(conditions)
    except ValueError as e:  # a stage reading a variable it may not
        raise ValueError(f"{path}: {e}") from None
