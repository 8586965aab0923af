"""Cells in Q_p^m, their level-set densities and exact membership.

A cell constrains each variable in turn: stage i confines t = x_i by
norm bounds |alpha(x)| vs |t - gamma(x)| vs |beta(x)| (each side strict
or absent, with non-strict admitted and normalized by one valuation
step) together with a coset condition t - gamma(x) in mu*P_n. A stage
with mu = 0 pins t to the center exactly.

On a fiber the conditions become an arithmetic progression of attainable
valuations k, and the Haar measure of each level set {v(u) = k} inside
mu*P_n is epsilon * p^-k for a density epsilon counted exactly from unit
residues. That reduces every fiber integral to a geometric series, which
integrate sums in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .expr import (
    Const,
    DTerm,
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
    hensel_power_depth,
    in_coset,
    nth_power_unit_residues,
)


class BoundZeroError(ZeroDivisionError):
    """A norm bound evaluated to zero where it must not."""


@dataclass(frozen=True)
class CellCondition:
    """One stage: |lower(x)| vs |t - center(x)| vs |upper(x)|, coset membership.

    lower_val_residue / upper_val_residue, when set, additionally require
    v(lower(x)) resp. v(upper(x)) to sit in a fixed class mod n; symbolic
    integration needs those residues pinned per cell.
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

    @property
    def type_vector(self) -> tuple[int, ...]:
        return tuple(0 if c.coset.is_zero() else 1 for c in self.conditions)


# ---------------------------------------------------------------------------
# level-set density

@dataclass(frozen=True)
class LevelSetMeasure:
    epsilon: Fraction
    valuation_class: int


@lru_cache(maxsize=None)
def _epsilon_counted(p: int, n: int) -> Fraction:
    depth = hensel_power_depth(n, p)
    eps = None
    for d in (depth, depth + 2):
        image = nth_power_unit_residues(p, n, d)
        value = Fraction(len(image), p**d)
        if eps is None:
            eps = value
        elif eps != value:
            raise RuntimeError(
                f"level-set density for p={p}, n={n} differs between moduli "
                f"p^{depth} and p^{depth + 2}: {eps} vs {value}; the power-coset "
                "membership depth bound does not saturate here"
            )
    assert eps is not None
    return eps


def level_set_measure(c: Coset, p: Prime | None = None) -> LevelSetMeasure:
    """Density of one valuation level of mu*P_n.

    Measure{u : v(u) = k, u in mu*P_n} equals epsilon * p^-k for every
    attainable k (those with k = v(mu) mod n) and 0 otherwise. epsilon is
    found by counting n-th-power unit residues; computing it at two
    moduli asserts independence from the level.
    """
    if p is not None and p != c.prime:
        raise ValueError("prime does not match the coset's")
    if c.is_zero():
        raise ValueError("level sets of the zero coset are points")
    prime = c.prime
    eps = _epsilon_counted(prime.p, c.n)
    vmu = c.mu.valuation
    return LevelSetMeasure(eps, int(vmu) % c.n)


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


def _norm_window(
    cond: CellCondition, base_point: list[PAdicScalar]
) -> tuple[int | float, int | float, bool]:
    """(k_min, k_max, pins hold) for k = v(t - center) over a base point.

    The lower norm bound caps the valuation above (|lower| < p^-k reads
    k < v(lower)), the upper norm bound cuts it below; a residue pin
    holds when the bound's valuation sits in its class mod n.
    """
    prime, n = cond.prime, cond.coset.n
    k_min: int | float = NEG_INF
    k_max: int | float = INF
    pins_hold = True
    if cond.lower is not None:
        v = _bound_valuation(cond.lower, base_point, prime)
        k_max = v - 1 if cond.lower_strict else v
        pins_hold = cond.lower_val_residue in (None, v % n)
    if cond.upper is not None:
        v = _bound_valuation(cond.upper, base_point, prime)
        k_min = v + 1 if cond.upper_strict else v
        pins_hold = pins_hold and cond.upper_val_residue in (None, v % n)
    return k_min, k_max, pins_hold


@dataclass(frozen=True)
class StageWindow:
    """One stage over a fixed base point: its exact center and the
    valuations k = v(t - center) that its norm bounds and residue pins
    admit (none when a pin fails). The coset test is separate."""

    center: Fraction
    k_min: int | float
    k_max: int | float


def stage_window(cond: CellCondition, base_point: list[PAdicScalar]) -> StageWindow:
    """Read a stage's constants over a base point: the center, which must
    evaluate exactly, and the window of its bounds and pins."""
    center, err = eval_dterm(cond.center, base_point, cond.prime)
    if err != INF:
        raise _precision_error("center")
    k_min, k_max, pins_hold = _norm_window(cond, base_point)
    if not pins_hold:
        k_min, k_max = INF, NEG_INF
    return StageWindow(center.value, k_min, k_max)


def fiber_membership(
    A: Cell, point: list[PAdicScalar], depth: int | None = None
) -> bool:
    """Exact membership of a point, stage by stage: t - center must have
    a valuation in the stage's window and lie in its coset."""
    if len(point) != A.arity:
        raise ValueError(f"point has {len(point)} coordinates, cell has {A.arity}")
    p = A.prime
    for i, cond in enumerate(A.conditions):
        window = stage_window(cond, point[:i])
        diff = point[i] - PAdicScalar(window.center, p)
        if not window.k_min <= diff.valuation <= window.k_max:
            return False
        if not in_coset(diff, cond.coset, depth):
            return False
    return True


def _precision_error(what: str):
    from .expr import EvaluationPrecisionError

    return EvaluationPrecisionError(f"{what} not determined at this precision")


# ---------------------------------------------------------------------------
# constructors

def coset_of(prime: Prime, mu, n: int) -> Coset:
    return Coset(PAdicScalar(Fraction(mu), prime), n)


def zp_cell(prime: Prime) -> Cell:
    """Z_p with the origin removed: |t| <= 1, t in 1*P_1."""
    cond = CellCondition(
        center=Const(Fraction(0)),
        coset=coset_of(prime, 1, 1),
        upper=Const(Fraction(1)),
        upper_strict=False,
    )
    return Cell((cond,))


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


def condition_from_json(data: dict, prime: Prime) -> CellCondition:
    def term(key: str) -> DTerm | None:
        raw = data.get(key)
        return None if raw is None else parse_dterm(raw)

    lower = term("alpha")
    upper = term("beta")
    return CellCondition(
        center=parse_dterm(data["gamma"]),
        coset=coset_of(prime, Fraction(str(data["mu"])), int(data["n"])),
        lower=lower,
        upper=upper,
        lower_strict=bool(data.get("alpha_strict", True)),
        upper_strict=bool(data.get("beta_strict", True)),
        lower_val_residue=data.get("alpha_residue"),
        upper_val_residue=data.get("beta_residue"),
    )


def cell_from_json(data: dict, prime: Prime) -> Cell:
    return Cell(tuple(condition_from_json(c, prime) for c in data["conditions"]))

