"""Weight functions on positive integer distances.

A weight function h maps each distance k >= 1 to a real number; summing
h(d(u, v)) over unordered vertex pairs yields the whole family of
distance-based indices handled here (plain/powered Wiener, Harary,
q-bracket variants, arbitrary finite tables).

Power weights with a non-negative integer exponent evaluate in exact
integer arithmetic; every other variant evaluates in double precision.
No weight takes an inf or nan, and a value past a double raises OverflowError.
"""

from __future__ import annotations

import enum
from typing import Union

from .records import FrozenRecord

Number = Union[int, float]


class WeightError(ValueError):
    """Invalid weight construction, spec string, or evaluation point."""


class Monotonicity(enum.Enum):
    STRICTLY_INCREASING = "strictly-increasing"
    STRICTLY_DECREASING = "strictly-decreasing"
    NEITHER = "neither"


def q_bracket(q: float, k: int) -> float:
    """The q-analogue of k: (1 - q^k) / (1 - q) = 1 + q + ... + q^(k-1)."""
    return (1.0 - q**k) / (1.0 - q)


class WeightFunction:
    """Base class; subclasses are immutable and evaluate via ``__call__``."""

    exact: bool = False

    def __call__(self, k: int) -> Number:
        raise NotImplementedError

    @property
    def description(self) -> str:
        raise NotImplementedError

    def _check_k(self, k: int) -> None:
        if not isinstance(k, int) or k < 1:
            raise WeightError(f"weight functions are defined for integer k >= 1, got {k!r}")


class PowerWeight(FrozenRecord, WeightFunction):
    """h(k) = k**exponent.  Exact integers when the exponent is an int >= 0."""

    _fields = ("exponent",)

    def __init__(self, exponent: Union[int, float]):
        if not abs(exponent) < float("inf"):  # false for inf and nan alike
            raise WeightError(f"exponent must be finite, got {exponent}")
        exact = isinstance(exponent, int) and exponent >= 0
        self.__dict__.update(exponent=exponent, exact=exact)

    def __call__(self, k: int) -> Number:
        # called once per distance of every index, so the k check is inline
        if not isinstance(k, int) or k < 1:
            self._check_k(k)
        if self.exact:
            return k**self.exponent
        return float(k) ** self.exponent

    @property
    def description(self) -> str:
        return f"power:{self.exponent}"


class QWienerWeight(FrozenRecord, WeightFunction):
    """q-bracket kernels, for q > 0, q != 1.

    variant 1: [k]_q
    variant 2: [k]_q * q^(L - k), where L is a fixed graph diameter
    variant 3: [k]_q * q^k
    """

    _fields = ("q", "variant", "diameter")

    def __init__(self, q: float, variant: int = 1, diameter: int | None = None):
        if not 0 < q < float("inf") or q == 1:
            raise WeightError(f"q must be positive, finite and != 1, got {q}")
        if variant not in (1, 2, 3):
            raise WeightError(f"variant must be 1, 2 or 3, got {variant}")
        if variant != 2 and diameter is not None:
            raise WeightError("only variant 2 takes a diameter")
        self.__dict__.update(q=q, variant=variant, diameter=diameter)

    def with_diameter(self, diameter: int) -> "QWienerWeight":
        if self.variant != 2:
            raise WeightError("only variant 2 takes a diameter")
        return QWienerWeight(self.q, 2, diameter)

    def __call__(self, k: int) -> float:
        self._check_k(k)
        bracket = q_bracket(self.q, k)  # q**k raises OverflowError past a double
        if self.variant == 1:
            return bracket
        if self.diameter is None and self.variant == 2:
            raise WeightError(
                f"weight {self.description} needs a fixed graph diameter L; give it as q2:Q:L"
            )
        value = bracket * self.q ** (k if self.variant == 3 else self.diameter - k)
        if value == float("inf"):  # the product overflows silently; refuse it as pow does
            raise OverflowError(f"{self.description} overflows a double at k={k}")
        return value

    @property
    def description(self) -> str:
        if self.variant == 2 and self.diameter is not None:
            return f"q2:{self.q}:{self.diameter}"
        return f"q{self.variant}:{self.q}"


class TableWeight(FrozenRecord, WeightFunction):
    """Explicit value table for k = 1..len(values); evaluation beyond it errors."""

    _fields = ("values",)

    def __init__(self, values: tuple[float, ...]):
        if not values or not all(abs(v) < float("inf") for v in values):
            raise WeightError(f"table weight needs one or more finite values, got {values}")
        self.__dict__["values"] = values

    def __call__(self, k: int) -> float:
        self._check_k(k)
        if k > len(self.values):
            raise WeightError(
                f"table weight covers k = 1..{len(self.values)}, got k={k}"
            )
        return self.values[k - 1]

    @property
    def description(self) -> str:
        return "table:" + ",".join(repr(v) for v in self.values)


def classify_monotonicity(h: WeightFunction, max_distance: int) -> Monotonicity:
    """Exact monotonicity class of h on the finite domain 1..max_distance."""
    if max_distance < 2:
        raise WeightError(f"need max_distance >= 2 to classify, got {max_distance}")
    values = [h(k) for k in range(1, max_distance + 1)]
    if all(a < b for a, b in zip(values, values[1:])):
        return Monotonicity.STRICTLY_INCREASING
    if all(a > b for a, b in zip(values, values[1:])):
        return Monotonicity.STRICTLY_DECREASING
    return Monotonicity.NEITHER


def _parse_number(text: str) -> Union[int, float]:
    """Parse a decimal literal, preserving int-ness ('2' -> 2, '2.0' -> 2.0)."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise WeightError(f"bad numeric literal {text!r}") from None


def parse_weight_spec(spec: str) -> WeightFunction:
    """Parse a CLI weight spec.

    Grammar: ``power:E``, ``q1:Q``, ``q2:Q`` (diameter filled per graph),
    ``q2:Q:L`` (explicit diameter), ``q3:Q``, ``table:v1,v2,...``.
    """
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise WeightError(f"weight spec {spec!r} needs a ':', e.g. 'power:1'")
    if kind == "power":
        return PowerWeight(_parse_number(rest))
    if kind in ("q1", "q2", "q3"):
        variant = int(kind[1])
        parts = rest.split(":")
        q = float(_parse_number(parts[0]))
        if len(parts) == 1:
            return QWienerWeight(q, variant)
        if len(parts) == 2 and variant == 2:
            return QWienerWeight(q, 2, int(parts[1]))
        raise WeightError(f"bad q-weight spec {spec!r}")
    if kind == "table":
        try:
            values = tuple(float(v) for v in rest.split(","))
        except ValueError:
            raise WeightError(f"bad table values in {spec!r}") from None
        return TableWeight(values)
    raise WeightError(
        f"unknown weight kind {kind!r}; expected power, q1, q2, q3 or table"
    )
