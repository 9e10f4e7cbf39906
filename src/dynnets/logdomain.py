"""Log-domain carrier for covering-number bounds too large for float64, and
the integer check of the sizes they and the rest of the package take."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping


class EpsilonTooSmall(ValueError):
    """A covering bound whose natural log overflows float64 at this epsilon.

    Raised only when a term of the bound that depends on epsilon alone, such
    as 1/eps or 1/eps^2, is itself out of float64 range.
    """

    def __init__(self, epsilon: float):
        super().__init__(f"epsilon {epsilon!r} is too small: the log of the "
                         "bound overflows float64")
        self.epsilon = epsilon


def finite_log(evaluate: Callable[[], float], epsilon_alone_overflows: bool,
               **inputs: Any) -> float:
    """``evaluate()``, the log of a covering bound, checked to be finite.

    When it is not, the error names the cause: EpsilonTooSmall when
    ``epsilon_alone_overflows`` (a term of the bound in epsilon alone is out
    of range), otherwise a ValueError listing ``inputs`` (which include
    epsilon), since the overflow comes from their combination. An integer
    input too large to convert to float counts as an overflow.
    """
    try:
        value = evaluate()
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    if epsilon_alone_overflows:
        raise EpsilonTooSmall(inputs["epsilon"])
    named = ", ".join(f"{name} = {arg!r}" for name, arg in inputs.items())
    raise ValueError(f"the log of the bound overflows float64 at {named}")


def _integer(value, what: str) -> int:
    """``value`` as an int; a bool, float, string or other non-integer raises."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def int_power(base: int, exponent: int) -> int:
    """``base ** exponent`` for a positive base, checked to fit a float first.

    Past 2^1025 the power can never convert to float64, so it is refused
    with OverflowError (which finite_log reports) before the integer is
    built: d^(2k) at k = 10^9 would take seconds and hundreds of MB.
    """
    if exponent * math.log2(base) > 1025:
        raise OverflowError("integer power beyond the float64 range")
    return base ** exponent


@dataclass(frozen=True)
class LogBound:
    """A bound stored as its natural logarithm, with the inputs that produced it.

    ``ln_value`` is ln(N) for a bound N on a covering number; N itself is
    usually far beyond float64 range, so it is never materialized.
    """

    ln_value: float
    context: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.ln_value):
            raise ValueError("log-domain value must be finite")
        object.__setattr__(self, "context", dict(self.context))

    @property
    def log10_value(self) -> float:
        return self.ln_value / math.log(10.0)

    def as_dict(self) -> dict[str, Any]:
        return {
            "ln_value": self.ln_value,
            "log10_value": self.log10_value,
            "context": dict(self.context),
        }
