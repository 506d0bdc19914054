"""One validity rule per numeric parameter.

The parameter dataclasses check their fields against these rules and the
config parser checks each key's text against the same rule, so a library
call and a config file accept exactly the same values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping


@dataclass(frozen=True)
class Rule:
    kind: type  # int or float
    text: str  # what a valid value is, as error messages say it
    holds: Callable[[float], bool]

    def parse(self, text: str):
        """The value of config text; ValueError unless it meets the rule."""
        value = self.kind(text)
        if not self.holds(value):
            raise ValueError(text)
        return value

    def admits(self, value) -> bool:
        """Whether a field value has the rule's type (any integer type for
        int) and meets it."""
        try:
            return self.holds(operator.index(value) if self.kind is int else float(value))
        except (TypeError, ValueError):
            return False


COUNT = Rule(int, "an integer >= 1", lambda v: v >= 1)
SEED = Rule(int, "an integer >= 0", lambda v: v >= 0)
POSITIVE = Rule(float, "a finite number > 0", lambda v: 0 < v < math.inf)
NON_NEGATIVE = Rule(float, "a finite number >= 0", lambda v: 0 <= v < math.inf)
RATE = Rule(float, "a number in [0, 1]", lambda v: 0 <= v <= 1)
FINITE = Rule(float, "a finite number", math.isfinite)


def check_fields(params, rules: Mapping[str, Rule]) -> None:
    """Raise ValueError naming the first field of ``params`` its rule rejects."""
    for name, rule in rules.items():
        value = getattr(params, name)
        if not rule.admits(value):
            raise ValueError(f"{name} must be {rule.text}, got {value!r}")
