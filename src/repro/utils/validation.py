"""Input validators shared across the package.

All validators raise the typed exceptions from :mod:`repro.errors` so that
callers can distinguish bad weights from bad signs from bad probabilities.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from typing import Any, Dict

from repro.errors import ConfigError, InvalidSignError, InvalidWeightError


def check_weight(weight: float, context: str = "edge weight") -> float:
    """Validate a link weight ``w`` in ``[0, 1]`` and return it as float.

    Raises:
        InvalidWeightError: on NaN or out-of-range values.
    """
    try:
        value = float(weight)
    except (TypeError, ValueError, OverflowError):
        raise InvalidWeightError(f"{context} must be a real number, got {weight!r}") from None
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise InvalidWeightError(f"{context} must lie in [0, 1], got {value!r}")
    return value


def check_probability(p: float, context: str = "probability") -> float:
    """Validate a probability in ``[0, 1]`` and return it as float."""
    try:
        value = float(p)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{context} must be a real number, got {p!r}") from None
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{context} must lie in [0, 1], got {value!r}")
    return value


def check_sign_value(sign: int, context: str = "link sign") -> int:
    """Validate a link sign in ``{-1, +1}`` and return it as int."""
    if sign not in (-1, 1):
        raise InvalidSignError(f"{context} must be +1 or -1, got {sign!r}")
    return int(sign)




def config_from_dict(cls: type, values: Dict[str, Any], context: str = "") -> Any:
    """Build the config dataclass ``cls`` from a dict of outside input.

    Every key must name a field, and every value must fit the field's
    annotation as JSON decodes it: an int passes for ``float`` and a
    list for ``tuple``; a bool never passes for ``int`` or ``float``.
    A bad key or value raises :class:`ConfigError` (``context`` is
    appended to the unknown-field message), so outside input fails as a
    400 instead of a ``TypeError`` deep inside ``validate()``. Range
    checks stay in each config's own ``validate()``; this does not call
    it.
    """
    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(values) - valid)
    if unknown:
        raise ConfigError(
            f"unknown {cls.__name__} field(s) {unknown}{context}; "
            f"valid fields: {sorted(valid)}"
        )
    hints = typing.get_type_hints(cls)
    for name, value in values.items():
        if not _fits(hints[name], value):
            raise ConfigError(
                f"{cls.__name__}.{name} must be {_type_name(hints[name])}, "
                f"got {type(value).__name__} {value!r}"
            )
    return cls(**values)


def _fits(annotation: Any, value: Any) -> bool:
    if typing.get_origin(annotation) is typing.Union:
        return any(_fits(arg, value) for arg in typing.get_args(annotation))
    if isinstance(value, bool):
        return annotation is bool
    if annotation is float:
        return isinstance(value, (int, float))
    if annotation is tuple:
        return isinstance(value, (tuple, list))
    return isinstance(value, annotation)


def _type_name(annotation: Any) -> str:
    if typing.get_origin(annotation) is typing.Union:
        return " or ".join(_type_name(arg) for arg in typing.get_args(annotation))
    return "None" if annotation is type(None) else annotation.__name__
