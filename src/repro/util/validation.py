"""Argument-validation helpers shared by configuration dataclasses."""

from __future__ import annotations

from typing import Optional

#: accepted spellings of a boolean environment knob (case-insensitive).
TRUE_SPELLINGS = ("1", "true", "yes", "on")
FALSE_SPELLINGS = ("0", "false", "no", "off")


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless *value* is a positive number."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_power_of_two(name: str, value: int) -> None:
    """Raise ``ValueError`` unless *value* is a positive power of two."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a power of two, got {value}")


def check_probability(name: str, value: float) -> None:
    """Raise ``ValueError`` unless *value* lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value}")


def parse_env_flag(name: str, raw: Optional[str], default: bool) -> bool:
    """Interpret the value *raw* of the boolean environment variable *name*.

    Unset or empty gives *default*; ``1/true/yes/on`` and ``0/false/no/off``
    (case-insensitive) give true and false; anything else raises
    ``ValueError`` naming the variable, so a typo never silently flips a
    knob.  The caller reads the variable itself
    (``parse_env_flag(KNOB, os.environ.get(KNOB), default)``), which keeps
    every environment read a registry constant lint R7 can check.
    """
    value = (raw or "").strip().lower()
    if not value:
        return default
    if value in TRUE_SPELLINGS:
        return True
    if value in FALSE_SPELLINGS:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a boolean; use one of "
        f"{'/'.join(TRUE_SPELLINGS)} or {'/'.join(FALSE_SPELLINGS)}"
    )
