"""The one check of a number a user gives: config key, task parameter or
solver keyword."""

import math


def number(name: str, value, typ: type = float, least=None):
    """``value`` as ``typ`` (int or float); a ValueError naming ``name``
    unless it is a number, not a bool, that ``typ`` holds exactly (a float
    must be finite) and, with ``least`` given, at least ``least``."""
    try:
        out = typ(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if (out is None or isinstance(value, bool) or out != value
            or (typ is float and not math.isfinite(out))):
        what = "a finite number" if typ is float else "an int"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if least is not None and not out >= least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return out
