class ResourceGuardError(Exception):
    """Raised when an exhaustive computation would exceed its resource guard."""


def check_power(base: int, exponent: int, guard: int, what: str):
    """Raise ValueError for a guard below 1, and ResourceGuardError, as
    "``what`` exceeds the guard of ``guard``", when base**exponent exceeds
    ``guard``; base and exponent are nonnegative.

    At base >= 2 an exponent of at least guard.bit_length() puts the power
    past the guard, so it is refused before that power is built.
    """
    if guard < 1:
        raise ValueError(f"guard must be at least 1, got {guard}")
    if base > 1 and exponent >= guard.bit_length() or base**exponent > guard:
        raise ResourceGuardError(f"{what} exceeds the guard of {guard}")
