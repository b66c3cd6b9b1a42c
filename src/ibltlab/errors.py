class ResourceGuardError(Exception):
    """Raised when an exhaustive computation would exceed its resource guard."""


def check_power(base: int, exponent: int, guard: int, what: str):
    """Raise ResourceGuardError, as "``what`` exceeds the guard of
    ``guard``", when base**exponent exceeds ``guard``; base and exponent
    are nonnegative, and ``guard`` is a positive module constant, such as
    ``oracle.ORACLE_GUARD`` or ``census.BRUTE_FORCE_GUARD``.

    At base >= 2 an exponent of at least guard.bit_length() puts the power
    past the guard, so it is refused before that power is built.
    """
    if base > 1 and exponent >= guard.bit_length() or base**exponent > guard:
        raise ResourceGuardError(f"{what} exceeds the guard of {guard}")
