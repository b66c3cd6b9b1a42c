"""Invertible Bloom lookup tables with an exact finite-length analysis toolkit.

The table itself lives in ``table``; ``census`` counts stopping matrices
exactly, ``bounds`` turns the counts into a union bound on the listing
failure probability, ``oracle`` is the exhaustive ground truth for tiny
parameters, and ``simulate`` estimates the same probability by Monte
Carlo.  ``cli`` exposes all of it as CSV-emitting subcommands.

Submodules load on first use: ``import ibltlab`` runs none of them, and a
package-level name (``ibltlab.union_bound``) or submodule
(``ibltlab.census``) imports its module the first time it is read
(PEP 562).  So each CLI command loads only what it runs: ``ztable``
and ``bound`` load ``cli``, ``census``, ``bounds``, ``hashing``,
``_bits`` and ``errors``, but neither ``oracle`` nor ``dataclasses``;
``oracle`` adds ``oracle``, with ``dataclasses`` and ``fractions`` for
its exact result; ``simulate`` adds ``simulate``, and numpy with
``_kernels_py`` once its trials run.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "available_backends": "backend",
    "backend_name": "backend",
    "BoundBreakdown": "bounds",
    "size2_asymptote": "bounds",
    "stopping_set_probability": "bounds",
    "union_bound": "bounds",
    "StoppingCensus": "census",
    "count_stopping_bruteforce": "census",
    "is_stopping_matrix": "census",
    "matrix_from_columns": "census",
    "pivots": "census",
    "ResourceGuardError": "errors",
    "ExplicitScheme": "hashing",
    "HashKind": "hashing",
    "HashParams": "hashing",
    "KeyModel": "hashing",
    "PartitionedUniformScheme": "hashing",
    "SsAvoidingScheme": "hashing",
    "make_partitioned_uniform": "hashing",
    "make_ss_avoiding": "hashing",
    "StateMatrix": "oracle",
    "contains_stopping_submatrix": "oracle",
    "exact_failure_probability": "oracle",
    "iter_state_matrices": "oracle",
    "peel_fixpoint": "oracle",
    "SimReport": "simulate",
    "TrialConfig": "simulate",
    "run_trials": "simulate",
    "sweep": "simulate",
    "wilson_interval": "simulate",
    "Cell": "table",
    "GetResult": "table",
    "GetStatus": "table",
    "Iblt": "table",
    "ListingResult": "table",
    "ListingStatus": "table",
}

# Every submodule but ``__main__``, which runs the CLI when imported.
_SUBMODULES = {*_EXPORTS.values(), "_bits", "_kernels_py", "cli"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
