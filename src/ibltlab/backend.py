"""Names that report which trial kernel runs.

There is one kernel module, the numpy ``_kernels_py``; these names let
run records and tools say so.  ``kernels`` is imported on first access, so
importing this module does not load numpy.
"""

backend_name = "python"


def available_backends() -> list[str]:
    return [backend_name]


def __getattr__(name):
    if name == "kernels":
        from ibltlab import _kernels_py

        return _kernels_py
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
