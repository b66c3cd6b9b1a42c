"""Names that report which trial kernel runs.

There is one kernel module, the numpy ``_kernels_py``; these names let
run records and tools say so.
"""

from ibltlab import _kernels_py as kernels

backend_name = "python"


def available_backends() -> list[str]:
    return [backend_name]
