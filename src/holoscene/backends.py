"""Name of the kernel implementation, for run records.

Circular convolution and correlation have one implementation, the real-FFT
kernels in :mod:`holoscene.hrr`. These two functions remain because the
benchmark's machine record (``perfbench/run.py``) reports them; nothing in
the package imports this module.
"""


def current():
    """Name of the kernel implementation in use."""
    return "python"


def available():
    """Names of the kernel implementations that ship with the package."""
    return ["python"]
