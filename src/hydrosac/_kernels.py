"""The numeric backend's name, for the benchmark's environment record.

numpy is the only backend, and no module of the package imports this one.
These two names stay because perfbench/envinfo.py reads them in every run.
"""

HAS_NUMBA = False


def backend():
    return "numpy"
