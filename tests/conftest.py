"""Run BLAS on one thread in every test process.

The criteria's wall-clock bounds hold dense `eig`s; with the default
thread count two suites sharing a small machine oversubscribe its cores.
OpenBLAS, OpenMP and MKL read these variables once, when numpy loads,
so they are set before anything imports numpy.  A value already in the
environment wins.

That is also why the warning filters naming numpy and fvps classes are
added here and not in pyproject.toml: pytest imports a filter's class
module when it applies the ini filters, which it does before it loads
this file.  Added in `pytest_configure`, they still hold for the whole
collection and every test.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


def pytest_configure(config):
    for line in ("error::numpy.exceptions.ComplexWarning", "error::fvps.errors.ResolutionWarning"):
        config.addinivalue_line("filterwarnings", line)
