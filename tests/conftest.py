"""Header of every test run naming the arithmetic it used.

Round-off floors depend on the BLAS kernel that OpenBLAS picks at run time
and on its thread count, and some counts on numpy's CPU dispatch, so every
test log records them next to the Python, numpy and scipy versions: in the
header, and under -q, where pytest prints no header, in the closing summary.
"""

import os
import platform

import numpy as np
import scipy

from fem_errbal.calibration import blas_kernel


def _arithmetic() -> str:
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES")
    disabled = "unset" if disabled is None else f'"{disabled}"'
    return (f"fem-errbal arithmetic: python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, blas_kernel={blas_kernel()}, "
            f"OPENBLAS_NUM_THREADS={threads}, NPY_DISABLE_CPU_FEATURES={disabled}")


def pytest_report_header(config):
    return _arithmetic()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_arithmetic())
