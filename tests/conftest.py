"""Test-session header: the numpy and scipy builds that the numerics ran on."""

import numpy
import scipy


def _blas(module) -> str:
    """'name version' of the BLAS a module was built against, or 'unknown'
    when its show_config has no dict form."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def pytest_report_header(config):
    return [f"numpy {numpy.__version__} (BLAS {_blas(numpy)}), "
            f"scipy {scipy.__version__} (BLAS {_blas(scipy)})"]
