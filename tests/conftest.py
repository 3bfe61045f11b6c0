"""Test-session header: the python, numpy and scipy builds that the numerics ran on."""

from opelab.cli import toolchain


def pytest_report_header(config):
    tc = toolchain()
    return [f"python {tc['python']}, numpy {tc['numpy']} (BLAS {tc['numpy_blas']}), "
            f"scipy {tc['scipy']} (BLAS {tc['scipy_blas']})"]
