"""Session-wide pytest hooks: every run names the kernels it tested, and
why the fallback runs when it does. The `each_kernels` fixture runs a test
once under each kernel implementation."""

import pytest


def _kernels_line() -> str:
    from kcmkit import kernels
    line = f"kcmkit kernels: {kernels.IMPLEMENTATION}"
    if kernels.FALLBACK_REASON is not None:
        line += f" ({kernels.FALLBACK_REASON})"
    return line


def pytest_report_header(config):
    return _kernels_line()


def pytest_terminal_summary(terminalreporter):
    # `pytest -q` drops the header; the summary still names the kernels
    terminalreporter.write_line(_kernels_line())


@pytest.fixture(params=["pure", "compiled"])
def each_kernels(request, monkeypatch):
    """Binds every entry point of kcmkit.kernels to one implementation;
    modules look the entry points up at call time, so all of kcmkit runs
    on it."""
    from kcmkit import _pure, kernels
    impl = kernels.implementations().get(request.param)
    if impl is None:
        pytest.skip(f"the {request.param} kernels do not load")
    for name in _pure.ENTRY_POINTS:
        monkeypatch.setattr(kernels, name, getattr(impl, name))
