"""Session-wide pytest hooks: every run names the kernels it tested, and
why the fallback runs when it does."""


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
