"""Session-wide pytest hooks: every run names the kernels it tested."""


def _kernels_line() -> str:
    from kcmkit import kernels
    return f"kcmkit kernels: {kernels.IMPLEMENTATION}"


def pytest_report_header(config):
    return _kernels_line()


def pytest_terminal_summary(terminalreporter):
    # `pytest -q` drops the header; the summary still names the kernels
    terminalreporter.write_line(_kernels_line())
