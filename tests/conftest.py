import numpy as np
from hypothesis import HealthCheck, settings

# Derandomized so CI failures are reproducible; generous deadline headroom
# because exact-arithmetic examples vary a lot in cost.
settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def _arithmetic() -> str:
    # the Gauss polish and the float spectral cells run in np.longdouble,
    # which is the x87 80-bit type on x86 Linux and plain binary64 elsewhere
    mantissa = np.finfo(np.longdouble).nmant + 1
    return f"numpy {np.__version__}; np.longdouble has {mantissa} mantissa bits"


def pytest_report_header(config):
    return _arithmetic()


def pytest_terminal_summary(terminalreporter, config):
    # -q drops the header, so a quiet run prints the line at the end
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_arithmetic())
