import ast
import io
import tokenize
from pathlib import Path

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

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jacobi_walk"
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _arithmetic() -> str:
    # the Gauss polish and the float spectral cells run in np.longdouble,
    # which is the x87 80-bit type on x86 Linux and plain binary64 elsewhere
    mantissa = np.finfo(np.longdouble).nmant + 1
    return f"numpy {np.__version__}; np.longdouble has {mantissa} mantissa bits"


def _line_count() -> str:
    """Physical lines of the package's modules, and code lines: those that
    hold a token other than a comment, outside docstrings."""
    physical = code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        lines = set()
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type not in NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
        physical += len(text.splitlines())
        code += len(lines - docstrings)
    return f"src/jacobi_walk/*.py: {physical} physical lines, {code} code lines"


def pytest_report_header(config):
    return [_arithmetic(), _line_count()]


def pytest_terminal_summary(terminalreporter, config):
    # -q drops the header, so a quiet run prints the lines at the end
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_arithmetic())
        terminalreporter.write_line(_line_count())
