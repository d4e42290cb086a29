"""Digests of the Gauss rules and refusals on the 4221-rule grid.

Run from the repository root with the package importable, for example

    PYTHONPATH=src python3 tests/rule_grid.py > grid.txt

and compare the output of two trees with ``diff``.  ``rule_grid.txt``
beside this file holds the output of the committed tree, and CI diffs
against it, so a change that moves a rule updates that file too.  The
digests assume that np.longdouble is the x87 80-bit type.

For each exponent pair it prints the sha256 over one line per order: the
sha256 of the rule's nodes and weights, or the text of its NumericalError.
The rule cache is cleared before each rule, so every rule is built from
scratch.  The last line counts the rules and the refusals (4221 and 262).
pytest does not collect this file; it takes about 25 s on one x86-64 core.
"""

import hashlib

from jacobi_walk import ModelParams, NumericalError, gauss_jacobi_rule

PAIRS = [
    *((a, b) for a in range(7) for b in range(7)),
    (-0.5, 2.75), (0.25, -0.9), (-0.99, 3.5), (-0.5, -0.5), (2.5, 1.5),
    (40, 3), (300, 0), (100, 100), (1000, 5), (5, 1000), (1000, 0), (0, 1000), (1000, 20),
    (10**20, 0), (0, 10**20), (10**9, 0), (10**12, 0), (10**200, 0),
]
ORDERS = [*range(1, 60), 97, 141, 241, 600]


def rule_line(order: int, params: ModelParams) -> str:
    """The sha256 of the rule's nodes and weights, or its refusal text."""
    gauss_jacobi_rule.cache_clear()
    try:
        rule = gauss_jacobi_rule(order, params)
    except NumericalError as failure:
        return str(failure)
    return hashlib.sha256(rule.nodes.tobytes() + rule.weights.tobytes()).hexdigest()


def main() -> None:
    rules = refused = 0
    for alpha, beta in PAIRS:
        lines = [rule_line(order, ModelParams(alpha, beta)) for order in ORDERS]
        rules += len(lines)
        refused += sum(line.startswith("Gauss rule") for line in lines)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"{alpha!r} {beta!r} {digest}", flush=True)
    print(f"{rules} rules, {refused} refused")


if __name__ == "__main__":
    main()
