"""Self-test of the independent checks: each accepts a correct answer and
rejects a corrupted one.

    python3 perfbench/selftest.py

The runner also calls :func:`run` before every measurement, so a check
that stopped rejecting anything shows as ``"correct": false``.
"""

from fractions import Fraction

import checks

F = Fraction

CHAIN = [[F(1, 2), F(1, 4), F(1, 4)],
         [F(1, 3), F(1, 3), F(1, 3)],
         [F(0), F(1, 2), F(1, 2)]]
PATH = [[0, 2, 0], [2, 0, 1], [0, 1, 1]]           # undirected, with a loop
BLOCK = [[F(1), F(0), F(0)],                        # {0} closed
         [F(1, 4), F(1, 2), F(1, 4)],               # {1} open
         [F(0), F(0), F(1)]]                        # {2} closed


def _swap(v):
    return [v[1], v[0]] + list(v[2:])


def _cases():
    """``(name, check, good_args, corrupted_args)`` for every check."""
    pi = checks.exact_stationary(CHAIN)
    w = checks.principal_minors(CHAIN)
    walk_pi = checks.exact_stationary(checks.walk_rows(PATH))
    degrees = [sum(r) for r in PATH]
    numerators = [d * 7 for d in degrees]
    vertices = [[F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    classes = [[0], [1], [2]]
    flags = [True, False, True]
    ok = (0, "pi = [1/2, 1/2]\n", "")
    return [
        ("stationary_exact", checks.check_stationary_exact,
         (CHAIN, pi), (CHAIN, _swap(pi))),
        ("stationary_exact sum", checks.check_stationary_exact,
         (CHAIN, pi), (CHAIN, [2 * x for x in pi])),
        ("stationary_exact float entries", checks.check_stationary_exact,
         (CHAIN, pi), (CHAIN, [float(x) for x in pi])),
        ("weights_exact", checks.check_weights_exact,
         (CHAIN, w), (CHAIN, [2 * x for x in w])),
        ("undirected", checks.check_undirected,
         (PATH, walk_pi), (PATH, _swap(walk_pi))),
        ("graph_pieces", checks.check_graph_pieces,
         (PATH, numerators, sum(numerators), walk_pi),
         (PATH, numerators, sum(numerators) + 1, walk_pi)),
        ("decomposition classes", checks.check_decomposition,
         (BLOCK, classes, flags, classes, flags, vertices),
         (BLOCK, classes, flags, [[0, 1], [2]], [True, True], vertices)),
        ("decomposition support", checks.check_decomposition,
         (BLOCK, classes, flags, classes, flags, vertices),
         (BLOCK, classes, flags, classes, flags,
          [[F(1, 2), F(0), F(1, 2)], vertices[1]])),
        ("decomposition vertex", checks.check_decomposition,
         (BLOCK, classes, flags, classes, flags, vertices),
         (BLOCK, classes, flags, classes, flags,
          [[F(0), F(1), F(0)], vertices[1]])),
        ("float_close", checks.check_float_close,
         ([float(x) for x in pi], pi),
         ([float(x) * (1 + 1e-7) for x in pi], pi)),
        ("float_close nan", checks.check_float_close,
         ([float(x) for x in pi], pi),
         ([float("nan")] + [float(x) for x in pi[1:]], pi)),
        ("ratio", checks.check_ratio,
         (pi[0] / pi[2], pi, 0, 2), (pi[2] / pi[0], pi, 0, 2)),
        ("exit code", checks.check_exit, (ok, 0), ((2, ok[1], ""), 0)),
        ("exit stderr", checks.check_exit,
         ((1, "", "error: row 2 sums to 11/10\n"), 1),
         ((1, "pi = [1]\n", ""), 1)),
        ("text vector", lambda out: checks.check_stationary_exact(
            [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]],
            checks.text_vector(out, "pi = ", exact=True)),
         ("pi = [1/2, 1/2]\n",), ("pi = [1/3, 2/3]\n",)),
        ("text classes", lambda out: checks.check_decomposition(
            BLOCK, classes, flags, *checks.text_classes(out), None),
         ("  class 1 (closed): states 1\n  class 2 (open): states 2\n"
          "  class 3 (closed): states 3\n",),
         ("  class 1 (closed): states 1\n  class 2 (closed): states 2\n"
          "  class 3 (closed): states 3\n",)),
    ]


def run():
    """Raise :class:`checks.CheckError` unless every check passes its good
    answer and rejects its corrupted one."""
    cases = _cases()
    for name, check, good, bad in cases:
        try:
            check(*good)
        except checks.CheckError as exc:
            raise checks.CheckError(
                f"self-test {name}: rejected a correct answer: {exc}") from exc
        try:
            check(*bad)
        except checks.CheckError:
            continue
        raise checks.CheckError(
            f"self-test {name}: accepted a corrupted answer")
    return len(cases)


if __name__ == "__main__":
    print(f"{run()} checks accept correct answers and reject corrupted ones")
