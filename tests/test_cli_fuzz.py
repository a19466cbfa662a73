"""Fuzzing of the CLI's input parsers.

JSON documents are built from nested lists, ints, floats (NaN and
infinities too), strings, booleans and null; text inputs are matrix rows
and ``nodes N`` edge lists built from ints, rationals, decimals, junk,
``#`` comments, commas and ragged lines.  Each is run through
:func:`equilib.cli.main` in the same process.  Every outcome must be a
result (exit 0 or 2) or a reported error (exit 1 with ``error: ...`` on
stderr), never an uncaught exception.
"""

import contextlib
import io
import json
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

from equilib.cli import main

# the huge exponents ask for integers of millions of digits: a parser that
# builds the exact value first hangs on them
HUGE_EXPONENTS = ["1e100000000", "-1e10000000", "1e-100000000"]
NUMERIC_TEXT = ["0", "1", "-1", "1/2", "2/3", "1/0", "0.5", ".25", "1e999",
                "1e-400", "-0.5", "3/2", "x", "", "nan", "1//2",
                *HUGE_EXPONENTS]

scalars = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 0.5, 0.25, 1.0]),
    st.sampled_from(NUMERIC_TEXT),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
)

# whole rows that are valid for a matrix, so that some documents get past
# validation to the commands
VALID_ROWS = {
    2: [[1, 0], [0, 1], ["1/2", "1/2"], [0.25, 0.75], ["1/3", "2/3"]],
    3: [[1, 0, 0], [0, 1, 0], [0, 0, 1], ["1/3", "1/3", "1/3"],
        [0, 0.5, 0.5], ["1/2", 0, "1/2"]],
}


def square(n):
    row = st.one_of(st.sampled_from(VALID_ROWS[n]),
                    st.lists(st.one_of(st.integers(0, 2), scalars),
                             min_size=n, max_size=n))
    return st.lists(row, min_size=n, max_size=n)


rows = st.one_of(
    st.sampled_from(sorted(VALID_ROWS)).flatmap(square),
    st.recursive(scalars, lambda inner: st.lists(inner, max_size=4),
                 max_leaves=20),
)

documents = st.fixed_dictionaries(
    {"kind": st.sampled_from(["matrix", "graph", "other"]),
     "rows": rows},
    optional={"n": st.one_of(st.integers(0, 4), st.none(),
                             st.text(max_size=2))},
)

commands = st.sampled_from([
    ["stationary"], ["weights"], ["classes"], ["polytope"],
    ["ratio", "1", "2"], ["stationary", "--json"],
])

modes = st.sampled_from([[], ["--mode", "exact"], ["--mode", "float"]])


# text tokens; node counts stay small, so no input asks for a huge graph
INT_TOKENS = ["0", "1", "2", "3", "-1", "+1", "10", "007"]
TEXT_TOKENS = INT_TOKENS + [
    "1/2", "1/3", "2/3", "3/2", "1/0", "-1/2", "0/5",
    "0.5", ".25", "0.75", "1.", "1e-3", "5e-15", "1e999", "1e-400", "-0.5",
    "x", "1//2", "nan", "inf", "1/2/3", "0x1", "--1", "½", "1,5",
    *HUGE_EXPONENTS,
]
separators = st.sampled_from([" ", "  ", ",", ", ", "\t", " , "])
comments = st.sampled_from(["", "", " # note", "#", " # 1 2 3"])


def text_line(tokens, min_size=0, max_size=4):
    return st.builds(
        lambda toks, sep, note: sep.join(toks) + note,
        st.lists(tokens, min_size=min_size, max_size=max_size),
        separators, comments)


def joined(lines):
    return st.lists(lines, max_size=5).map("\n".join)


# square tables of valid rows, so that some matrices reach the commands
VALID_TEXT_ROWS = {
    2: ["1/2 1/2", "0.25 0.75", "1 0", "0 1", "1/3, 2/3"],
    3: ["1/3 1/3 1/3", "0 0.5 0.5", "1 0 0", "0 0 1", "1/2,0,1/2"],
}
matrix_texts = st.one_of(
    joined(text_line(st.sampled_from(TEXT_TOKENS), 1)),
    st.sampled_from(sorted(VALID_TEXT_ROWS)).flatmap(
        lambda n: st.lists(st.sampled_from(VALID_TEXT_ROWS[n]),
                           min_size=n, max_size=n).map("\n".join)),
)

# in-range node indices come up more often, so that some edges are read
edge_tokens = st.one_of(st.sampled_from(INT_TOKENS),
                        st.sampled_from(["1", "2", "3"]),
                        st.sampled_from(TEXT_TOKENS))
graph_texts = st.builds(
    lambda header, note, body: header + note + "\n" + body,
    st.sampled_from(["nodes 1", "nodes 2", "nodes 3", "nodes 4", "NODES 2",
                     "nodes 0", "nodes", "nodes x", "nodes -1", "nodes 2 3",
                     "# nodes 2"]),
    comments,
    joined(text_line(edge_tokens, 1)),
)

formats = st.sampled_from([[], ["--format", "auto"], ["--format", "matrix"],
                           ["--format", "graph"]])


def run_in_process(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents, command=commands, mode=modes)
def test_json_documents_give_a_result_or_a_located_error(doc, command, mode):
    text = json.dumps(doc, allow_nan=True)
    code, out, err = run_in_process(command + ["-"] + mode, text)
    assert_result_or_located_error(code, out, err)


def assert_result_or_located_error(code, out, err):
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(matrix_texts, graph_texts), command=commands,
       mode=modes, fmt=formats)
def test_text_inputs_give_a_result_or_a_located_error(text, command, mode,
                                                      fmt):
    code, out, err = run_in_process(command + ["-"] + mode + fmt, text)
    assert_result_or_located_error(code, out, err)
