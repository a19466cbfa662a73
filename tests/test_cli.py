import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from equilib import Graph, StochasticMatrix, verify_equilibrium
from equilib.cli import main, parse_input, ParseError

F = Fraction

TWO_STATE = "2/3 1/3\n2/3 1/3\n"
ABSORBING_PAIR = "1 0 0\n1/3 1/3 1/3\n0 0 1\n"
PATH_GRAPH = "nodes 3\n1 2\n2 1\n2 3\n3 2\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- parse_input -----------------------------------------------------------------

def test_parse_matrix_rational_literals():
    doc = parse_input("1/3 2/3\n2/3 1/3\n")
    assert isinstance(doc, StochasticMatrix)
    assert doc.mode == "exact"
    assert doc.p[0, 1] == F(2, 3)


def test_parse_matrix_decimals_infer_float():
    doc = parse_input("0.25, 0.75\n0.5, 0.5\n")
    assert doc.mode == "float"
    assert doc.p[0, 0] == 0.25


def test_parse_matrix_mode_override_exactifies_decimals():
    doc = parse_input("0.1 0.9\n0.5 0.5\n", mode="exact")
    assert doc.mode == "exact"
    assert doc.p[0, 0] == F(1, 10)


def test_parse_graph_edge_list():
    doc = parse_input(PATH_GRAPH)
    assert isinstance(doc, Graph)
    assert doc.adjacency == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_parse_graph_adjacency_rows():
    doc = parse_input("0 1\n1 0\n", fmt="graph")
    assert isinstance(doc, Graph)
    assert doc.adjacency == [[0, 1], [1, 0]]


def test_parse_json_matrix_document():
    doc = parse_input(json.dumps(
        {"kind": "matrix", "n": 2, "rows": [["1/3", "2/3"], ["1", "0"]]}))
    assert doc.mode == "exact"
    assert doc.p[0, 0] == F(1, 3)


def test_parse_json_graph_document():
    doc = parse_input(json.dumps(
        {"kind": "graph", "n": 2, "rows": [[0, 2], [1, 0]]}))
    assert isinstance(doc, Graph)
    assert doc.adjacency == [[0, 2], [1, 0]]


def test_parse_malformed_literal_reports_position():
    with pytest.raises(ParseError, match="line 2, entry 1"):
        parse_input("1/2 1/2\nx 1\n")


def test_parse_non_square_matrix_rejected():
    with pytest.raises(ParseError, match="square"):
        parse_input("1/2 1/2\n1\n")


def test_parse_row_sum_violation_reported():
    with pytest.raises(ParseError, match="row 1"):
        parse_input("0.5 0.6\n0.5 0.5\n")


def test_parse_graph_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_input("nodes 2\n1 3\n")


def test_parse_graph_without_nodes():
    with pytest.raises(ParseError,
                       match="^line 1: node count must be positive$"):
        parse_input("nodes 0\n")


def test_parse_graph_negative_multiplicity():
    with pytest.raises(ParseError, match="^line 3: negative multiplicity$"):
        parse_input("nodes 2\n1 2\n2 1 -1\n")


# --- subcommands -----------------------------------------------------------------

def test_stationary_unique_text_and_exit_code(tmp_path, capsys):
    path = write(tmp_path, "m.txt", TWO_STATE)
    code, out, _ = run(capsys, "stationary", path)
    assert code == 0
    assert "pi = [2/3, 1/3]" in out


def test_stationary_degenerate_report_and_exit_code(tmp_path, capsys):
    path = write(tmp_path, "m.txt", ABSORBING_PAIR)
    code, out, _ = run(capsys, "stationary", path)
    assert code == 2
    assert "degenerate" in out
    assert "[1, 0, 0]" in out
    assert "[0, 0, 1]" in out


def test_stationary_json_round_trips_through_verify(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", TWO_STATE)
    code, out, _ = run(capsys, "stationary", "--json", matrix)
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "unique"
    assert payload["pi"] == ["2/3", "1/3"]
    pi_file = write(tmp_path, "pi.json", out)
    code, out, _ = run(capsys, "verify", pi_file, matrix)
    assert code == 0
    assert "residual = 0" in out


def test_float_json_round_trip_residual(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", "0.9 0.1\n0.35 0.65\n")
    code, out, _ = run(capsys, "stationary", "--json", matrix)
    payload = json.loads(out)
    assert payload["mode"] == "float"
    pi_file = write(tmp_path, "pi.json", out)
    code, out, _ = run(capsys, "verify", pi_file, matrix)
    assert code == 0
    residual = float(out.split("=")[1])
    assert residual <= 1e-12


def test_weights_on_matrix(tmp_path, capsys):
    path = write(tmp_path, "m.txt", TWO_STATE)
    code, out, _ = run(capsys, "weights", path)
    assert code == 0
    assert "w = [2/3, 1/3]" in out
    assert "total = 1" in out


def test_weights_on_graph_shows_integers(tmp_path, capsys):
    path = write(tmp_path, "g.txt", PATH_GRAPH)
    code, out, _ = run(capsys, "weights", path)
    assert code == 0
    assert "numerators = [1, 2, 1]" in out
    assert "denominator = 4" in out
    assert "pi = [1/4, 1/2, 1/4]" in out


def test_weights_on_degenerate_graph_exit_two(tmp_path, capsys):
    # two disjoint 2-cycles: two closed classes, every numerator vanishes
    path = write(tmp_path, "g.txt", "nodes 4\n1 2\n2 1\n3 4\n4 3\n")
    code, out, _ = run(capsys, "weights", path)
    assert code == 2
    assert out == ("numerators = [0, 0, 0, 0]\ndenominator = 0\n"
                   "degenerate chain: all weights vanish\n")
    code, out, _ = run(capsys, "weights", "--json", path)
    assert code == 2
    assert json.loads(out) == {"kind": "weights", "mode": "exact",
                               "numerators": [0, 0, 0, 0], "denominator": 0}


def test_graph_stationary_command(tmp_path, capsys):
    path = write(tmp_path, "g.txt", PATH_GRAPH)
    code, out, _ = run(capsys, "stationary", path)
    assert code == 0
    assert "pi = [1/4, 1/2, 1/4]" in out


def test_classes_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "m.txt", ABSORBING_PAIR)
    code, out, _ = run(capsys, "classes", path)
    assert code == 2
    assert "transitory states: 2" in out
    path = write(tmp_path, "m2.txt", TWO_STATE)
    code, _, _ = run(capsys, "classes", path)
    assert code == 0


def test_polytope_lists_vertices(tmp_path, capsys):
    path = write(tmp_path, "m.txt", ABSORBING_PAIR)
    code, out, _ = run(capsys, "polytope", "--json", path)
    assert code == 2
    payload = json.loads(out)
    verts = payload["report"]["vertex_equilibria"]
    assert verts == [["1", "0", "0"], ["0", "0", "1"]]
    assert payload["report"]["classes"] == [[1], [2], [3]]


def test_ratio_command(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1/2 1/2 0\n0 2/3 1/3\n1/4 0 3/4\n")
    code, out, _ = run(capsys, "ratio", "1", "2", path)
    assert code == 0
    assert out.startswith("pi[1] / pi[2]")


def test_ratio_zero_weight_is_an_error(tmp_path, capsys):
    path = write(tmp_path, "m.txt",
                 "1/2 1/2 0\n1/3 1/3 1/3\n0 0 1\n")
    code, _, err = run(capsys, "ratio", "1", "1", path)
    assert code == 1
    assert "error" in err


def test_compare_on_exact_input(tmp_path, capsys):
    path = write(tmp_path, "m.txt", TWO_STATE)
    code, out, _ = run(capsys, "compare", path)
    assert code == 0
    assert "minor_weights" in out
    assert "linear_solve" in out
    assert "power_method" in out
    assert "max pairwise L-inf difference" in out


def test_compare_degenerate_input(tmp_path, capsys):
    path = write(tmp_path, "m.txt", ABSORBING_PAIR)
    code, out, _ = run(capsys, "compare", path)
    assert code == 2
    assert "degenerate" in out
    assert "singular" in out


def test_epsilon_flag_lifts_degeneracy(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 0\n0 1\n")
    code, out, _ = run(capsys, "stationary", "--epsilon", "1/100", path)
    assert code == 0
    assert "pi = [1/2, 1/2]" in out


def test_mode_flag_switches_output_to_float(tmp_path, capsys):
    path = write(tmp_path, "m.txt", TWO_STATE)
    code, out, _ = run(capsys, "stationary", "--mode", "float", path)
    assert code == 0
    assert "0.666667" in out


def test_mode_env_var_sets_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EQUILIB_MODE", "float")
    path = write(tmp_path, "m.txt", TWO_STATE)
    code, out, _ = run(capsys, "stationary", path)
    assert code == 0
    assert "0.666667" in out


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(TWO_STATE))
    code, out, _ = run(capsys, "stationary", "-")
    assert code == 0
    assert "pi = [2/3, 1/3]" in out


def test_parse_error_exits_one(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "0.5 0.6\n0.5 0.5\n")
    code, _, err = run(capsys, "stationary", path)
    assert code == 1
    assert "error:" in err


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "stationary", "/no/such/file")
    assert code == 1
    assert "cannot read" in err


def test_zero_out_degree_reported_one_based(tmp_path, capsys):
    path = write(tmp_path, "g.txt", "nodes 2\n1 2\n")
    code, _, err = run(capsys, "stationary", path)
    assert code == 1
    assert "node 2" in err


def test_sink_in_a_huge_edge_list_is_reported_before_the_dense_matrix(
        tmp_path):
    # the dense 10^6 x 10^6 adjacency would take terabytes: the address-space
    # cap turns a regression into a MemoryError instead of starving the host
    path = write(tmp_path, "g.txt", "nodes 1000000\n1 2\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parent.parent / "src"),
        env.get("PYTHONPATH")]))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "equilib.cli", "stationary", path], env=env,
        capture_output=True, text=True, timeout=60, preexec_fn=cap_memory)
    assert proc.returncode == 1
    assert proc.stderr == ("error: node 2 has no outgoing edges; "
                           "the random walk is undefined\n")
    # the whole process, interpreter and numpy start-up included
    assert time.perf_counter() - start < 3.0


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "error" in err


def test_unknown_flag_exits_one(capsys):
    code, _, _ = run(capsys, "stationary", "--no-such-flag")
    assert code == 1


def _help_lines(capsys, monkeypatch, *argv):
    """The stripped lines of ``--help`` at 80 columns; the exit must be 0.

    The lines are matched, not the whole page: the heading of the options
    differs between Python versions.
    """
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv, "--help")
    assert (code, err) == (0, "")
    return [" ".join(line.split()) for line in out.splitlines()]


def test_help_lists_each_subcommand_in_order(capsys, monkeypatch):
    lines = _help_lines(capsys, monkeypatch)
    expected = [
        "stationary stationary distribution, or the degeneracy report",
        "weights unnormalized minor weights (integers for graphs)",
        "classes communicating classes and closed/transitory split",
        "polytope vertex equilibria spanning all stationary vectors",
        "ratio stationary probability ratio of two states",
        "compare minor method vs. linear solve vs. power method",
        "verify residual of a candidate stationary vector",
    ]
    assert [line for line in lines if line in expected] == expected
    assert "{stationary,weights,classes,polytope,ratio,compare,verify}" \
        in lines


def test_ratio_help_lists_its_positionals(capsys, monkeypatch):
    lines = _help_lines(capsys, monkeypatch, "ratio")
    expected = ["i state index (1-based)", "j state index (1-based)",
                "file|- input file, or - for stdin (default)"]
    assert [line for line in lines if line in expected] == expected


def test_edge_threshold_flag(tmp_path, capsys):
    # a tiny float entry is an edge: one closed class, and no cutoff flag
    noise = 5e-15
    path = write(tmp_path, "m.txt",
                 f"{1 - noise!r} {noise!r}\n0.0 1.0\n")
    code, _, _ = run(capsys, "classes", path)
    assert code == 0
    code, _, err = run(capsys, "classes", "--edge-threshold", "1e-16", path)
    assert code == 1
    assert "error" in err


def test_weights_exit_code_comes_from_structure(tmp_path, capsys):
    # every float weight of this valid lazy cycle underflows to zero
    n = 110
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = "0.999"
        rows[i][(i + 1) % n] = "0.001"
    path = write(tmp_path, "lazy.txt", "".join(" ".join(r) + "\n"
                                               for r in rows))
    code, out, _ = run(capsys, "weights", path)
    assert code == 0
    assert "total = 0" in out
    path = write(tmp_path, "m.txt", ABSORBING_PAIR)
    code, out, _ = run(capsys, "weights", path)
    assert code == 2
    assert "total = 0" in out


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_json_entry_is_a_located_error(tmp_path, capsys, literal):
    doc = ('{"kind": "matrix", "n": 2, "rows": [[0.5, 0.5], [%s, 1.0]]}'
           % literal)
    path = write(tmp_path, "m.json", doc)
    code, out, err = run(capsys, "stationary", path)
    assert code == 1
    assert out == ""
    assert "error: entry at row 2, column 1 is not finite" in err


@pytest.mark.parametrize("literal, shown", [("NaN", "nan"),
                                            ("1e999", "inf")])
def test_non_finite_json_entry_in_exact_mode_is_located(tmp_path, capsys,
                                                         literal, shown):
    # an exact document is read whole by the library's reader, which names
    # the entry as the other JSON entry errors do
    doc = ('{"kind": "matrix", "n": 2, "rows": [[0.5, 0.5], [%s, 1.0]]}'
           % literal)
    path = write(tmp_path, "m.json", doc)
    assert run(capsys, "stationary", "--mode", "exact", path) == (
        1, "", f"error: row 2, column 1: {shown} is not finite\n")


def test_overflowing_decimal_is_a_located_error(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "0.5 0.5\n1e999 0\n")
    code, out, err = run(capsys, "stationary", path)
    assert code == 1
    assert "error: line 2, entry 1" in err


def test_verify_rejects_json_booleans(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", TWO_STATE)
    pi_file = write(tmp_path, "pi.json", '{"pi": [true, false]}')
    code, out, err = run(capsys, "verify", pi_file, matrix)
    assert code == 1
    assert out == ""
    assert "error: malformed vector entry True" in err


def test_verify_rejects_non_finite_json_entries(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", TWO_STATE)
    pi_file = write(tmp_path, "pi.json", '{"pi": [NaN, 0.5]}')
    code, _, err = run(capsys, "verify", pi_file, matrix)
    assert code == 1
    assert "error: vector entry 1 is not finite" in err


def test_verify_decimal_vector_against_exact_chain_is_float(tmp_path,
                                                            capsys):
    matrix = write(tmp_path, "m.txt", "1/2 1/2\n1/3 2/3\n")
    pi_file = write(tmp_path, "pi.txt", "2/5 0.6\n")
    expected = verify_equilibrium(
        [0.4, 0.6], StochasticMatrix([[0.5, 0.5], [1 / 3, 2 / 3]]))
    code, out, _ = run(capsys, "verify", pi_file, matrix)
    assert code == 0
    assert out == f"residual = {expected:.6g}\n"
    code, out, _ = run(capsys, "verify", "--json", pi_file, matrix)
    assert code == 0
    residual = json.loads(out)["residual"]
    assert type(residual) is float and residual == expected


def test_json_matrix_row_that_is_not_a_list_is_located(tmp_path, capsys):
    path = write(tmp_path, "m.json", '{"kind": "matrix", "rows": [1, 2]}')
    code, out, err = run(capsys, "stationary", path)
    assert code == 1
    assert out == ""
    assert "error: row 1 is not a list" in err
    path = write(tmp_path, "g.json", '{"kind": "graph", "rows": [[1], 2]}')
    code, _, err = run(capsys, "stationary", path)
    assert code == 1
    assert "error: row 2 is not a list" in err


@pytest.mark.parametrize("rows", ['[[1, 0], [1]]', '[[0.5, 0.5], [1.0]]'])
def test_ragged_json_matrix_rows_are_located(tmp_path, capsys, rows):
    path = write(tmp_path, "m.json", '{"kind": "matrix", "rows": %s}' % rows)
    code, out, err = run(capsys, "stationary", path)
    assert code == 1
    assert out == ""
    assert "error: row 2 has 1 entries, expected 2" in err


@pytest.mark.parametrize("entry, shown", [
    ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"),
    ('"a"', "'a'"), ("null", "None"), ("true", "True"), ("false", "False"),
    ('"1_0"', "'1_0'"), ('" 1"', "' 1'"), ('"\\u0661"', "'\u0661'"),
])
def test_json_graph_entry_that_is_not_an_integer_is_located(
        tmp_path, capsys, entry, shown):
    path = write(tmp_path, "g.json",
                 '{"kind": "graph", "rows": [[%s, 1], [1, 0]]}' % entry)
    code, out, err = run(capsys, "stationary", path)
    assert code == 1
    assert out == ""
    assert f"error: adjacency entry (1, 1) = {shown} is not an integer" in err


@pytest.mark.parametrize("place", ["matrix", "graph", "vector"])
def test_json_number_past_the_int_digit_limit_is_located(tmp_path, capsys,
                                                         place):
    big = "1" + "0" * 4399
    matrix = write(tmp_path, "m.txt", TWO_STATE)
    argv, where = {
        "matrix": (["stationary", write(
            tmp_path, "m.json",
            '{"kind": "matrix", "rows": [[%s, 0], [0, 1]]}' % big)],
            "invalid JSON document: "),
        "graph": (["stationary", write(
            tmp_path, "g.json",
            '{"kind": "graph", "rows": [[%s, 1], [1, 0]]}' % big)],
            "invalid JSON document: "),
        "vector": (["verify", write(tmp_path, "pi.json",
                                    '{"pi": [%s, 0]}' % big), matrix],
                   "invalid JSON vector: "),
    }[place]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {where}") and "4300" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("mode", [[], ["--mode", "float"]])
def test_json_string_overflowing_a_float_is_located(tmp_path, capsys, mode):
    path = write(tmp_path, "m.json",
                 '{"kind": "matrix", "rows": [[0.5, 0.5], ["1e999", 0]]}')
    code, out, err = run(capsys, "stationary", *mode, path)
    assert code == 1
    assert out == ""
    assert "error: row 2, column 1: 1e999 overflows a float" in err


@pytest.mark.parametrize("mode",
                         [[], ["--mode", "float"], ["--mode", "exact"]])
@pytest.mark.parametrize("token", ["1/0", "abc", "1e100000000",
                                   "9" * 20000 + "x", "\u0661", "0.\u0665"],
                         ids=["1/0", "abc", "1e100000000", "long-malformed",
                              "non-ascii-integer", "non-ascii-decimal"])
@pytest.mark.parametrize("place", ["matrix text", "JSON matrix", "text vector",
                                   "JSON vector", "--epsilon"])
def test_bad_literal_is_a_located_error_at_once(tmp_path, capsys, place,
                                                token, mode):
    # every input reads the same literals; 1e100000000 must not build the
    # integer 10**100000000 before it is rejected, and a long malformed
    # token must not make the grammar backtrack quadratically
    matrix = write(tmp_path, "m.txt", TWO_STATE)
    argv, where = {
        "matrix text": (
            ["stationary",
             write(tmp_path, "bad.txt", f"2/3 1/3\n{token} 0\n")],
            "line 2, entry 1: "),
        "JSON matrix": (
            ["stationary", write(tmp_path, "bad.json", json.dumps(
                {"kind": "matrix", "rows": [["2/3", "1/3"], [token, "0"]]}))],
            "row 2, column 1: "),
        "text vector": (
            ["verify", write(tmp_path, "pi.txt", f"{token} 1/3\n"), matrix],
            f"malformed vector entry {token!r}"),
        "JSON vector": (
            ["verify", write(tmp_path, "pi.json",
                             json.dumps({"pi": [token, "1/3"]})), matrix],
            f"malformed vector entry {token!r}"),
        "--epsilon": (["stationary", "--epsilon", token, matrix],
                      "malformed --epsilon value "),
    }[place]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, *mode)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {where}") and err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("nodes 2\n1 \u0662\n2 1\n",
     "line 2: expected an edge 'i j [multiplicity]', got '1 \u0662'"),
    ("nodes \u00b2\n1 2\n2 1\n",
     "line 1: expected a header 'nodes N', got 'nodes \u00b2'"),
], ids=["edge", "header"])
def test_non_ascii_digits_in_an_edge_list_are_located(tmp_path, capsys, text,
                                                      message):
    code, out, err = run(capsys, "stationary", write(tmp_path, "g.txt", text))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("text, where", [
    ("nodes 1" + "0" * 5000 + "\n1 1\n", "line 1: node count"),
    ("nodes 2\n1 2\n\n2 1" + "0" * 5000 + "\n", "line 4: edge field"),
    ("nodes 2\n1 2\n2 1 1" + "0" * 5000 + "\n", "line 3: edge field"),
], ids=["header", "edge-index", "edge-multiplicity"])
def test_graph_field_past_the_int_digit_limit_is_located(tmp_path, capsys,
                                                         text, where):
    code, out, err = run(capsys, "stationary", write(tmp_path, "g.txt", text))
    assert code == 1
    assert out == ""
    assert err == f"error: {where} exceeds the 4300-digit limit\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-12", "1_0",
                                 "1e999", "abc", "", "\u0661e-3"])
def test_tol_is_a_finite_nonnegative_literal(tmp_path, capsys, tol):
    path = write(tmp_path, "m.txt", TWO_STATE)
    code, out, err = run(capsys, "compare", f"--tol={tol}", path)
    assert code == 1
    assert out == ""
    assert f"error: argument --tol: malformed --tol value {tol!r}" in err


@pytest.mark.parametrize("tol", ["0", "1e-9", "1/1000", "0.5"])
def test_tol_takes_the_literal_grammar(tmp_path, capsys, tol):
    path = write(tmp_path, "m.txt", TWO_STATE)
    code, out, _ = run(capsys, "compare", "--json", f"--tol={tol}", path)
    assert code == 0
    methods = json.loads(out)["methods"]
    assert methods["power_method"]["pi"] == [2 / 3, 1 / 3]


@pytest.mark.parametrize("index", ["\u0662", "1_0", " 2"])
def test_ratio_index_takes_ascii_digits_only(tmp_path, capsys, index):
    path = write(tmp_path, "m.txt", TWO_STATE)
    code, out, err = run(capsys, "ratio", index, "1", path)
    assert code == 1
    assert out == ""
    assert f"error: argument i: invalid int value: {index!r}" in err


@pytest.mark.parametrize("index, argv", [("i", ["1" * 5000, "1"]),
                                         ("j", ["1", "2" * 5000])])
def test_ratio_index_past_the_int_digit_limit_is_named(tmp_path, capsys,
                                                       index, argv):
    path = write(tmp_path, "m.txt", TWO_STATE)
    code, out, err = run(capsys, "ratio", *argv, path)
    assert code == 1
    assert out == ""
    assert err.endswith(f"error: argument {index}: state index exceeds the "
                        "4300-digit limit\n")
    assert "1" * 100 not in err and "2" * 100 not in err


@pytest.mark.parametrize("kind, message", [
    ("graph", "a graph needs at least one node"),
    ("matrix", "a stochastic matrix needs at least one state")])
def test_empty_json_document_is_rejected(tmp_path, capsys, kind, message):
    path = write(tmp_path, "m.json", json.dumps({"kind": kind, "rows": []}))
    assert run(capsys, "stationary", path) == (1, "", f"error: {message}\n")


def test_parse_graph_in_float_mode_gives_its_float_walk_matrix():
    doc = parse_input(PATH_GRAPH, mode="float")
    assert isinstance(doc, StochasticMatrix)
    assert doc.mode == "float"
    assert doc.p.tolist() == [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5],
                              [0.0, 1.0, 0.0]]


@pytest.mark.parametrize("command, text, payload", [
    ("stationary", "pi = [0.25, 0.5, 0.25]\n",
     {"kind": "stationary", "mode": "float", "weights": [0.5, 1.0, 0.5],
      "variant": "unique", "pi": [0.25, 0.5, 0.25]}),
    ("weights", "w = [0.5, 1, 0.5]\ntotal = 2\n",
     {"kind": "weights", "mode": "float", "weights": [0.5, 1.0, 0.5],
      "total": 2.0}),
])
def test_graph_under_float_mode_is_solved_in_float(tmp_path, capsys, command,
                                                   text, payload):
    path = write(tmp_path, "g.txt", PATH_GRAPH)
    assert run(capsys, command, "--mode", "float", path) == (0, text, "")
    code, out, _ = run(capsys, command, "--json", "--mode", "float", path)
    assert code == 0
    got = json.loads(out)
    assert got == payload
    assert all(type(x) is float for x in got["weights"])


# --- error branches and the order of errors --------------------------------------


def test_exact_literal_overflowing_a_float_is_located(tmp_path, capsys):
    big = "1" + "0" * 400
    path = write(tmp_path, "m.txt", f"{big}/3 0\n0 1\n")
    assert run(capsys, "stationary", "--mode", "float", path) == (
        1, "", f"error: line 1, entry 1: {big}/3 overflows a float\n")


def test_json_document_that_is_not_an_object_is_rejected(tmp_path, capsys):
    path = write(tmp_path, "m.json", "[1, 2]")
    assert run(capsys, "stationary", "--format", "json", path) == (
        1, "", "error: JSON document must be an object with a 'kind' field\n")


def test_vector_file_of_comments_only_is_rejected(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", TWO_STATE)
    pi_file = write(tmp_path, "pi.txt", "# nothing\n")
    assert run(capsys, "verify", pi_file, matrix) == (
        1, "", "error: no vector entries found\n")


def test_unknown_input_format_is_a_parse_error():
    with pytest.raises(ParseError, match="unknown input format 'xml'"):
        parse_input("1 0\n0 1\n", fmt="xml")


@pytest.mark.parametrize("name, text, flags, message", [
    ("m.txt", TWO_STATE, ["--epsilon", "abc"],
     "malformed --epsilon value 'abc'"),
    ("g.json", '{"kind": "graph", "rows": [[0, 1], [0, 0]]}', [],
     "node 2 has no outgoing edges; the random walk is undefined"),
], ids=["bad-epsilon", "graph-sink"])
def test_verify_reports_a_bad_chain_before_an_unreadable_vector(
        tmp_path, capsys, name, text, flags, message):
    # main settles the chain a run works on before verify reads its vector
    source = write(tmp_path, name, text)
    missing = str(tmp_path / "nope.json")
    assert run(capsys, "verify", missing, source, *flags) == (
        1, "", f"error: {message}\n")
