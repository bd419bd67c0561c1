"""End-to-end command-line behavior, run in process through cli.main."""

import json
import subprocess
import sys

import pytest

from shiftlab import (
    Backend,
    SimplicialComplex,
    UniformHypergraph,
    betti_numbers,
    build_shift_graph,
    build_shift_graph_from,
    contract,
    export_dot,
    export_json,
    hypergraph_to_json,
    make_field_context,
)
from shiftlab import reproduce
from shiftlab.cli import main
from shiftlab.reproduce import available_targets

RP2_FACETS = [
    [1, 2, 5], [1, 2, 6], [1, 3, 4], [1, 3, 5], [1, 4, 6],
    [2, 3, 4], [2, 3, 6], [2, 4, 5], [3, 5, 6], [4, 5, 6],
]


@pytest.fixture()
def rp2_file(tmp_path):
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps({"n": 6, "facets": RP2_FACETS}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_ok(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return out


# ------------------------------------------------------------------ shift


def test_shift_hypergraph_by_longest_permutation(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"n": 4, "k": 2, "edges": [[1, 2], [2, 3]]}))
    for char in ("0", "2"):
        out = run_ok(capsys, "shift", "-i", str(path), "--perm", "w0", "--char", char)
        assert json.loads(out) == {"n": 4, "k": 2, "edges": [[1, 2], [1, 3]]}
        assert out.endswith("\n")


def test_shift_by_identity_echoes_canonical_form(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"n": 4, "k": 2, "edges": [[3, 2], [2, 1]]}))
    out = run_ok(capsys, "shift", "-i", str(path), "--perm", "e")
    assert json.loads(out)["edges"] == [[1, 2], [2, 3]]


def test_shift_with_named_vandermonde_matrix(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(
        json.dumps(
            {"n": 6, "k": 3, "edges": [[1, 2, 3], [1, 4, 5], [2, 4, 6], [3, 5, 6]]}
        )
    )
    out = run_ok(capsys, "shift", "-i", str(path), "--matrix", "vandermonde6")
    assert json.loads(out)["edges"] == [[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 4]]
    out = run_ok(capsys, "shift", "-i", str(path), "--matrix", "generic6")
    assert json.loads(out)["edges"] == [[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 2, 6]]


def test_shift_reads_stdin_and_writes_text(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        sys, "stdin", io.StringIO(json.dumps({"n": 4, "k": 2, "edges": [[1, 2], [2, 3]]}))
    )
    out = run_ok(capsys, "shift", "-i", "-", "--perm", "w0", "--format", "text")
    assert out == "1 2\n1 3\n"


def test_shift_text_input_modes(tmp_path, capsys):
    path = tmp_path / "faces.txt"
    path.write_text("# comment\n1,2\n2 3\n")
    out = run_ok(capsys, "shift", "-i", str(path), "--perm", "w0", "--n", "4")
    assert json.loads(out) == {"n": 4, "k": 2, "edges": [[1, 2], [1, 3]]}
    # same faces forced to a complex: closure is taken, facets come back
    out = run_ok(
        capsys, "shift", "-i", str(path), "--perm", "w0", "--n", "4", "--as", "complex"
    )
    assert json.loads(out) == {"n": 4, "facets": [[1, 2], [1, 3]]}
    # without --n the vertex count defaults to the largest label seen
    out = run_ok(capsys, "shift", "-i", str(path), "--perm", "w0")
    assert json.loads(out)["n"] == 3
    # a line with text but no vertices is not an empty face
    path.write_text(",\n")
    code, _, err = run_cli(capsys, "shift", "-i", str(path), "--perm", "e")
    assert code == 2 and "no vertices" in err


def test_shift_complex_input(rp2_file, capsys):
    out = run_ok(capsys, "shift", "-i", rp2_file, "--perm", "w0", "--char", "2")
    payload = json.loads(out)
    K = SimplicialComplex.from_facets(payload["n"], payload["facets"])
    assert betti_numbers(K, 2).values == (1, 1, 1)
    original = SimplicialComplex.from_facets(6, RP2_FACETS)
    assert K.f_vector() == original.f_vector()


def test_shift_with_matrix_file(tmp_path, capsys):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"n": 3, "k": 2, "edges": [[1, 3], [2, 3]]}))
    mat = tmp_path / "mat.json"
    mat.write_text(
        json.dumps(
            {"n": 3, "entries": [["x1,1", "x1,2", "x1,3"], [0, "x2,2", "x2,3"], [0, 0, 1]]}
        )
    )
    out = run_ok(capsys, "shift", "-i", str(inp), "--matrix", str(mat))
    # upper-triangular matrices never move a family
    assert json.loads(out)["edges"] == [[1, 3], [2, 3]]


def test_shift_error_exits(tmp_path, capsys):
    good = tmp_path / "in.json"
    good.write_text(json.dumps({"n": 4, "k": 2, "edges": [[1, 2]]}))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "shift", "-i", str(bad), "--perm", "w0")
    assert code == 2 and "shiftlab: error" in err
    # singular explicit matrix: a mathematical precondition, not a parse error
    sing = tmp_path / "sing.json"
    sing.write_text(json.dumps({"n": 2, "entries": [[1, 1], [1, 1]]}))
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"n": 2, "k": 1, "edges": [[2]]}))
    code, _, err = run_cli(capsys, "shift", "-i", str(small), "--matrix", str(sing))
    assert code == 3 and "error" in err
    # variable indices start at 1, and JSON booleans are not integers
    for entry, message in (("x0,1", "positive"), (True, "bad matrix entry True")):
        mat = tmp_path / "mat.json"
        mat.write_text(json.dumps({"n": 2, "entries": [[entry, 0], [0, 1]]}))
        code, _, err = run_cli(capsys, "shift", "-i", str(small), "--matrix", str(mat))
        assert code == 2 and message in err
    # the size is an integer too: 2.7 is not read as 2, nor true as 1
    for size in (2.7, True, "2"):
        mat = tmp_path / "mat.json"
        mat.write_text(json.dumps({"n": size, "entries": [[1, 0], [0, 1]]}))
        code, out, err = run_cli(capsys, "shift", "-i", str(small), "--matrix", str(mat))
        assert (code, out) == (2, "") and "n must be an integer" in err
    # entries that are no list of lists
    for entries in (5, None, [[1, 0], 3], "ab"):
        mat = tmp_path / "mat.json"
        mat.write_text(json.dumps({"n": 2, "entries": entries}))
        code, out, err = run_cli(capsys, "shift", "-i", str(small), "--matrix", str(mat))
        assert (code, out) == (2, "") and "2x2 grid" in err
    # wrong-size named family
    code, _, _ = run_cli(capsys, "shift", "-i", str(good), "--matrix", "vandermonde5")
    assert code == 2
    # composite characteristic
    code, _, _ = run_cli(capsys, "shift", "-i", str(good), "--perm", "w0", "--char", "4")
    assert code == 3
    # permutation of the wrong size
    code, _, _ = run_cli(capsys, "shift", "-i", str(good), "--perm", "2,1,3")
    assert code == 2
    # missing file
    code, _, _ = run_cli(capsys, "shift", "-i", str(tmp_path / "absent"), "--perm", "e")
    assert code == 2


def test_json_input_must_match_n(tmp_path, capsys, rp2_file):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 4, "k": 2, "edges": [[1, 2], [2, 3]]}))
    code, out, err = run_cli(capsys, "shift", "-i", str(path), "--perm", "w0", "--n", "7")
    assert (code, out) == (2, "") and '"n": 4, but n is 7' in err
    code, out, err = run_cli(capsys, "psg", "--from", str(path), "-n", "5")
    assert (code, out) == (2, "") and "but n is 5" in err
    code, out, err = run_cli(capsys, "betti", rp2_file, "--n", "7")
    assert (code, out) == (2, "") and '"n": 6, but n is 7' in err
    # a matching --n changes nothing
    plain = run_ok(capsys, "shift", "-i", str(path), "--perm", "w0")
    assert run_ok(capsys, "shift", "-i", str(path), "--perm", "w0", "--n", "4") == plain


def test_json_input_with_edges_and_facets_is_refused(tmp_path, capsys):
    path = tmp_path / "both.json"
    path.write_text(json.dumps({"n": 4, "k": 2, "edges": [[1, 2]], "facets": [[1, 2]]}))
    for kind in ("auto", "hypergraph", "complex"):
        code, out, err = run_cli(capsys, "shift", "-i", str(path), "--perm", "e", "--as", kind)
        assert (code, out) == (2, "") and 'both "edges" and "facets"' in err
    code, out, err = run_cli(capsys, "betti", str(path))
    assert (code, out) == (2, "") and 'both "edges" and "facets"' in err


@pytest.mark.parametrize(
    "payload",
    [
        {"n": True, "k": 1, "edges": [[1]]},
        {"n": 2, "k": True, "edges": [[1]]},
        {"n": 2.0, "k": 1, "edges": [[1]]},
        {"n": 2, "k": 1, "edges": [[True]]},
        {"n": 2, "k": 1, "edges": [[1.0]]},
        {"n": 3, "facets": [[True, 2]]},
        {"n": True, "facets": [[1]]},
        {"n": 3, "facets": [[1, 2.0]]},
        {"n": 3, "facets": [["1"]]},
    ],
)
def test_json_sizes_and_vertices_must_be_integers(tmp_path, capsys, payload):
    # JSON true is not vertex 1, and 2.0 is not a size
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    for argv in (("--matrix", "generic2"), ("--perm", "e")):
        code, out, err = run_cli(capsys, "shift", "-i", str(path), *argv)
        assert (code, out) == (2, "") and "must be an integer" in err
    if "edges" in payload:
        # edge JSON read as a complex is checked as hypergraph JSON first
        for argv in (("shift", "-i", str(path), "--perm", "e", "--as", "complex"),
                     ("betti", str(path))):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "") and "must be an integer" in err


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"n": 4, "k": 2, "edges": [[1, 2, 3]]}, "is not a 2-subset"),
        ({"n": 4, "edges": [[1, 2]]}, "'k'"),
    ],
    ids=["3-vertex-edge", "no-k"],
)
def test_edge_json_read_as_a_complex_gets_hypergraph_checks(tmp_path, capsys, payload, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    for argv in (("shift", "-i", str(path), "--perm", "e", "--as", "complex"),
                 ("betti", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and "bad hypergraph JSON" in err and message in err


def test_shift_output_file(tmp_path, capsys):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"n": 4, "k": 2, "edges": [[2, 4]]}))
    dest = tmp_path / "out.json"
    out = run_ok(capsys, "shift", "-i", str(inp), "--perm", "w0", "-o", str(dest))
    assert out == ""
    assert json.loads(dest.read_text())["edges"] == [[1, 2]]
    assert dest.read_text().endswith("\n")


# ------------------------------------------------- one family, every form

# the hypergraph {14, 23, 24} on 4 vertices, and RP^2 with a redundant face
FAMILY_FORMS = {
    "json": json.dumps({"n": 4, "k": 2, "edges": [[1, 4], [2, 3], [2, 4]]}),
    "text": "# three edges\n1 4\n2 3  # middle\n\n2 4\n",
    "commas": "1,4\n2, 3\n2,4\n",
    "stdin": "1 4\n2 3\n2 4\n",
}
COMPLEX_FORMS = {
    "facet-json": json.dumps({"n": 6, "facets": RP2_FACETS}),
    "mixed-text": "".join(" ".join(map(str, f)) + "\n" for f in RP2_FACETS) + "1 2\n",
    "edge-json": json.dumps({"n": 6, "k": 3, "edges": RP2_FACETS}),
}


def _outputs(capsys, monkeypatch, tmp_path, text, stdin, commands):
    import io

    path = tmp_path / "family"
    path.write_text(text)
    target = "-" if stdin else str(path)
    outs = []
    for argv in commands:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        outs.append(run_ok(capsys, *(target if a == "FILE" else a for a in argv)))
    return outs


@pytest.mark.parametrize("form", sorted(FAMILY_FORMS))
def test_one_hypergraph_in_every_form(tmp_path, capsys, monkeypatch, form):
    commands = (("shift", "-i", "FILE", "--perm", "w0"), ("psg", "--from", "FILE"))
    want = _outputs(capsys, monkeypatch, tmp_path, FAMILY_FORMS["json"], False, commands)
    got = _outputs(capsys, monkeypatch, tmp_path, FAMILY_FORMS[form], form == "stdin", commands)
    assert got == want
    assert json.loads(want[0]) == {"n": 4, "k": 2, "edges": [[1, 2], [1, 3], [1, 4]]}


@pytest.mark.parametrize("form", sorted(COMPLEX_FORMS))
def test_one_complex_in_every_form(tmp_path, capsys, monkeypatch, form):
    commands = (
        ("betti", "FILE", "--char", "2"),
        ("shift", "-i", "FILE", "--perm", "w0", "--as", "complex", "--char", "2"),
    )
    want = _outputs(capsys, monkeypatch, tmp_path, COMPLEX_FORMS["facet-json"], False, commands)
    got = _outputs(capsys, monkeypatch, tmp_path, COMPLEX_FORMS[form], False, commands)
    assert got == want
    assert json.loads(want[0]) == {"betti": [1, 1, 1], "char": 2}


@pytest.mark.parametrize(
    "argv",
    [
        ("shift", "-i", "FILE", "--perm", "e"),
        ("shift", "-i", "FILE", "--perm", "e", "--as", "complex"),
        ("psg", "--from", "FILE"),
        ("betti", "FILE"),
        ("scan", "FILE"),
    ],
)
def test_text_with_no_faces_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "empty.txt"
    for text in ("", "# a comment only\n\n"):
        path.write_text(text)
        code, out, err = run_cli(capsys, *(str(path) if a == "FILE" else a for a in argv))
        assert (code, out) == (2, "") and "no faces found" in err


# -------------------------------------------------------------------- psg


def test_psg_matches_library_export_and_is_deterministic(capsys):
    ctx = make_field_context(0, Backend.RANDOMIZED, seed=0)
    want = export_json(build_shift_graph(4, 2, 2, ctx)) + "\n"
    first = run_ok(capsys, "psg", "-n", "4", "-k", "2", "-m", "2")
    second = run_ok(capsys, "psg", "-n", "4", "-k", "2", "-m", "2")
    assert first == want and second == want
    symbolic = run_ok(
        capsys, "psg", "-n", "4", "-k", "2", "-m", "2", "--backend", "symbolic"
    )
    assert symbolic == want


def test_psg_parallel_output_is_byte_identical(capsys):
    base = run_ok(capsys, "psg", "-n", "4", "-k", "2", "-m", "2")
    forked = run_ok(capsys, "psg", "-n", "4", "-k", "2", "-m", "2", "--parallelism", "2")
    assert forked == base


def test_psg_from_rp2_top_layer_is_byte_identical_in_parallel(tmp_path, capsys):
    top = tmp_path / "top.json"
    top.write_text(json.dumps({"n": 6, "k": 3, "edges": RP2_FACETS}))
    base = run_ok(capsys, "psg", "--from", str(top), "--parallelism", "1")
    forked = run_ok(capsys, "psg", "--from", str(top), "--parallelism", "2")
    assert forked == base
    graph = json.loads(base)
    assert (len(graph["nodes"]), len(graph["edges"])) == (82, 924)


def test_psg_contract_and_dot(capsys):
    ctx = make_field_context(0, Backend.RANDOMIZED, seed=0)
    want = export_json(contract(build_shift_graph(4, 2, 3, ctx), ctx)) + "\n"
    out = run_ok(capsys, "psg", "-n", "4", "-k", "2", "-m", "3", "--contract")
    assert out == want
    assert json.loads(out)["contracted"] is True
    dot = run_ok(capsys, "psg", "-n", "4", "-k", "2", "-m", "3", "--format", "dot")
    assert dot.startswith("digraph shiftgraph {")


def test_psg_from_file(tmp_path, capsys):
    ctx = make_field_context(0, Backend.RANDOMIZED, seed=0)
    S = UniformHypergraph.from_edges(4, 2, [[1, 4], [3, 4]])
    path = tmp_path / "start.json"
    path.write_text(hypergraph_to_json(S))
    want = export_json(build_shift_graph_from(S, ctx)) + "\n"
    assert run_ok(capsys, "psg", "--from", str(path)) == want


def test_psg_error_exits(capsys, rp2_file):
    code, _, err = run_cli(capsys, "psg", "-n", "4", "-k", "2")
    assert code == 2 and "psg needs" in err
    # psg has no --as, so the refusal names none
    code, out, err = run_cli(capsys, "psg", "--from", rp2_file)
    assert (code, out) == (2, "") and "not a hypergraph" in err and "--as" not in err
    code, _, err = run_cli(
        capsys, "psg", "-n", "4", "-k", "2", "-m", "2", "--max-nodes", "3"
    )
    assert code == 3 and "cap" in err


# ------------------------------------------------------------------ betti


def test_betti_methods_and_chars(rp2_file, capsys):
    out = run_ok(capsys, "betti", rp2_file)
    assert json.loads(out) == {"betti": [1, 0, 0], "char": 0}
    out = run_ok(capsys, "betti", rp2_file, "--char", "2")
    assert json.loads(out) == {"betti": [1, 1, 1], "char": 2}
    out = run_ok(capsys, "betti", rp2_file, "--char", "3")
    assert json.loads(out) == {"betti": [1, 0, 0], "char": 3}
    out = run_ok(capsys, "betti", rp2_file, "--method", "full-shift", "--char", "2")
    assert json.loads(out) == {"betti": [1, 1, 1], "char": 2}
    out = run_ok(capsys, "betti", rp2_file, "--char", "2", "--format", "text")
    assert out == "1,1,1\n"


def test_betti_over_q_past_the_prime_table_exits_3(rp2_file, capsys, short_prime_table):
    # with the Mersenne primes up to 127 only, RP^2's boundary ranks over Q
    # need a prime above 243 that the table does not have
    code, out, err = run_cli(capsys, "betti", rp2_file)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "Mersenne" in err
    assert run_ok(capsys, "betti", rp2_file, "--char", "2") == '{"betti":[1,1,1],"char":2}\n'


def test_betti_near_cone_method(tmp_path, capsys):
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"n": 4, "facets": [[1, 2, 3], [1, 3, 4]]}))
    out = run_ok(capsys, "betti", str(cone), "--method", "near-cone", "--char", "2")
    assert json.loads(out) == {"betti": [1, 0, 0], "char": 2}
    lone = tmp_path / "lone.json"
    lone.write_text(json.dumps({"n": 3, "facets": [[2, 3]]}))
    code, _, err = run_cli(capsys, "betti", str(lone), "--method", "near-cone")
    assert code == 3 and "near cone" in err


def test_betti_text_input_and_errors(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n1 3\n2 3\n"))
    out = run_ok(capsys, "betti", "-", "--format", "text")
    assert out == "1,1\n"
    code, _, _ = run_cli(capsys, "betti", str(tmp_path / "absent.json"))
    assert code == 2
    rp = tmp_path / "rp.json"
    rp.write_text(json.dumps({"n": 6, "facets": RP2_FACETS}))
    code, _, _ = run_cli(capsys, "betti", str(rp), "--char", "6")
    assert code == 3
    # JSON that is no object is not read as text
    rp.write_text("[1,2]")
    code, out, err = run_cli(capsys, "betti", str(rp))
    assert (code, out) == (2, "") and "JSON input must be an object" in err


# ------------------------------------------------------------------- scan


def test_scan_reports_no_violations(rp2_file, capsys):
    out = run_ok(
        capsys,
        "scan",
        rp2_file,
        "--random",
        "2",
        "--random-n",
        "4",
        "--random-dim",
        "1",
        "--graph",
        "3,2,2",
    )
    payload = json.loads(out)
    assert len(payload["complexes"]) == 3
    assert all(c["violations"] == [] for c in payload["complexes"])
    # graphs get contracted before the acyclicity check; every two-edge
    # family on three vertices lands in one full-shift class
    assert payload["graphs"] == [
        {"n": 3, "k": 2, "m": 2, "nodes": 1, "edges": 0, "acyclic": True, "cycle": []}
    ]
    assert payload["complexes"][0]["betti"] == [1, 0, 0]


def test_scan_seed_env_override(rp2_file, capsys, monkeypatch):
    with_flag = run_ok(capsys, "scan", "--random", "2", "--seed", "5")
    monkeypatch.setenv("SHIFTLAB_SEED", "5")
    with_env = run_ok(capsys, "scan", "--random", "2", "--seed", "0")
    assert with_env == with_flag
    monkeypatch.setenv("SHIFTLAB_SEED", "oops")
    code, _, _ = run_cli(capsys, "scan", "--random", "1")
    assert code == 2


def test_scan_bad_graph_triple(capsys):
    code, _, err = run_cli(capsys, "scan", "--graph", "3,2")
    assert code == 2 and "n,k,m" in err


# -------------------------------------------------------------- reproduce


def test_reproduce_list_and_fast_target(capsys):
    out = run_ok(capsys, "reproduce", "--list")
    names = [line.split()[0] for line in out.splitlines()]
    assert names == available_targets()
    assert len(names) == 8
    code, out, err = run_cli(capsys, "reproduce", "two-edge-routes")
    assert code == 0 and out.startswith("PASS two-edge-routes: ")
    # the seconds go to stderr, so stdout repeats byte for byte
    assert err.startswith("two-edge-routes: ") and err.endswith("s\n")
    assert run_ok(capsys, "reproduce", "two-edge-routes") == out
    code, _, err = run_cli(capsys, "reproduce", "no-such-target")
    assert code == 2 and "unknown reproduce target" in err
    code, _, err = run_cli(capsys, "reproduce")
    assert code == 2 and "available" in err


def test_reproduce_names_the_failed_check_and_exits_1(capsys, monkeypatch):
    def failing(seed):
        return [("passing check", True), ("forced failure", False)], "never printed", {}

    description = reproduce.TARGETS["two-edge-routes"][1]
    monkeypatch.setitem(reproduce.TARGETS, "two-edge-routes", (failing, description))
    code, out, _ = run_cli(capsys, "reproduce", "two-edge-routes")
    assert (code, out) == (1, "FAIL two-edge-routes: forced failure\n")


def test_version_and_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "shiftlab.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("shiftlab ")


def test_python_dash_m_shiftlab_runs_the_cli(tmp_path):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"n": 4, "k": 2, "edges": [[1, 2], [2, 3]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "shiftlab", "shift", "-i", str(inp), "--perm", "w0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"n": 4, "k": 2, "edges": [[1, 2], [1, 3]]}
    missing = str(tmp_path / "missing.json")
    proc = subprocess.run(
        [sys.executable, "-m", "shiftlab", "shift", "-i", missing, "--perm", "w0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and "shiftlab: error" in proc.stderr


def test_epsilon_parsing(tmp_path, capsys):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"n": 4, "k": 2, "edges": [[1, 2], [2, 3]]}))
    for eps in ("2^-10", "1/1024", "0.125"):
        out = run_ok(capsys, "shift", "-i", str(inp), "--perm", "w0", "--epsilon", eps)
        assert json.loads(out)["edges"] == [[1, 2], [1, 3]]
    code, _, _ = run_cli(capsys, "shift", "-i", str(inp), "--perm", "w0", "--epsilon", "x")
    assert code == 2
    # characteristic 0 samples from [1, B] with B above 2^4500, beyond the
    # largest Mersenne prime it eliminates over
    code, out, err = run_cli(capsys, "shift", "-i", str(inp), "--perm", "w0", "--epsilon", "2^-4500")
    assert (code, out) == (3, "") and "Mersenne" in err

