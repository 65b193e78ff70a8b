import json

import pytest

from groupconn import cli
from groupconn.cli import EXIT_ERROR, EXIT_NO, EXIT_YES, main
from groupconn.graphs import encode_graph6
from groupconn.solver import decide
from groupconn.groups import Z4

from conftest import CUBE, PETERSEN, complete_graph, cycle_graph


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.g6"
    p.write_text(encode_graph6(complete_graph(4)) + "\n")
    return str(p)


@pytest.fixture
def bridge_file(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("3 2\n0 1\n1 2\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_test_yes(capsys, tmp_path):
    p = tmp_path / "c3.txt"
    p.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out, err = run(capsys, "test", "--graph", str(p), "--group", "z4")
    assert code == EXIT_YES
    payload = json.loads(out)
    assert payload["connected"] is True and payload["certificate"] is None
    assert "is z4-connected" in err


def test_cli_test_no_with_certificate(capsys, bridge_file):
    code, out, _ = run(capsys, "test", "--graph", bridge_file, "--group", "z4")
    assert code == EXIT_NO
    payload = json.loads(out)
    assert payload["connected"] is False
    assert len(payload["certificate"]) == 2


def test_cli_test_algo_and_no_preprocess(capsys, k4_file):
    for algo in ("ultra", "naive", "fast", "sumset"):
        code, out, _ = run(capsys, "test", "--graph", k4_file, "--group", "z2^2", "--algo", algo)
        assert json.loads(out)["connected"] == (code == EXIT_YES)
    code, out, _ = run(
        capsys, "test", "--graph", k4_file, "--group", "z2^2", "--algo", "ultra", "--no-preprocess"
    )
    assert code in (EXIT_YES, EXIT_NO)


def test_cli_test_formats(capsys, tmp_path, k4_file):
    el = tmp_path / "k4.edges"
    el.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    a = run(capsys, "test", "--graph", k4_file, "--group", "z4")
    b = run(capsys, "test", "--graph", str(el), "--group", "z4")
    assert a[0] == b[0]
    assert json.loads(a[1])["connected"] == json.loads(b[1])["connected"]


def test_cli_errors(capsys, tmp_path, k4_file):
    assert run(capsys, "test", "--graph", "/nonexistent", "--group", "z4")[0] == EXIT_ERROR
    assert run(capsys, "test", "--graph", k4_file, "--group", "z9^9")[0] == EXIT_ERROR
    bad = tmp_path / "bad.g6"
    bad.write_text("!!!\n")
    assert run(capsys, "test", "--graph", str(bad), "--group", "z4")[0] == EXIT_ERROR
    assert run(capsys, "frobnicate")[0] == EXIT_ERROR


def test_cli_nzflow(capsys, tmp_path, k4_file, bridge_file):
    code, out, _ = run(capsys, "nzflow", "--graph", k4_file, "--group", "z4")
    assert code == EXIT_YES
    payload = json.loads(out)
    assert payload["exists"] is True and len(payload["flow"]) == 6

    code, out, _ = run(capsys, "nzflow", "--graph", bridge_file, "--group", "z4")
    assert code == EXIT_NO and json.loads(out)["exists"] is False

    pet = tmp_path / "petersen.g6"
    pet.write_text(encode_graph6(PETERSEN) + "\n")
    assert run(capsys, "nzflow", "--graph", str(pet), "--group", "z4")[0] == EXIT_NO
    assert run(capsys, "nzflow", "--graph", str(pet), "--group", "z5")[0] == EXIT_YES


def test_cli_certify_accepts_solver_output(capsys, tmp_path, bridge_file):
    code, out, _ = run(capsys, "test", "--graph", bridge_file, "--group", "z4")
    assert code == EXIT_NO
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, out, _ = run(
        capsys, "certify", "--graph", bridge_file, "--group", "z4", "--certificate", str(cert_path)
    )
    assert code == EXIT_YES
    assert json.loads(out)["unsatisfiable"] is True


def test_cli_certify_rejects_bad_certificate(capsys, tmp_path, k4_file):
    # the all-ones forbidden mapping on K4 is avoided by some flow
    cert = [
        {"tail": u, "head": v, "forbidden": "1"}
        for u, v in complete_graph(4).edges
    ]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({"certificate": cert}))
    code, out, _ = run(
        capsys, "certify", "--graph", k4_file, "--group", "z4", "--certificate", str(cert_path)
    )
    assert code == EXIT_NO
    payload = json.loads(out)
    assert payload["unsatisfiable"] is False
    assert len(payload["satisfying_flow"]) == 6


def test_cli_certify_malformed(capsys, tmp_path, k4_file):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({"certificate": [{"tail": 0, "head": 9, "forbidden": "0"}]}))
    assert (
        run(capsys, "certify", "--graph", k4_file, "--group", "z4", "--certificate", str(cert_path))[0]
        == EXIT_ERROR
    )


def test_cli_flows(capsys, tmp_path):
    p = tmp_path / "c3.txt"
    p.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out, _ = run(capsys, "flows", "--graph", str(p), "--group", "z4")
    assert code == EXIT_YES
    payload = json.loads(out)
    assert payload["rank"] == 1 and payload["count"] == 4
    assert len(payload["flows"]) == 4


def test_cli_search(capsys, tmp_path):
    bases = tmp_path / "bases.g6"
    bases.write_text(encode_graph6(CUBE) + "\n")
    out_path = tmp_path / "witnesses.ndjson"
    code, _, err = run(
        capsys,
        "search",
        "--bases", str(bases),
        "--added", "3",
        "--groups", "z4,z2^2",
        "--order", "sequential",
        "--distinct-edges",
        "--output", str(out_path),
        "--max-witnesses", "1",
    )
    assert code == EXIT_YES
    assert "1 witness(es)" in err
    w = json.loads(out_path.read_text().splitlines()[0])
    assert {w["yes_group"], w["no_group"]} == {"z4", "z2^2"}


def test_cli_search_added_range_parse(capsys, tmp_path):
    bases = tmp_path / "bases.g6"
    bases.write_text(encode_graph6(complete_graph(4)) + "\n")
    code, _, err = run(
        capsys,
        "search",
        "--bases", str(bases),
        "--added", "1..2",
        "--groups", "z4,z2^2",
        "--max-witnesses", "1",
    )
    assert code == EXIT_YES


def test_cli_search_bad_added(capsys, tmp_path):
    bases = tmp_path / "bases.g6"
    bases.write_text(encode_graph6(complete_graph(4)) + "\n")
    assert (
        run(capsys, "search", "--bases", str(bases), "--added", "x", "--groups", "z4,z2^2")[0]
        == EXIT_ERROR
    )


def test_cli_search_refuses_foreign_checkpoint(capsys, tmp_path):
    bases = tmp_path / "bases.g6"
    bases.write_text(encode_graph6(complete_graph(4)) + "\n")
    ckpt = str(tmp_path / "search.ckpt")
    argv = ["search", "--bases", str(bases), "--added", "1", "--groups", "z4,z2^2", "--checkpoint", ckpt]
    assert run(capsys, *argv)[0] == EXIT_YES
    code, _, err = run(capsys, *argv, "--seed", "5", "--resume")
    assert code == EXIT_ERROR
    assert "different search configuration" in err and "Traceback" not in err


@pytest.mark.parametrize("groups", ["z4", "z4,z2^2,z8"])
def test_cli_search_needs_two_groups(capsys, tmp_path, groups):
    bases = tmp_path / "bases.g6"
    bases.write_text(encode_graph6(complete_graph(4)) + "\n")
    code, _, err = run(capsys, "search", "--bases", str(bases), "--added", "1", "--groups", groups)
    assert code == EXIT_ERROR
    assert "exactly two" in err and "Traceback" not in err


def test_cli_unexpected_error_is_exit_2(capsys, monkeypatch, k4_file):
    def broken(*args, **kwargs):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(cli, "decide", broken)
    code, out, err = run(capsys, "test", "--graph", k4_file, "--group", "z4")
    assert code == EXIT_ERROR
    assert out == "" and "engine exploded" in err


@pytest.mark.parametrize("graph", [complete_graph(6), CUBE], ids=["K6", "cube"])
def test_cli_auto_is_decides_policy(capsys, tmp_path, graph):
    p = tmp_path / "g.g6"
    p.write_text(encode_graph6(graph) + "\n")
    code, out, _ = run(capsys, "test", "--graph", str(p), "--group", "z4", "--algo", "auto")
    payload = json.loads(out)
    v = decide(graph, Z4)
    assert payload["algorithm"] == v.algorithm
    assert payload["connected"] == v.connected == (code == EXIT_YES)
