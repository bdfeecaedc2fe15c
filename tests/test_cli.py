import json

from decomplab.cli import EXIT_OK, EXIT_USAGE, run
from decomplab.graphio import serialize_edge_list
from decomplab.graphs import complete_graph


def _write(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(serialize_edge_list(g))
    return str(path)


def test_solve_and_vertex_cover(tmp_path):
    f = _write(tmp_path, "k3.txt", complete_graph(3))
    g = _write(tmp_path, "k7.txt", complete_graph(7))
    res = run(["solve", "--pattern", f, "--host", g])
    assert res.exit_code == EXIT_OK and res.diagnostics == []
    assert len(res.payload["copies"]) == 7
    res = run(["solve", "--pattern", f, "--host", g, "--vertex", "0"])
    assert res.exit_code == EXIT_OK and res.diagnostics == []
    assert len(res.payload["copies"]) == 3
    assert {0, 1, 2, 3, 4, 5, 6} == {
        v for img in res.payload["copies"] for v in img}
    json.dumps(res.payload)


def test_ignored_flags_are_gone(tmp_path):
    f = _write(tmp_path, "k3.txt", complete_graph(3))
    res = run(["--threads", "2", "solve", "--pattern", f, "--host", f])
    assert res.exit_code == EXIT_USAGE
    res = run(["--format", "text", "solve", "--pattern", f, "--host", f])
    assert res.exit_code == EXIT_USAGE
