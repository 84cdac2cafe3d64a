"""Command-line behavior: exit codes, files, and round trips."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import andreev
from andreev import angles, catalog, complexes, realize, whitehead
from andreev.cli import main
from conftest import cube_with_corner_cubes


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name, ap in (("dodeca", catalog.dodecahedron()),
                     ("atc", catalog.alternately_truncated_cube()),
                     ("prism5", catalog.prism(5)),
                     ("cube", catalog.cube())):
        p = tmp_path / f"{name}.json"
        p.write_text(complexes.to_json(ap))
        out[name] = str(p)
    a = angles.AngleAssignment.uniform(30, Fraction(2, 5))
    p = tmp_path / "a25.json"
    p.write_text(angles.to_json(a))
    out["a25"] = str(p)
    out["dir"] = tmp_path
    return out


def test_validate(paths, capsys):
    assert main(["validate", "--input", paths["dodeca"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["valid"] and data["simple"]
    assert data["faces"] == 12


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    pyramid = [[0, 1, 2, 3], [0, 4, 1], [1, 4, 2], [2, 4, 3], [3, 4, 0]]
    tetrahedron = [list(f) for f in catalog.tetrahedron().faces]
    for count, faces in [(5, pyramid), (10**20, tetrahedron)]:
        bad.write_text(json.dumps({"name": "x", "vertex_count": count,
                                   "faces": faces}))
        assert main(["validate", "--input", str(bad)]) == 1
        assert not json.loads(capsys.readouterr().out)["valid"]


def test_missing_file_is_usage_error(tmp_path):
    assert main(["validate", "--input", str(tmp_path / "nope.json")]) == 2


def _dodeca_table(first) -> str:
    """2/5 on all 30 edges of the dodecahedron but the first, which gets
    the given JSON value."""
    table = {str(i): "2/5" for i in range(30)}
    table["0"] = first
    return json.dumps({"angles": table})


@pytest.mark.parametrize("text", [
    '{"foo": 1}',
    '{"angles": {"1": "2/5"}}',
    '{"angles": ["2/5"]}',
    '{"angles": {"0": null}}',
    pytest.param(_dodeca_table("1e400"), id="exponent-string"),
    pytest.param(_dodeca_table(True), id="bool"),
    pytest.param(_dodeca_table(0.4), id="float"),
])
def test_malformed_angles_are_usage_errors(paths, text):
    bad = paths["dir"] / "bad_angles.json"
    bad.write_text(text)
    assert main(["check-angles", "--input", paths["dodeca"],
                 "--angles", str(bad)]) == 2


@pytest.mark.parametrize("text", [
    '{"vertex_count": 4, "faces": 5}', "[1, 2]",
    pytest.param(json.dumps({"vertex_count": True, "faces": [
        list(f) for f in catalog.tetrahedron().faces]}), id="bool-count"),
])
def test_malformed_complexes_are_usage_errors(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["validate", "--input", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    ["validate", "--format", "json"],
    ["validate", "--angles", "a.json"],
    ["check-angles", "--angles", "a.json", "--format", "json"],
    ["realize"],
])
def test_unread_or_missing_flags_are_usage_errors(paths, argv):
    argv = argv[:1] + ["--input", paths["dodeca"]] + argv[1:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_circuits(paths, capsys):
    assert main(["circuits", "--input", paths["prism5"]]) == 0
    found = json.loads(capsys.readouterr().out)
    assert [c["kind"] for c in found] == ["prismatic3"]


def test_check_angles_verdicts(paths, capsys):
    assert main(["check-angles", "--input", paths["dodeca"],
                 "--angles", paths["a25"]]) == 0
    assert json.loads(capsys.readouterr().out)["member"]


def test_check_angles_size_mismatch(paths):
    assert main(["check-angles", "--input", paths["cube"],
                 "--angles", paths["a25"]]) == 2


def test_feasible_verdicts(paths, capsys):
    assert main(["feasible", "--input", paths["dodeca"]]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "nonempty"
    assert main(["feasible", "--input", paths["atc"]]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "empty"


def test_reduce_round_trip(paths, capsys):
    trace_path = str(paths["dir"] / "trace.json")
    assert main(["reduce", "--input", paths["dodeca"],
                 "--output", trace_path]) == 0
    trace = whitehead.trace_from_json(open(trace_path).read())
    assert whitehead.replay(trace).triangle_set == trace.end.triangle_set
    assert complexes.isomorphic(trace.end,
                                catalog.split_prism_dual(12)) is not None


def test_reduce_refuses_prisms(paths):
    assert main(["reduce", "--input", paths["prism5"]]) == 1


def test_reduce_refuses_non_simple(paths, capsys):
    assert main(["reduce", "--input", paths["atc"]]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": "WhiteheadError", "detail": "complex is not simple"}


def test_reduce_checks_its_replay(paths, capsys, monkeypatch):
    # a trace that does not replay to its recorded end is refused, also
    # under `python -O`: whitehead.replay raises, it does not assert
    reduce_to_dn = whitehead.reduce_to_dn
    monkeypatch.setattr(whitehead, "reduce_to_dn", lambda dc: dataclasses.replace(
        reduce_to_dn(dc), end=dc))
    assert main(["reduce", "--input", paths["dodeca"]]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": "WhiteheadError",
                   "detail": "trace does not replay to its recorded end"}


def test_realize_and_export(paths, capsys):
    off_path = str(paths["dir"] / "d.off")
    assert main(["realize", "--input", paths["dodeca"],
                 "--angles", paths["a25"], "--format", "off",
                 "--output", off_path]) == 0
    lines = open(off_path).read().splitlines()
    assert lines[0] == "OFF"
    nv, nf, _ = (int(x) for x in lines[1].split())
    assert (nv, nf) == (20, 12)
    faces = [[int(x) for x in ln.split()][1:] for ln in lines[2 + nv:2 + nv + nf]]
    assert faces == [list(f) for f in catalog.dodecahedron().faces]

    assert main(["realize", "--input", paths["dodeca"],
                 "--angles", paths["a25"], "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["normals"]) == 12


def test_realize_multi_circuit_star(tmp_path, capsys):
    """Three essential circuits pairwise sharing a face: realize cuts
    them one at a time."""
    ap = cube_with_corner_cubes((0, 2, 5))
    cpath, apath = tmp_path / "star.json", tmp_path / "star_angles.json"
    cpath.write_text(complexes.to_json(ap))
    apath.write_text(angles.to_json(angles.feasible(ap).witness))
    assert main(["realize", "--input", str(cpath), "--angles", str(apath),
                 "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["normals"]) == 15


def test_realize_infeasible(paths, capsys):
    bad = str(paths["dir"] / "bad_angles.json")
    ap = catalog.alternately_truncated_cube()
    open(bad, "w").write(angles.to_json(
        angles.AngleAssignment.uniform(ap.edge_count, Fraction(2, 5))))
    assert main(["realize", "--input", paths["atc"],
                 "--angles", bad]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "InfeasibleAngles"


def test_realize_failure_is_typed(paths, capsys, monkeypatch):
    def diverge(ap, a):
        raise realize.Diverged("no convergence in 50 steps")

    monkeypatch.setattr(realize, "realize", diverge)
    assert main(["realize", "--input", paths["dodeca"],
                 "--angles", paths["a25"]]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "Diverged", "detail": "no convergence in 50 steps"}


def test_deterministic_output(paths, capsys):
    main(["feasible", "--input", paths["dodeca"]])
    first = capsys.readouterr().out
    main(["feasible", "--input", paths["dodeca"]])
    assert capsys.readouterr().out == first


def test_module_entry_point(paths):
    # `python -m andreev` runs the CLI from a checkout, with src on the path
    src = os.path.dirname(os.path.dirname(andreev.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "andreev", "validate", "--input", paths["cube"]],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["faces"] == 6



@pytest.mark.parametrize("command", ["realize", "feasible"])
def test_unwritable_output_fails_typed(paths, capsys, command):
    """An --output in a missing directory is reported as such, exit 2,
    with no traceback: realize's answer here is an error record (the
    cube at uniform 1 is infeasible), feasible's a verdict."""
    argv = [command, "--input", paths["cube"],
            "--output", str(paths["dir"] / "missing" / "out.json")]
    if command == "realize":
        obtuse = paths["dir"] / "obtuse.json"
        obtuse.write_text(angles.to_json(
            angles.AngleAssignment.uniform(catalog.cube().edge_count, 1)))
        argv += ["--angles", str(obtuse)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and "out.json" in err
