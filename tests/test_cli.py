import json
import os

import pytest

from gradedproj.cli import main, round4


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def test_round4_half_even():
    assert round4(0.171573) == "0.1716"
    assert round4(1.0 / 3.0) == "0.3333"
    assert round4(0.12345) == "0.1234"  # ties to even
    assert round4(0.12355) == "0.1236"
    assert round4(float("inf")) == "inf"


def test_refine_writes_mesh_and_report(tmp_path):
    code = run(tmp_path, "refine", "--dim", "2", "--alpha", "1", "--policy", "corner", "--rounds", "8", "--out", "r")
    assert code == 0
    data = json.loads((tmp_path / "r" / "mesh.json").read_text())
    assert data["version"] == 1 and data["dim"] == 2
    assert "meta" in data and data["meta"]["version"]
    report = (tmp_path / "r" / "grading_report.tsv").read_text()
    assert "gamma_h_vertex\t1.4142" in report  # 2^(1/2) for alpha=1, d=2
    assert (tmp_path / "r" / "elements.tsv").exists()


def test_refine_zero_rounds_identity(tmp_path):
    assert run(tmp_path, "refine", "--rounds", "0", "--out", "r0") == 0
    data = json.loads((tmp_path / "r0" / "mesh.json").read_text())
    assert len(data["simplices"]) == 2  # untouched Kuhn square


def test_refine_uniform_3d_count(tmp_path):
    assert run(tmp_path, "refine", "--dim", "3", "--policy", "uniform", "--rounds", "3", "--alpha", "3", "--out", "u3") == 0
    data = json.loads((tmp_path / "u3" / "mesh.json").read_text())
    assert len(data["simplices"]) == 6 * 2**3


def test_certify_single_triangle(tmp_path):
    code = run(tmp_path, "certify", "--dim", "2", "--degree", "1", "--rounds", "0", "--out", "c")
    assert code == 0
    cert = json.loads((tmp_path / "c" / "certificate.json").read_text())
    assert abs(cert["kappa"] - 4.0) < 1e-6
    assert cert["meta"]["config_hash"]


def test_certify_cr(tmp_path):
    code = run(tmp_path, "certify", "--dim", "3", "--degree", "CR", "--rounds", "2", "--policy", "random:0.3", "--out", "cr")
    assert code == 0
    cert = json.loads((tmp_path / "cr" / "certificate.json").read_text())
    assert cert["K"] == "CR"
    assert cert["kappa"] <= 9 / 5 + 1e-8


def test_decay_command(tmp_path):
    code = run(tmp_path, "decay", "--dim", "2", "--degree", "1", "--rounds", "5",
               "--policy", "corner", "--trials", "2", "--out", "d")
    assert code == 0
    text = (tmp_path / "d" / "decay.tsv").read_text()
    assert text.splitlines()[0].startswith("# config:")
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header.split("\t") == ["delta", "measured", "sampled", "bound"]


def test_decay_cr_command(tmp_path):
    code = run(tmp_path, "decay", "--dim", "2", "--degree", "CR", "--rounds", "4",
               "--policy", "corner", "--trials", "1", "--out", "dcr")
    assert code == 0
    text = (tmp_path / "dcr" / "decay.tsv").read_text()
    assert "delta" in text


def test_tables_command(tmp_path):
    assert run(tmp_path, "tables", "--out", "t") == 0
    q = (tmp_path / "t" / "table1_qnew.tsv").read_text()
    assert "0.3333" in q and "0.1716" in q
    t2 = (tmp_path / "t" / "table2_stability_2d.tsv").read_text()
    assert "[1.2619,4.8188]" in t2 and "empty" in t2 and "[1,inf]" in t2
    t3 = (tmp_path / "t" / "table3_stability_3d.tsv").read_text()
    assert "[1.0387,26.9019]" in t3
    th = json.loads((tmp_path / "t" / "cr_thresholds.json").read_text())
    assert th["thresholds"]["lp_all_p_max_d"] == 35
    assert th["thresholds"]["w1p_all_p_max_d"] == 32


def test_tables_byte_identical(tmp_path):
    names = ("table1_qnew.tsv", "table2_stability_2d.tsv", "table3_stability_3d.tsv", "cr_thresholds.json")
    run(tmp_path, "tables", "--out", "a")
    first = {name: (tmp_path / "a" / name).read_bytes() for name in names}
    run(tmp_path, "tables", "--out", "a")
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == first[name]


def test_refine_byte_identical(tmp_path):
    run(tmp_path, "refine", "--rounds", "6", "--policy", "random:0.3", "--seed", "9", "--out", "m1")
    first = (tmp_path / "m1" / "mesh.json").read_bytes()
    run(tmp_path, "refine", "--rounds", "6", "--policy", "random:0.3", "--seed", "9", "--out", "m1")
    assert (tmp_path / "m1" / "mesh.json").read_bytes() == first


def test_mesh_roundtrip_through_cli(tmp_path):
    run(tmp_path, "refine", "--rounds", "4", "--policy", "random:0.4", "--seed", "2", "--out", "m")
    code = run(tmp_path, "certify", "--mesh", str(tmp_path / "m" / "mesh.json"), "--degree", "1", "--out", "c")
    assert code == 0


def test_mesh_file_is_refined_by_rounds(tmp_path):
    # --mesh replaces the initial Kuhn mesh; --rounds and --policy refine it
    run(tmp_path, "refine", "--rounds", "4", "--policy", "random:0.4", "--seed", "2", "--out", "m")
    mesh = str(tmp_path / "m" / "mesh.json")
    dofs = {}
    for rounds in ("0", "3"):
        assert run(tmp_path, "certify", "--mesh", mesh, "--rounds", rounds, "--policy", "uniform",
                   "--degree", "1", "--out", "c" + rounds) == 0
        cert = json.loads((tmp_path / ("c" + rounds) / "certificate.json").read_text())
        assert cert["meta"]["config"]["rounds"] == int(rounds)
        dofs[rounds] = cert["n_dofs"]
    assert dofs["3"] > dofs["0"]


def test_stability_command(tmp_path):
    code = run(tmp_path, "stability", "--dim", "2", "--degree", "1", "--gamma-h", "2",
               "--kind", "W1p", "--p", "3", "--out", "s")
    assert code == 0
    verdict = json.loads((tmp_path / "s" / "stability_verdict.json").read_text())
    assert verdict["interval"] == "[1.2619,4.8188]"
    assert verdict["admissible"] is True


def test_stability_preset(tmp_path):
    code = run(tmp_path, "stability", "--dim", "2", "--degree", "1", "--preset", "2D-NVB+",
               "--kind", "W1p", "--out", "sp")
    assert code == 0
    verdict = json.loads((tmp_path / "sp" / "stability_verdict.json").read_text())
    assert verdict["interval"] == "[1.2619,4.8188]"  # gamma_h = 2 from the preset
    assert run(tmp_path, "stability", "--preset", "nope", "--out", "x") == 3
    assert run(tmp_path, "stability", "--preset", "2D-RG", "--gamma-h", "2", "--out", "x") == 3


def test_grading_reports_regularized_h(tmp_path):
    run(tmp_path, "grading", "--dim", "2", "--rounds", "5", "--policy", "random:0.3",
        "--seed", "3", "--out", "gr")
    data = json.loads((tmp_path / "gr" / "grading.json").read_text())
    assert data["regularized_h"]["grading"] <= 2.0 + 1e-12
    assert data["regularized_h"]["equivalence_ratio"] >= 1.0


def test_stability_measured(tmp_path):
    code = run(tmp_path, "stability", "--dim", "2", "--degree", "1", "--gamma-rho", "2",
               "--gamma-h", "1.4142135623730951", "--rounds", "3", "--policy", "random:0.3",
               "--measure", "--out", "sm")
    assert code == 0
    verdict = json.loads((tmp_path / "sm" / "stability_verdict.json").read_text())
    assert verdict["measurement"]["passed"] is True


def test_cr_check_command(tmp_path):
    code = run(tmp_path, "cr-check", "--rounds", "2", "--out", "crc")
    assert code == 0
    data = json.loads((tmp_path / "crc" / "cr_check.json").read_text())
    assert data["results"]["d2"]["c_equals_q_maxdiff"] < 1e-12
    assert data["results"]["thresholds"]["lp_all_p_max_d"] == 35


def test_closure_bench_command(tmp_path):
    code = run(tmp_path, "closure-bench", "--dim", "2", "--rounds", "10", "--policy",
               "random-count:4", "--seed", "1", "--out", "cb")
    assert code == 0
    text = (tmp_path / "cb" / "closure_bench.tsv").read_text()
    assert "round\tmarked\telements\tratio" in text


def test_grading_command(tmp_path):
    code = run(tmp_path, "grading", "--dim", "3", "--rounds", "2", "--alpha", "1",
               "--policy", "random:0.3", "--out", "g")
    assert code == 0
    data = json.loads((tmp_path / "g" / "grading.json").read_text())
    assert data["level_gap_face"] <= 1
    assert data["gamma_h_vertex"] >= 1.0


def test_bad_inputs_exit_3(tmp_path, capsys):
    assert run(tmp_path, "certify", "--degree", "0", "--out", "x") == 3
    assert run(tmp_path, "certify", "--mesh", "missing.json", "--degree", "1", "--out", "x") == 3
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "no-such-command")
    assert exc.value.code == 3
    # domain errors surface as input errors, not tracebacks
    assert run(tmp_path, "certify", "--dim", "1", "--degree", "CR", "--rounds", "0", "--out", "x") == 3
    assert run(tmp_path, "refine", "--dim", "2", "--policy", "bogus", "--rounds", "1", "--out", "x") == 3


def test_tolerance_overrides(tmp_path):
    # an absurdly tight kappa slack turns a sharp certificate into a violation
    code = run(tmp_path, "certify", "--dim", "2", "--degree", "1", "--rounds", "0",
               "--tolerance", "kappa_slack=-1e-3", "--out", "tv")
    assert code == 2
    cert = json.loads((tmp_path / "tv" / "certificate.json").read_text())
    assert cert["meta"]["tolerances"]["kappa_slack"] == -1e-3
    assert run(tmp_path, "certify", "--dim", "2", "--degree", "1", "--rounds", "0",
               "--tolerance", "nope=1", "--out", "x") == 3


def test_decay_byte_identical(tmp_path):
    argv = ["decay", "--dim", "2", "--degree", "1", "--rounds", "4",
            "--policy", "corner", "--trials", "2", "--out", "dd"]
    assert run(tmp_path, *argv) == 0
    first = (tmp_path / "dd" / "decay.tsv").read_bytes()
    assert run(tmp_path, *argv) == 0
    assert (tmp_path / "dd" / "decay.tsv").read_bytes() == first


def _mesh_file(vertices, simplices, gamma_faces=(), dim=2):
    return {
        "version": 1,
        "dim": dim,
        "vertices": [[[x, 0] for x in c] for c in vertices],
        "simplices": [{"v": list(v), "tag": tag, "level": 0} for v, tag in simplices],
        "gamma_faces": [list(f) for f in gamma_faces],
    }


_TRIANGLE = [(0, 0), (1, 0), (0, 1)]


@pytest.mark.parametrize(
    "data",
    [
        _mesh_file(_TRIANGLE, [((0, 1, 3), 2)]),  # vertex index out of range
        _mesh_file(_TRIANGLE, [((0, 1, 2), 9)]),  # tag outside 1..d
        _mesh_file(_TRIANGLE, []),  # no simplices
        _mesh_file(_TRIANGLE, [((0, 1, 2), 2)], gamma_faces=[(0, 5)]),  # gamma face names a missing vertex
        _mesh_file(_TRIANGLE + [(1, 1), (0, -1)], [((0, 1, 2), 2), ((0, 1, 3), 2), ((0, 1, 4), 2)]),  # edge in three triangles
        _mesh_file([(0, 0), (2, 0), (0, 2), (1, 0), (0, -1)], [((0, 1, 2), 2), ((0, 3, 4), 2)]),  # hanging vertex
        _mesh_file(_TRIANGLE + [(0, 0)], [((0, 1, 2), 2)]),  # repeated vertex
        {"version": 1, "dim": 2, "vertices": [[[0, -1], [0, 0]]], "simplices": []},  # negative exponent
        {"version": 1, "dim": 2, "vertices": []},  # no simplices key
        [],  # not a mesh object
    ],
    ids=["vertex-range", "tag", "empty", "gamma-vertex", "face-owners", "hanging", "repeat", "exponent", "keys", "list"],
)
def test_malformed_mesh_exits_3(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(tmp_path, "certify", "--mesh", str(path), "--degree", "1", "--out", "x") == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err


def test_cr_rejects_zero_trace(tmp_path):
    assert run(tmp_path, "certify", "--dim", "2", "--degree", "CR", "--zero-trace",
               "--rounds", "0", "--out", "x") == 3
