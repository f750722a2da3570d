import argparse
import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradedproj
from gradedproj.cli import build_mesh, build_parser, closure_growth, main, round4
from gradedproj.mesh import SimplicialMesh, kuhn_initial_mesh, marking_policy
from gradedproj.polyspace import LagrangeSpace
from oracles import reference_simplex_mesh, refine_rounds, save_mesh


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


@pytest.mark.parametrize("dim,alpha,policy,rounds", [
    (2, 1, "corner", 12), (2, 0, "random:0.3", 6), (2, 2, "random-count:4", 10),
    (3, 1, "corner", 8), (3, 0, "uniform", 2), (2, 1, "no-such-policy", 0),
])
def test_build_mesh_matches_marking_loop(dim, alpha, policy, rounds):
    # the CLI meshes run through closure_benchmark, as the loop they replace;
    # --rounds 0 leaves the mesh as built and never reads --policy
    args = argparse.Namespace(dim=dim, cells=1, alpha=alpha, policy=policy, rounds=rounds, seed=3, mesh=None)
    want = refine_rounds(kuhn_initial_mesh(dim, 1), policy, rounds, alpha, 3)
    assert build_mesh(args).to_json_dict() == want.to_json_dict()


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


# sha256 of the 19 files the ten README commands write, as listed in CHANGES.md
README_DIGESTS = {
    "out/bench/closure_bench.tsv": "df7b4a50faea04a6f6f43b2cfb7e9c3a5bb9d0938239258f250fa49af18a46e1",
    "out/cert/certificate.json": "4ddab7f281c817b9009f37c9bb603ff0ae0600b82ab89120c13d52161b9755fd",
    "out/cr/cr_check.json": "3ad3a630853da5ce15a8c34ea3fb861e2cd731af0b48fc9bed6c0b3448efb934",
    "out/crcert/certificate.json": "179ea8351ab5b1d2448fc9837cd265b665dd9886235b2c86b43af4e1438a7e2f",
    "out/decay/decay.tsv": "c20b6438d79603ea832590be1798176039cc6130fac16f0c987e61365f87f20e",
    "out/grading/elements.tsv": "6cde48d781d2540cac63e47501974372eefce2290ccb74f677c1a6ff6d4bdff7",
    "out/grading/grading.json": "0e97d3c114d47e31dabfb529f347d6ad2f781c92bd0894db65273e2da5f1fe65",
    "out/refine/elements.tsv": "1837fe448dd2ddb2ac0887b346533d06f866e87b8b5e82988599b7feb079282a",
    "out/refine/grading_report.tsv": "19e25a20baa9b4baf6732692346d9e432a4efcbdc8efac868ca2fcf75a19c35e",
    "out/refine/mesh.json": "cdc81591bbbc556726b54fc7af7436b2225a19c4ae6b4bd035161f6dca80e8af",
    "out/stab/stability_verdict.json": "1047f082e8424de7987a5bc99039b8b84dea17441e01612d0cfbea467464d203",
    "out/stabm/stability_verdict.json": "7fcd42407faef5d0099e62b11f3fecd725246001dbfd77683e0fdfd01a1b2c8c",
    "out/tables/cr_thresholds.json": "0903d2e9158560802db0ec47e583699ff99075bf916032a5dd1e9f2c820d35c9",
    "out/tables/published_gradings.json": "4e58253c4ca35a2b16168535ec84b22297ca0411280af363445dba134b1e7f6f",
    "out/tables/table1_qnew.tsv": "d2bbec9bf506c6ae900167382b7620d72f97d90d23fa3d8ceaadd6b78f87d471",
    "out/tables/table2_stability_2d.tsv": "cb3331ac43e4992959dc06a137b6a3f10084e523fcf7a1bbf151192b7c7d1bc7",
    "out/tables/table3_stability_3d.tsv": "80be35da3bb883f468e2e7c5b9617130ef090d6adea948de8e2753b3c72e69d0",
    "out/tables/table5_w12_ranges_2d.tsv": "804ed3e2c24cb867d0e0dc4ede23a6b85be65760b81a9d2588f00fc6845c9dd3",
    "out/tables/table6_w12_ranges_3d.tsv": "4a8feadf4f9c8513afd1160c3a3f34fc93f3c48d471f2624c454c5afac5fa07f",
}
GRADING_OUTPUTS = ("out/refine/", "out/grading/", "out/bench/")


def _pinned(prefixes):
    return {name: digest for name, digest in README_DIGESTS.items() if name.startswith(prefixes)}


def test_readme_grading_outputs_match_pinned_digests(tmp_path):
    # the README refine, grading and closure-bench lines write these files
    # byte for byte; closure-bench's exit code is not part of the pin
    assert run(tmp_path, *"refine --dim 2 --alpha 1 --policy corner --rounds 8 --out out/refine".split()) == 0
    assert run(tmp_path, *"grading --dim 3 --rounds 4 --policy random:0.25 --out out/grading".split()) == 0
    run(tmp_path, *"closure-bench --dim 2 --rounds 40 --policy random-count:4 --out out/bench".split())
    pinned = _pinned(GRADING_OUTPUTS)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in pinned}
    assert digests == pinned


@pytest.mark.parametrize(
    "line",
    [
        "certify --dim 3 --degree 2 --rounds 3 --policy random:0.3 --out out/cert",
        "certify --dim 2 --degree CR --rounds 4 --out out/crcert",
        "decay --dim 2 --degree 1 --rounds 6 --policy corner --out out/decay",
        "tables --out out/tables",
        "stability --dim 2 --degree 1 --preset 2D-NVB+ --kind W1p --p 3 --out out/stab",
        "stability --dim 2 --degree 1 --gamma-rho 2 --measure --out out/stabm",
        "cr-check --out out/cr",
    ],
    ids=lambda line: line.rsplit("/", 1)[1],
)
def test_readme_outputs_match_pinned_digests(tmp_path, line):
    # the other seven README lines: each exits 0 and writes exactly its pinned files
    out = line.rsplit(" ", 1)[1]
    assert run(tmp_path, *line.split()) == 0
    pinned = _pinned(out + "/")
    written = {f"{out}/{path.name}" for path in (tmp_path / out).iterdir()}
    assert written == set(pinned)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in pinned} == pinned


def test_refine_and_grading_build_each_graph_once(tmp_path, monkeypatch):
    # the element report reads the command's vertex graph instead of building its own
    import gradedproj.mesh as mesh_module

    kinds = []

    class Counting(mesh_module.ElementDistance):
        def __init__(self, mesh, kind="vertex"):
            kinds.append(kind)
            super().__init__(mesh, kind)

    monkeypatch.setattr(mesh_module, "ElementDistance", Counting)
    for line in ("refine --rounds 3 --out r", "grading --rounds 3 --out g"):
        kinds.clear()
        assert run(tmp_path, *line.split()) == 0
        assert sorted(kinds) == ["face", "vertex"], (line, kinds)


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


def test_refine_rejects_steep_mesh_file(tmp_path, capsys):
    # plain-closure corner rounds leave a vertex level gap above 1; with no
    # further rounds the grading check of `refine` is what reports it
    mesh = kuhn_initial_mesh(2, 1)
    for _ in range(6):
        mesh.refine_closure(marking_policy("corner")(mesh, np.random.default_rng(0)))
    path = tmp_path / "steep.json"
    save_mesh(mesh, path)
    assert run(tmp_path, "refine", "--mesh", str(path), "--rounds", "0", "--alpha", "1", "--out", "s") == 2
    assert "vertex level gap" in capsys.readouterr().err


def test_stability_command(tmp_path):
    code = run(tmp_path, "stability", "--dim", "2", "--degree", "1", "--gamma-h", "2",
               "--kind", "W1p", "--p", "3", "--out", "s")
    assert code == 0
    verdict = json.loads((tmp_path / "s" / "stability_verdict.json").read_text())
    assert verdict["interval"] == "[1.2619,4.8188]"
    assert verdict["admissible"] is True


def test_stability_limit_degree(tmp_path):
    # K = inf is the limit verdict; it is written as "inf", as the tables write K
    assert run(tmp_path, "stability", "--dim", "2", "--degree", "inf", "--out", "si") == 0
    verdict = json.loads((tmp_path / "si" / "stability_verdict.json").read_text())
    assert verdict["degree"] == "inf" and verdict["interval"] == "[1,inf]"


@pytest.mark.parametrize("command", [["certify"], ["decay"], ["stability", "--measure"]])
def test_infinite_degree_builds_no_space(tmp_path, capsys, command):
    # every command that builds a space refuses K = inf in one line, exit 3
    assert run(tmp_path, *command, "--dim", "2", "--degree", "inf", "--out", "o") == 3
    assert capsys.readouterr().err == "input error: a finite element space needs a finite degree or CR\n"


@pytest.mark.parametrize("degree", ["1", "2"])
def test_certify_space_without_dofs_exits_3(tmp_path, capsys, degree):
    # one triangle whose faces are all gamma faces has no interior P1 or P2 dof
    save_mesh(reference_simplex_mesh(2, mark_boundary=True), tmp_path / "tri.json")
    code = run(tmp_path, "certify", "--degree", degree, "--zero-trace", "--rounds", "0", "--mesh", "tri.json", "--out", "c")
    assert code == 3
    assert capsys.readouterr().err == "input error: certification needs a space with dofs\n"


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


def test_stability_measured_at_default_gamma(tmp_path):
    # --gamma-rho defaults to 1: the weight is the base's 1-graded majorant,
    # the constant 1.0, and the weighted L2 ratio is that of Q itself, 1
    code = run(tmp_path, "stability", "--dim", "2", "--degree", "1", "--measure", "--out", "s1")
    assert code == 0
    measurement = json.loads((tmp_path / "s1" / "stability_verdict.json").read_text())["measurement"]
    assert measurement["gamma_rho_actual"] == 1.0
    assert abs(measurement["measured"] - 1.0) <= 1e-12
    assert measurement["passed"] is True


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


def _through(points):
    """R_1..R_n linear between the given (k, R_k) points, n the last k."""
    ks, rs = zip(*points)
    return list(np.interp(np.arange(1, ks[-1] + 1), ks, rs))


@pytest.mark.parametrize(
    "ratios, want",
    [
        ([5.0] * 159, None),  # under 160 rounds: undecided
        ([0.0] * 80 + [5.0] * 80, None),  # nothing marked before round 81: no base to compare with
        ([6.0 - 6.0 / (k + 1) for k in range(1, 161)], None),  # a bounded approach
        ([1.0 + k for k in range(1, 161)], (160, 81.0, 161.0)),  # linear growth: 161 / 81
        ([2.0] * 200 + [3.1] * 120, (320, 2.0, 3.1)),  # the whole run: R_320 / R_160
        ([1.0] * 80 + [2.0] * 120, None),  # a settled jump: R_200 / R_100 = 1 (R_160 / R_80 = 2 is not a point)
        ([k**0.5 for k in range(1, 641)], None),  # sqrt(k) growth is not detected
        # the d = 3 seed-8 transient: R_80 / R_40 = 1.68, then 1.16 and 1.13
        (_through([(1, 4.0), (40, 18.75), (80, 31.48), (160, 36.39), (320, 40.95)]), None),
    ],
)
def test_closure_growth_rule(ratios, want):
    assert closure_growth(ratios) == want


def test_closure_bench_passes_a_d3_transient(tmp_path):
    # R_80 / R_40 = 31.48 / 18.75 = 1.68 on this run; R_160 / R_80 = 1.16
    argv = "closure-bench --dim 3 --rounds 160 --policy random-count:4 --seed 8 --out cb".split()
    assert run(tmp_path, *argv) == 0


def test_closure_bench_gate_fires_on_unbounded_growth(tmp_path, monkeypatch):
    # a broken closure that after round k also bisects k elements of lowest
    # level: the new elements grow quadratically in k, the marks linearly, so
    # the ratio grows linearly (R_160 / R_80 = 1.75)
    refine_lg = SimplicialMesh.refine_lg
    calls = []

    def mutated(mesh, marked, alpha):
        refine_lg(mesh, marked, alpha)
        calls.append(1)
        ids = sorted(mesh.active_ids(), key=lambda s: mesh.simplices[s].level)
        mesh.refine_closure(ids[: len(calls)])
        return mesh

    monkeypatch.setattr(SimplicialMesh, "refine_lg", mutated)
    argv = "closure-bench --dim 2 --rounds 160 --policy random-count:4 --out cb".split()
    assert run(tmp_path, *argv) == 2
    monkeypatch.setattr(SimplicialMesh, "refine_lg", refine_lg)
    assert run(tmp_path, *argv) == 0


@pytest.mark.parametrize("dim", [2, 3])
def test_closure_bench_alpha_0_runs_plain_closure(tmp_path, dim):
    # --alpha 0 means plain closure, as on every other command
    code = run(tmp_path, "closure-bench", "--dim", str(dim), "--rounds", "12", "--alpha", "0", "--policy",
               "random-count:4", "--seed", "1", "--out", "cb")
    assert code == 0
    lines = (tmp_path / "cb" / "closure_bench.tsv").read_text().splitlines()
    rows = [line.split("\t") for line in lines[lines.index("round\tmarked\telements\tratio") + 1 :]]
    mesh, pick, rng = kuhn_initial_mesh(dim, 1), marking_policy("random-count:4"), np.random.default_rng(1)
    want = []
    for _ in range(12):
        marked = pick(mesh, rng)
        mesh.refine_closure(marked)
        want.append([len(marked), mesh.n_active])
    assert [[int(r[1]), int(r[2])] for r in rows[:-1]] == want
    assert rows[-1][:3] == ["total", str(sum(m for m, _ in want)), str(mesh.n_active)]


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
    # unreadable mesh files: a directory, and a file that is not UTF-8
    (tmp_path / "folder.json").mkdir()
    (tmp_path / "latin1.json").write_bytes(b'{"version": 1, "dim": "\xe9"}')
    # an integer past Python's digit limit for int-from-string conversion
    (tmp_path / "digits.json").write_text('{"version": 1, "dim": ' + "1" * 5000 + "}")
    capsys.readouterr()
    for name in ("folder.json", "latin1.json", "digits.json"):
        assert run(tmp_path, "certify", "--mesh", name, "--degree", "1", "--out", "x") == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err


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
        _mesh_file(_TRIANGLE, [((0, 1, 2.9), 2)]),  # vertex id not an integer
        _mesh_file(_TRIANGLE, [((0, 1, 2), 2.7)]),  # tag not an integer
        {**_mesh_file(_TRIANGLE, []), "simplices": [{"v": [0, 1, 2], "tag": 2, "level": 0.5}]},  # level
        {**_mesh_file(_TRIANGLE, [((0, 1, 2), 2)]), "vertices": [[[0, 0], [0, 0]], [[True, 0], [0, 0]], [[0, 0], [1, 0]]]},
        {**_mesh_file(_TRIANGLE, [((0, 1, 2), 2)]), "vertices": [[[0, 0], [0, 0]], [[1, 1023], [0, 0]], [[0, 0], [1, 0]]]},
        {**_mesh_file(_TRIANGLE, [((0, 1, 2), 2)]), "vertices": [[[0, 0], [0, 0]], [[1, 10**30], [0, 0]], [[0, 0], [1, 0]]]},
        # a bisection of this triangle needs exponent 1023 (certify refines 4 rounds)
        {**_mesh_file(_TRIANGLE, [((0, 1, 2), 2)]), "vertices": [[[0, 0], [0, 0]], [[1, 1022], [0, 0]], [[0, 0], [1, 1022]]]},
        _mesh_file([(0, 0), (4, 0), (0, 4), (1, 0), (3, 0), (2, -2)], [((0, 1, 2), 2), ((3, 4, 5), 2)]),  # T-junction
        _mesh_file([(0, 0), (10**400, 0), (0, 1)], [((0, 1, 2), 2)]),  # a coordinate past the float range
        _mesh_file([(0, 0), (2**510, 0), (0, 1)], [((0, 1, 2), 2)]),  # at the bound 2**coordinate_bits(2)
        {**_mesh_file(_TRIANGLE, [((0, 1, 2), 2)]), "vertices": [[[0, 0], [0, 0]], [[2**511, 1], [0, 0]], [[0, 0], [1, 0]]]},
    ],
    ids=["vertex-range", "tag", "empty", "gamma-vertex", "face-owners", "hanging", "repeat", "exponent", "keys", "list",
         "id-float", "tag-float", "level-float", "numerator-bool", "exponent-1023", "exponent-huge", "bisect-exponent",
         "t-junction", "coordinate-huge", "coordinate-bound", "coordinate-bound-exponent"],
)
def test_malformed_mesh_exits_3(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(tmp_path, "certify", "--mesh", str(path), "--degree", "1", "--out", "x") == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "data",
    [
        _mesh_file([(0, 0), (2**510 - 1, 0), (0, 2**510 - 1)], [((0, 1, 2), 2)]),  # just inside the bound
        # numerators past the float range at the mesh exponent 1022, coordinates small
        {**_mesh_file(_TRIANGLE, [((0, 1, 2), 2)]), "vertices": [[[0, 0], [0, 0]], [[4, 0], [0, 0]], [[0, 0], [1, 1022]]]},
    ],
    ids=["inside-bound", "high-exponent"],
)
def test_mesh_inside_coordinate_bound_runs(tmp_path, data):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(data))
    mesh = SimplicialMesh.load(path)
    geometry = LagrangeSpace(mesh, 1).geometry
    assert all(np.isfinite(table).all() for table in geometry)
    assert run(tmp_path, "certify", "--mesh", str(path), "--degree", "1", "--rounds", "0", "--out", "c") == 0
    assert run(tmp_path, "refine", "--mesh", str(path), "--rounds", "0", "--out", "r") == 0


def test_overlapping_mesh_exits_3(tmp_path, capsys):
    # the triangles hold no vertex of each other, yet their interiors meet
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(_mesh_file([(0, 0), (4, 0), (2, 4), (0, 3), (4, 3), (2, -1)],
                                          [((0, 1, 2), 2), ((3, 4, 5), 2)])))
    assert run(tmp_path, "certify", "--dim", "2", "--degree", "1", "--mesh", str(path), "--rounds", "0", "--out", "x") == 3
    assert capsys.readouterr().err == "input error: simplices [0, 1, 2] and [3, 4, 5] overlap\n"


def test_singular_mass_matrix_exits_3(tmp_path, capsys):
    # the 72 x 72 Kuhn square (5329 P1 dofs) scaled by 2^-600: every float
    # volume underflows to 0, so M is the zero matrix, and the mass factor
    # refuses it with an input error, not a traceback
    data = kuhn_initial_mesh(2, 72).to_json_dict()
    data["vertices"] = [[[n, k + 600] for n, k in point] for point in data["vertices"]]
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(data))
    assert run(tmp_path, "decay", "--mesh", str(path), "--rounds", "0", "--degree", "1", "--out", "x") == 3
    assert capsys.readouterr().err == "input error: singular mass matrix\n"


def test_readme_closure_bench_exits_0(tmp_path):
    assert run(tmp_path, *"closure-bench --dim 2 --rounds 40 --policy random-count:4 --out out/bench".split()) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["stability", "--dim", "0"],
        ["stability", "--dim", "0", "--degree", "CR"],
        ["stability", "--p", "0"],
        ["stability", "--p", "abc"],
        ["stability", "--p", "0.5"],
        ["stability", "--p", "-1"],
        ["stability", "--p", "nan"],
        ["stability", "--gamma-h", "nan"],
        ["stability", "--gamma-h", "inf"],
        ["stability", "--gamma-rho", "nan"],
        ["refine", "--policy", "random:abc"],
        ["refine", "--policy", "random-count:x"],
        ["refine", "--rounds", "-1"],
        ["grading", "--rounds", "-2"],
        ["closure-bench", "--rounds", "-3"],
        ["cr-check", "--rounds", "-4"],
        ["certify", "--rounds", "-5"],
        ["decay", "--trials", "-1"],
        ["tables", "--probe-limit", "-5"],
        ["tables", "--probe-limit", "1"],
        ["cr-check", "--probe-limit", "0"],
        ["refine", "--alpha", "-1"],
        ["certify", "--alpha", "-2"],
        ["decay", "--alpha", "-3"],
        ["stability", "--alpha", "-4"],
        ["grading", "--alpha", "-5"],
        ["refine", "--seed", "-1"],
        ["decay", "--seed", "-3"],
        ["stability", "--gamma-rho", "inf"],
        ["refine", "--tolerance", "bogus=1"],
        ["grading", "--tolerance", "kappa_slack=abc"],
        ["stability", "--tolerance", "bogus=2"],
        ["certify", "--tolerance", "kappa_slack=nan"],
        ["decay", "--tolerance", "decay_slack=inf"],
    ],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_malformed_option_exits_3(tmp_path, capsys, argv):
    assert run(tmp_path, *argv, "--out", "x") == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err


def test_every_subcommand_option_has_help():
    # --help says what each option of each subcommand does
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    missing = [(name, a.option_strings) for name, sub in subparsers.choices.items() for a in sub._actions if not a.help]
    assert not missing, missing


def _modules_loaded(tmp_path, statement):
    """Run `statement` in a fresh interpreter; return the value it leaves in
    `code` and the top-level packages it loaded."""
    script = f"import json, sys\n{statement}\nprint(json.dumps([code, sorted(sys.modules)]))\n"
    src = str(Path(gradedproj.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    code, modules = json.loads(done.stdout.strip().splitlines()[-1])
    return code, {m.split(".")[0] for m in modules}


def test_import_loads_no_numeric_stack(tmp_path):
    for module in ("gradedproj.cli", "gradedproj.analytic"):
        _, loaded = _modules_loaded(tmp_path, f"import {module}\ncode = None")
        assert not loaded & {"numpy", "scipy"}, (module, sorted(loaded))


@pytest.mark.parametrize(
    "line, unwanted",
    [
        ("tables --out out/tables", {"numpy", "scipy"}),
        ("stability --dim 2 --degree 1 --preset 2D-NVB+ --kind W1p --p 3 --out out/stab", {"numpy", "scipy"}),
        ("refine --dim 2 --alpha 1 --policy corner --rounds 8 --out out/refine", {"scipy"}),
        ("grading --dim 3 --rounds 4 --policy random:0.25 --out out/grading", {"scipy"}),
        ("closure-bench --dim 2 --rounds 40 --policy random-count:4 --out out/bench", {"scipy"}),
    ],
    ids=["tables", "stability", "refine", "grading", "closure-bench"],
)
def test_command_import_layers(tmp_path, line, unwanted):
    # the README command lines, each in a fresh interpreter, run to the end
    code, loaded = _modules_loaded(tmp_path, f"from gradedproj.cli import main\ncode = main({line.split()!r})")
    assert code == 0
    assert not loaded & unwanted, sorted(loaded & unwanted)


def test_cr_rejects_zero_trace(tmp_path):
    assert run(tmp_path, "certify", "--dim", "2", "--degree", "CR", "--zero-trace",
               "--rounds", "0", "--out", "x") == 3


@pytest.mark.parametrize("script", sorted(p.name for p in (Path(__file__).parents[1] / "scripts").glob("*.py")))
def test_experiment_scripts_import(script):
    # each script does its work under `if __name__ == "__main__"`, so this
    # runs only its imports: an API the scripts use must still exist
    runpy.run_path(str(Path(__file__).parents[1] / "scripts" / script), run_name="not_main")
