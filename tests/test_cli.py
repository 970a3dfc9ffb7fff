"""CLI surface: exit codes, report determinism, file round-trips, sweep log."""
import csv
import json
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import gsteiner
from gsteiner import SolverConfig, cli, fileio, svg
from gsteiner.currents import PolyhedralChain, Segment, make_boundary
from gsteiner.sweep import SweepSpec, _cell, append_log, run_sweep

SQUARE = {
    "dim": 2, "alpha": 0.95,
    "atoms": [{"p": [0.0, 0.0], "m": "-1"}, {"p": [1.0, 1.0], "m": "-1"},
              {"p": [1.0, 0.0], "m": "1"}, {"p": [0.0, 1.0], "m": "1"}],
}


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE))
    return str(path)


def test_solve_report(square_file, tmp_path):
    report = tmp_path / "report.json"
    svg = tmp_path / "out.svg"
    rc = cli.main(["solve", "--input", square_file,
                   "--report", str(report), "--svg", str(svg)])
    assert rc == 0
    obj = json.loads(report.read_text())
    assert obj["schema"] == "1"
    assert len(obj["minimizers"]) == 2
    assert obj["best_value"] == pytest.approx(2.0)
    # each minimizer carries its topology's lower bound, which certifies it
    for m in obj["minimizers"]:
        assert "residual" not in m
        assert m["value"] - m["lower"] <= 1e-12 * (1.0 + m["value"])
    assert svg.read_text().startswith("<svg")


def test_readme_instances_run(tmp_path):
    # the instance files README.md shows, read from README.md itself
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [json.loads(m) for m in re.findall(r"```json\n(.*?)```", readme,
                                                 re.S)]
    square = tmp_path / "square.json"
    square.write_text(json.dumps(next(o for o in blocks if "atoms" in o)))
    four = tmp_path / "four.json"
    four.write_text(json.dumps(next(o for o in blocks if "theta" in o)))
    assert cli.main(["solve", "--input", str(square),
                     "--report", str(tmp_path / "report.json"),
                     "--svg", str(tmp_path / "out.svg")]) == 0
    assert cli.main(["local4", "--input", str(four), "--alpha", "0.5",
                     "--svg", str(tmp_path / "wz.svg")]) == 0


def test_solve_alpha_flag_wins(square_file, tmp_path):
    report = tmp_path / "r.json"
    rc = cli.main(["solve", "--input", square_file, "--alpha", "0.5",
                   "--report", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["alpha"] == 0.5


def test_report_bodies_deterministic(square_file, tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert cli.main(["solve", "--input", square_file, "--report", str(r1)]) == 0
    assert cli.main(["solve", "--input", square_file, "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_solve_verbose_stream(square_file, tmp_path, capsys):
    report = tmp_path / "r.json"
    assert cli.main(["solve", "--input", square_file, "--verbose",
                     "--report", str(report)]) == 0
    lines = capsys.readouterr().err.splitlines()
    records = [json.loads(ln) for ln in lines]  # one JSON object per line
    assert all(isinstance(r, dict) for r in records)
    stages = [r["stage"] for r in records]
    stats = json.loads(report.read_text())["stats"]
    # one bounding record per topology with branch points or not; the full
    # runs of the optimized ones end with "done" (none for m = 0), and the
    # square's two-branch kernel runs end early at a certified collapse
    assert stages.count("bound") == stats["optimized"] + stats["pruned"]
    assert set(stages) == {"bound", "eps", "collapse", "done"}


def test_solve_verbose_shows_early_exits(tmp_path, capsys):
    # the distinct-mass 6-atom instance of the benchmark in its seed-0 pose:
    # its kernel runs end at a certified collapse, each with a record
    masses = ("-3", "-1/2", "2", "1", "3/2", "-1")
    points = ((3.726285925, -2.137424928), (4.660813101, -2.945303605),
              (2.952986398, -2.866990444), (4.470335556, -3.171352946),
              (3.417930057, -2.44000989), (3.749000378, -2.471655468))
    path = tmp_path / "six.json"
    path.write_text(json.dumps({"dim": 2, "alpha": 0.5, "atoms": [
        {"p": list(p), "m": m} for p, m in zip(points, masses)]}))
    report = tmp_path / "r.json"
    assert cli.main(["solve", "--input", str(path), "--verbose",
                     "--report", str(report)]) == 0
    records = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()]
    stages = [r["stage"] for r in records]
    assert "collapse" in stages
    # every "done" record carries the value's lower bound
    assert all(set(r) == {"stage", "iteration", "value", "lower"}
               for r in records if r["stage"] == "done")
    assert len(json.loads(report.read_text())["minimizers"]) == 1


def test_flat_norm_cli(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"dim": 2, "atoms": [{"p": [0.0, 0.0], "m": "1"}]}))
    b.write_text(json.dumps({"dim": 2, "atoms": [{"p": [1.0, 0.0], "m": "1"}]}))
    assert cli.main(["flat-norm", str(a), str(b)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(1.0)
    assert out["witness"]["transport_arcs"][0]["flow"] == "1"


def test_flat_norm_cli_large_denominators(tmp_path, capsys):
    # the float LP's witness oversent here and the command exited 2
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"atoms": [
        {"p": [0.1, 0.2], "m": "-3085/7879"}, {"p": [1.0, 0.3], "m": "2467/7883"},
        {"p": [0.4, 1.1], "m": "-4880/7877"}, {"p": [1.3, 1.2], "m": "4154/7901"},
        {"p": [0.7, 0.6], "m": "94/7873"}]}))
    assert cli.main(["flat-norm", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 < out["value"] < 2.0


def test_enumerate_topologies_cli(square_file, capsys):
    assert cli.main(["enumerate-topologies", "--input", square_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # the square's full topologies with flow on every edge: the two
    # matchings and the tree pairing the sources and pairing the sinks
    assert len(lines) == 3
    assert all("edges" in json.loads(ln) for ln in lines)


def test_estimate_k0_cli(capsys):
    assert cli.main(["estimate-k0", "--alpha", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["k0"] == 5


def test_local4_cli(tmp_path, capsys):
    four = tmp_path / "four.json"
    four.write_text(json.dumps({
        "A": [-4.0, 0.0], "B": [-1.0, 0.02], "C": [1.0, -0.02],
        "D": [4.0, 0.0], "theta": "1", "k": 6}))
    assert cli.main(["local4", "--input", str(four), "--alpha", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["label"] in ("W", "Z")
    assert set(out["infeasible"]) == {"1d", "1i", "1j", "1n", "1q", "1r", "3c"}


def test_perturb_cli(square_file, tmp_path):
    report = tmp_path / "p.json"
    rc = cli.main(["perturb", "--input", square_file, "--alpha", "0.6",
                   "--k", "11", "--radius", "0.05", "--report", str(report)])
    assert rc == 0
    obj = json.loads(report.read_text())
    assert obj["bounds"]["mass_ok"] and obj["bounds"]["energy_decreased"]
    assert len(obj["perturbed_boundary"]["atoms"]) == 6


def test_perturb_cli_writes_to_stdout(square_file, tmp_path, capsys):
    args = ["perturb", "--input", square_file, "--alpha", "0.6", "--k", "11",
            "--radius", "0.05"]
    assert cli.main(args) == 0
    printed = capsys.readouterr().out
    report = tmp_path / "p.json"
    assert cli.main(args + ["--report", str(report)]) == 0
    assert not capsys.readouterr().out
    assert json.loads(printed) == json.loads(report.read_text())


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_perturb_cli_refuses_a_radius_not_finite(square_file, capsys, radius):
    # a NaN radius once failed as "ball exits its host segment"
    assert cli.main(["perturb", "--input", square_file, "--alpha", "0.6",
                     "--k", "11", "--radius", radius]) == 1
    captured = capsys.readouterr()
    assert "radius must be positive and finite" in captured.err
    assert not captured.out


@pytest.mark.parametrize("command", [
    ["solve"], ["perturb", "--k", "11", "--radius", "0.05"]])
def test_alpha_missing_exit_code(tmp_path, capsys, command):
    path = tmp_path / "no_alpha.json"
    path.write_text(json.dumps({k: v for k, v in SQUARE.items()
                                if k != "alpha"}))
    assert cli.main([command[0], "--input", str(path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert "alpha missing" in captured.err and not captured.out


def test_enumerate_topologies_guard_exit_code(square_file, capsys):
    assert cli.main(["enumerate-topologies", "--input", square_file,
                     "--max-terminals", "3"]) == 1
    captured = capsys.readouterr()
    assert "4 atoms exceeds --max-terminals 3" in captured.err
    assert not captured.out


def test_plot_cli(square_file, tmp_path):
    report = tmp_path / "report.json"
    svg = tmp_path / "plot.svg"
    cli.main(["solve", "--input", square_file, "--report", str(report)])
    assert cli.main(["plot", str(report), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "<line" in text


V = {"dim": 2, "alpha": 0.5,
     "atoms": [{"p": [0.0, 0.0], "m": "-2"}, {"p": [1.0, 0.3], "m": "1"},
               {"p": [1.0, -0.3], "m": "1"}]}


def test_plot_marks_each_branch_point_once(tmp_path):
    # the V's minimizer meets its three segments at one branch point
    path, report, picture = (tmp_path / name for name in
                             ("v.json", "report.json", "plot.svg"))
    path.write_text(json.dumps(V))
    assert cli.main(["solve", "--input", str(path),
                     "--report", str(report)]) == 0
    assert cli.main(["plot", str(report), "--svg", str(picture)]) == 0
    minimizers = json.loads(report.read_text())["minimizers"]
    assert [m["n_branch"] for m in minimizers] == [1]
    assert picture.read_text().count('width="6" height="6"') == 1


def test_empty_picture():
    assert svg.render_svg([], make_boundary([]), 0.5) == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640"/>')


def test_sweep_cli(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    log = tmp_path / "log.csv"
    spec.write_text(json.dumps({"alphas": [0.5], "n_instances": 3,
                                "rho": 0.05, "seed": 2}))
    assert cli.main(["sweep", str(spec), "--out", str(log)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cells"] == 3 and summary["failed"] == 0
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 rows
    # append-only: a second run grows the log without a second header
    assert cli.main(["sweep", str(spec), "--out", str(log)]) == 0
    assert len(log.read_text().strip().splitlines()) == 7


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_refuses_fewer_than_one_worker(tmp_path, capsys, workers):
    spec = SweepSpec(alphas=(0.5,), n_instances=2, rho=0.05, seed=11)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_sweep(spec, workers=workers)
    path = tmp_path / "spec.json"
    log = tmp_path / "log.csv"
    path.write_text(json.dumps({"alphas": [0.5], "n_instances": 2,
                                "rho": 0.05, "seed": 11}))
    assert cli.main(["sweep", str(path), "--out", str(log),
                     "--workers", str(workers)]) == 1
    assert "--workers must be at least 1" in capsys.readouterr().err
    assert not log.exists()


def test_sweep_cell_isolation():
    bad = (0.5, 2, 2, 0.1, 0, (0.0, 0.0, 0.0, 0.0), F(0))  # theta 0 invalid
    row = _cell(bad)
    assert row["error"] and row["label"] == ""
    good = (0.5, 6, 5, 0.05, 1, (0.0, 0.01, -0.01, 0.0), F(1))
    assert _cell(good)["error"] == ""


def test_sweep_empty_grid():
    rows = run_sweep(SweepSpec(alphas=(), n_instances=5))
    assert rows == []


def test_sweep_deterministic_given_seed():
    spec = SweepSpec(alphas=(0.5,), n_instances=3, rho=0.05, seed=11)
    r1 = run_sweep(spec)
    r2 = run_sweep(spec)
    assert r1 == r2


def test_sweep_process_pool_matches_serial():
    spec = SweepSpec(alphas=(0.5,), n_instances=2, rho=0.05, seed=11)
    rows = run_sweep(spec, workers=2)
    assert len(rows) == 2 and not any(r["error"] for r in rows)
    assert rows == run_sweep(spec)


def test_sweep_starts_no_more_processes_than_cells(monkeypatch):
    # a recorder that maps serially stands in for the pool, which would
    # fork every one of its max_workers up front
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    spec = SweepSpec(alphas=(0.5,), n_instances=2, rho=0.05, seed=11)
    rows = run_sweep(spec, workers=64)
    assert started == [2]
    assert rows == run_sweep(spec)


def test_import_leaves_the_process_pool_out():
    # a sweep imports the pool when it forks, not when gsteiner loads
    code = ("import sys, gsteiner, gsteiner.sweep; "
            "assert 'multiprocessing' not in sys.modules")
    # python -c puts its working directory first on sys.path
    subprocess.run([sys.executable, "-c", code], check=True,
                   cwd=Path(gsteiner.__file__).resolve().parents[1])


def test_instance_round_trip(square_file):
    inst = fileio.parse_instance(fileio.load_json(square_file))
    assert inst.boundary.as_dict() == {
        (0.0, 0.0): F(-1), (1.0, 1.0): F(-1), (1.0, 0.0): F(1), (0.0, 1.0): F(1)}
    assert (inst.alpha, inst.config, inst.seed) == (0.95, {}, 0)
    obj = dict(SQUARE, config={"value_tol": 0.5, "max_terminals": 7}, seed=3)
    inst = fileio.parse_instance(obj)
    assert (inst.config, inst.seed) == ({"value_tol": 0.5, "max_terminals": 7}, 3)


def test_chain_round_trip():
    from gsteiner.currents import chain_of
    c = chain_of([((0.0, 0.0), (1.0, 0.5), F(3, 7)),
                  ((1.0, 0.5), (2.0, 0.0), F(-2))])
    obj = fileio.chain_to_obj(c)
    back = fileio.obj_to_chain(obj)
    assert back.segments == c.segments
    assert fileio.chain_to_obj(back) == obj
    obj["segments"][0]["a"] = [False, 0.0]
    with pytest.raises(ValueError, match="segment coordinate .* not False"):
        fileio.obj_to_chain(obj)


def test_invalid_json_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", "--input", str(bad), "--alpha", "0.5"]) == 1


def test_guard_exit_code(tmp_path):
    atoms = [{"p": [float(i), 0.0], "m": "1"} for i in range(1, 7)]
    atoms.append({"p": [0.0, 0.0], "m": "-6"})
    seven = tmp_path / "seven.json"
    seven.write_text(json.dumps({"dim": 2, "alpha": 0.5, "atoms": atoms}))
    assert cli.main(["solve", "--input", str(seven)]) == 1


def test_unbalanced_exit_code(tmp_path):
    inst = tmp_path / "ub.json"
    inst.write_text(json.dumps({
        "dim": 2, "alpha": 0.5,
        "atoms": [{"p": [0.0, 0.0], "m": "-1"}, {"p": [1.0, 0.0], "m": "2"}]}))
    assert cli.main(["solve", "--input", str(inst)]) == 1


def test_enumerate_topologies_refuses_an_unbalanced_boundary(tmp_path,
                                                              capsys):
    inst = tmp_path / "ub.json"
    inst.write_text(json.dumps({
        "dim": 2,
        "atoms": [{"p": [0.0, 0.0], "m": "-1"}, {"p": [1.0, 0.0], "m": "2"},
                  {"p": [0.0, 1.0], "m": "-1"}, {"p": [1.0, 1.0], "m": "1"}]}))
    assert cli.main(["enumerate-topologies", "--input", str(inst)]) == 1
    captured = capsys.readouterr()
    assert "boundary has nonzero total mass" in captured.err
    assert not captured.out


def test_flag_precedence_over_file_config(monkeypatch):
    monkeypatch.setenv("GSTEINER_VALUE_TOL", "0.25")
    cfg = fileio.build_solver_config(0.5, {}, {})
    assert cfg == SolverConfig(alpha=0.5)  # the environment is not read
    cfg = fileio.build_solver_config(0.5, {"value_tol": 0.5}, {})
    assert cfg.value_tol == 0.5  # file beats default
    cfg = fileio.build_solver_config(0.5, {"value_tol": 0.5},
                                     {"value_tol": 0.125})
    assert cfg.value_tol == 0.125  # flag beats file
    cfg = fileio.build_solver_config(
        0.5, {"distinct_tol": "1e-3", "max_terminals": 7},
        {"value_tol": None, "max_terminals": 8})
    assert (cfg.value_tol, cfg.distinct_tol, cfg.max_terminals) == (1e-7, 1e-3, 8)


def test_config_keys_outside_the_three_rejected(tmp_path, capsys):
    path = tmp_path / "inst.json"
    for config in ({"value_tl": 0.5}, {"value_tol": 0.5, "tol_grad": 1e-9}):
        path.write_text(json.dumps(dict(SQUARE, config=config)))
        assert cli.main(["solve", "--input", str(path)]) == 1
        bad = next(k for k in config if k != "value_tol")
        assert f"unknown config key(s) {bad!r}" in capsys.readouterr().err
    path.write_text(json.dumps(dict(SQUARE, config={
        "value_tol": 1e-6, "distinct_tol": 1e-4, "max_terminals": 4})))
    assert cli.main(["solve", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["distinct_tol"] == 1e-4


def test_unknown_instance_key_exit_code(tmp_path, capsys):
    # a misspelled "config" was dropped, and the solve ran on the defaults
    path, report = tmp_path / "inst.json", tmp_path / "report.json"
    path.write_text(json.dumps(dict(SQUARE, confg={"max_terminals": 9})))
    assert cli.main(["solve", "--input", str(path),
                     "--report", str(report)]) == 1
    assert ("unknown key(s) 'confg'; the keys are dim, alpha, atoms, config, "
            "seed" in capsys.readouterr().err)
    assert not report.exists()


@pytest.mark.parametrize("key,value,why", [
    ("max_terminals", 3.9, "must be an integer"),
    ("max_terminals", "4.5", "must be an integer"),
    ("max_terminals", True, "must be a finite number"),
    ("value_tol", True, "must be a finite number"),
    ("distinct_tol", False, "must be a finite number"),
    ("value_tol", "nan", "must be a finite number"),
    ("value_tol", None, "must be a finite number"),
])
def test_config_values_not_converted_silently(key, value, why):
    with pytest.raises(ValueError, match=f"config key {key!r} {why}"):
        fileio.build_solver_config(0.5, {key: value}, {})


def test_integral_config_values_accepted():
    cfg = fileio.build_solver_config(
        0.5, {"max_terminals": 7.0, "value_tol": 1}, {})
    assert (cfg.max_terminals, cfg.value_tol) == (7, 1.0)
    assert type(cfg.max_terminals) is int and type(cfg.value_tol) is float


def test_bad_config_value_exit_code(tmp_path, capsys):
    path = tmp_path / "inst.json"
    for config in ({"max_terminals": 3.9}, {"value_tol": True}):
        path.write_text(json.dumps(dict(SQUARE, config=config)))
        assert cli.main(["solve", "--input", str(path)]) == 1
        assert f"config key {next(iter(config))!r}" in capsys.readouterr().err


def test_mixed_dimension_boundary_exit_code(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"atoms": [{"p": [0.0, 0.0], "m": "-1"},
                                          {"p": [1.0, 0.0, 5.0], "m": "1"}]}))
    assert cli.main(["flat-norm", str(path)]) == 1
    assert cli.main(["solve", "--input", str(path), "--alpha", "0.5"]) == 1
    assert "mixed dimensions" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,why", [
    ("alpha", True, "must be a finite number"),
    ("alpha", "nan", "must be a finite number"),
    ("alpha", None, "must be a finite number"),
    ("seed", 2.7, "must be an integer"),
    ("seed", False, "must be a finite number"),
    ("dim", 2.7, "must be an integer"),
    ("dim", True, "must be a finite number"),
    ("dim", "inf", "must be a finite number"),
])
def test_instance_scalars_not_converted_silently(key, value, why):
    with pytest.raises(ValueError, match=f"key {key!r} {why}"):
        fileio.parse_instance(dict(SQUARE, **{key: value}))


def test_integral_instance_scalars_accepted():
    inst = fileio.parse_instance(dict(SQUARE, alpha="0.5", seed=3.0, dim=2.0))
    assert (inst.alpha, inst.seed, inst.boundary.dim) == (0.5, 3, 2)
    assert type(inst.seed) is int


def test_bad_instance_scalar_exit_code(tmp_path, capsys):
    path = tmp_path / "inst.json"
    for key, value in (("alpha", True), ("seed", 2.7), ("dim", 2.7)):
        path.write_text(json.dumps(dict(SQUARE, **{key: value})))
        assert cli.main(["solve", "--input", str(path)]) == 1
        assert f"key {key!r} must be" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_coordinate_exit_code(tmp_path, capsys, bad):
    path = tmp_path / "inst.json"
    atoms = [dict(a) for a in SQUARE["atoms"]]
    atoms[1]["p"] = [1.0, bad]
    path.write_text(json.dumps(dict(SQUARE, atoms=atoms)))
    assert cli.main(["solve", "--input", str(path)]) == 1
    assert cli.main(["flat-norm", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count(
        f"an atom coordinate must be a finite number, not {bad!r}") == 2


# atom 2 is {"p": [1.0, 0.0], "m": "1"}: read as numbers, the booleans
# would give the square back
@pytest.mark.parametrize("key,value,message", [
    ("m", True, "rational masses must be strings like '3/4', got True"),
    ("p", [True, 0.0], "an atom coordinate must be a finite number, not True"),
])
def test_boolean_atom_value_exit_code(tmp_path, capsys, key, value, message):
    path = tmp_path / "inst.json"
    atoms = [dict(a) for a in SQUARE["atoms"]]
    atoms[2][key] = value
    path.write_text(json.dumps(dict(SQUARE, atoms=atoms)))
    assert cli.main(["solve", "--input", str(path)]) == 1
    assert message in capsys.readouterr().err


# a string is iterable: "10" would otherwise be read as the point (1.0, 0.0)
@pytest.mark.parametrize("value", [5, "10", None])
def test_atom_point_not_a_list_exit_code(tmp_path, capsys, value):
    path = tmp_path / "inst.json"
    atoms = [dict(a) for a in SQUARE["atoms"]]
    atoms[2]["p"] = value
    path.write_text(json.dumps(dict(SQUARE, atoms=atoms)))
    assert cli.main(["solve", "--input", str(path)]) == 1
    assert (f"key 'p' must be a list of numbers, not {value!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key,value", [("a", 5), ("b", "00")])
def test_segment_endpoint_not_a_list_exit_code(square_file, tmp_path, capsys,
                                               key, value):
    report, svg = tmp_path / "report.json", tmp_path / "plot.svg"
    assert cli.main(["solve", "--input", square_file,
                     "--report", str(report)]) == 0
    assert cli.main(["plot", str(report), "--svg", str(svg)]) == 0
    before = svg.read_bytes()
    obj = json.loads(report.read_text())
    obj["minimizers"][0]["chain"]["segments"][0][key] = value
    report.write_text(json.dumps(obj))
    assert cli.main(["plot", str(report), "--svg", str(svg)]) == 1
    assert (f"key {key!r} must be a list of numbers, not {value!r}"
            in capsys.readouterr().err)
    # the report fails before --svg is opened: the old picture survives
    assert svg.read_bytes() == before


FOUR = {"A": [-4.0, 0.0], "B": [-1.0, 0.02], "C": [1.0, -0.02],
        "D": [4.0, 0.0], "theta": "1", "k": 6}


@pytest.mark.parametrize("key,value,why", [
    ("k", 6.9, "must be an integer"),
    ("k", "6.5", "must be an integer"),
    ("k", True, "must be a finite number"),
    ("A", [True, 0.0], "must be a finite number"),
    ("B", [-1.0, "nan"], "must be a finite number"),
    ("D", [4.0, None], "must be a finite number"),
    ("C", 5, "must be a list of numbers"),
    ("C", "12", "must be a list of numbers"),
])
def test_local4_numbers_not_converted_silently(tmp_path, capsys, key, value,
                                               why):
    path = tmp_path / "four.json"
    path.write_text(json.dumps(dict(FOUR, **{key: value})))
    assert cli.main(["local4", "--input", str(path), "--alpha", "0.5"]) == 1
    assert f"key {key!r} {why}" in capsys.readouterr().err


def test_unknown_local4_key_exit_code(tmp_path, capsys):
    path, report = tmp_path / "four.json", tmp_path / "report.json"
    path.write_text(json.dumps(dict(FOUR, kappa=7)))
    assert cli.main(["local4", "--input", str(path), "--alpha", "0.5",
                     "--report", str(report)]) == 1
    assert ("unknown key(s) 'kappa'; the keys are A, B, C, D, theta, k"
            in capsys.readouterr().err)
    assert not report.exists()


def test_local4_integral_numbers_accepted(tmp_path):
    path = tmp_path / "four.json"
    reports = []
    for i, obj in enumerate((FOUR, dict(FOUR, k=6.0, A=[-4, "0"]))):
        path.write_text(json.dumps(obj))
        reports.append(tmp_path / f"report{i}.json")
        assert cli.main(["local4", "--input", str(path), "--alpha", "0.5",
                         "--report", str(reports[-1])]) == 0
    assert reports[0].read_text() == reports[1].read_text()


V_3D = {"dim": 3, "alpha": 0.5,
        "atoms": [{"p": [0.0, 0.0, 0.0], "m": "-2"},
                  {"p": [1.0, 0.3, 0.2], "m": "1"},
                  {"p": [1.0, -0.3, 0.0], "m": "1"}]}
LINE = {"dim": 1, "alpha": 0.5,
        "atoms": [{"p": [0.0], "m": "-1"}, {"p": [1.0], "m": "1"}]}
FOUR_AT_Z0 = {key: value + [0.0] if key in "ABCD" else value
              for key, value in FOUR.items()}


@pytest.mark.parametrize("command,obj", [
    ("solve", V_3D), ("solve", LINE), ("local4", FOUR_AT_Z0)],
    ids=["solve-3-D", "solve-1-D", "local4-3-D"])
def test_svg_of_a_non_planar_boundary_is_refused_first(tmp_path, capsys,
                                                      command, obj):
    # refused before any work: the old picture survives, and no report is
    # written, to the file or to stdout
    path, report, picture = (tmp_path / "in.json", tmp_path / "report.json",
                             tmp_path / "old.svg")
    path.write_text(json.dumps(obj))
    picture.write_text("<svg/>")
    argv = [command, "--input", str(path), "--svg", str(picture)]
    argv += ["--alpha", "0.5"] if command == "local4" else []
    assert cli.main(argv + ["--report", str(report)]) == 1
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert "SVG rendering supports dimension 2 only" in err and not out
    assert picture.read_text() == "<svg/>"
    assert not report.exists()


SWEEP = {"alphas": [0.5], "n_instances": 1, "rho": 0.05, "seed": 2}


@pytest.mark.parametrize("key,value,why", [
    ("n_instances", 1.7, "must be an integer"),
    ("n_instances", True, "must be a finite number"),
    ("k", 6.5, "must be an integer"),
    ("seed", 2.7, "must be an integer"),
    ("seed", False, "must be a finite number"),
    ("alphas", [0.5, True], "must be a finite number"),
    ("alphas", ["inf"], "must be a finite number"),
    ("rho", True, "must be a finite number"),
    ("rho", "nan", "must be a finite number"),
    ("rho_safety", "x", "must be a finite number"),
])
def test_sweep_spec_numbers_not_converted_silently(key, value, why):
    with pytest.raises(ValueError, match=f"key {key!r} {why}"):
        SweepSpec.from_obj(dict(SWEEP, **{key: value}))


def test_sweep_spec_integral_numbers_accepted():
    spec = SweepSpec.from_obj(dict(SWEEP, n_instances=3.0, k="7", seed=2.0,
                                   alphas=["0.5", 1]))
    assert (spec.n_instances, spec.k, spec.seed) == (3, 7, 2)
    assert all(type(v) is int for v in (spec.n_instances, spec.k, spec.seed))
    assert spec.alphas == (0.5, 1.0) and spec.rho == 0.05
    assert SweepSpec.from_obj(dict(SWEEP, k=None, rho=None)).k is None


def test_bad_sweep_spec_exit_code(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    log = tmp_path / "log.csv"
    for key, value in (("n_instances", 1.7), ("alphas", [True])):
        spec.write_text(json.dumps(dict(SWEEP, **{key: value})))
        assert cli.main(["sweep", str(spec), "--out", str(log)]) == 1
        assert f"key {key!r} must be" in capsys.readouterr().err
    assert not log.exists()


def test_unknown_sweep_spec_key_exit_code(tmp_path, capsys):
    # a misspelled "n_instances" left the default 20 cells per alpha
    spec, log = tmp_path / "spec.json", tmp_path / "log.csv"
    spec.write_text(json.dumps({"alphas": [0.5], "n_instance": 3}))
    assert cli.main(["sweep", str(spec), "--out", str(log)]) == 1
    assert ("unknown key(s) 'n_instance'; the keys are alphas, n_instances, "
            "k, rho, rho_safety, theta, seed" in capsys.readouterr().err)
    assert not log.exists()


# each ran before: a header-only log, the negative rho in every row of a
# band mirrored about 0, or every cell failed; each exited 0
@pytest.mark.parametrize("key,value,low", [
    ("n_instances", -1, 0),
    ("rho", -0.05, 0),
    ("rho_safety", -0.5, 0),
    ("k", 1, 2),
    ("k", -3, 2),
    ("theta", "-1", None),   # None: theta must be positive
    ("theta", "0", None),
])
def test_sweep_spec_out_of_range_exit_code(tmp_path, capsys, key, value, low):
    spec = tmp_path / "spec.json"
    log = tmp_path / "log.csv"
    spec.write_text(json.dumps(dict(SWEEP, **{key: value})))
    assert cli.main(["sweep", str(spec), "--out", str(log)]) == 1
    bound = "positive" if low is None else f"at least {low}"
    assert (f"key {key!r} must be {bound}, not {value!r}"
            in capsys.readouterr().err)
    assert not log.exists()


def test_sweep_spec_range_edges_accepted():
    spec = SweepSpec.from_obj(dict(SWEEP, n_instances=0, k=2, rho=0,
                                   rho_safety=0))
    assert (spec.n_instances, spec.k, spec.rho, spec.rho_safety) == (0, 2, 0, 0)
    assert run_sweep(spec) == []


# masses and theta are exact rationals, but the solver computes in floats
@pytest.mark.parametrize("masses,message", [
    (("1/0", "-1"), "rational masses must have a nonzero denominator, got '1/0'"),
    (("1e400", "-1e400"), "rational masses must be finite as floats, got '1e400'"),
    (("-1e400", "1e400"), "rational masses must be finite as floats, got '-1e400'"),
])
def test_rational_mass_out_of_float_range_exit_code(tmp_path, capsys, masses,
                                                    message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(SQUARE, atoms=[
        {"p": [0.0, 0.0], "m": masses[0]}, {"p": [1.0, 0.0], "m": masses[1]}])))
    assert cli.main(["solve", "--input", str(path)]) == 1
    assert cli.main(["flat-norm", str(path)]) == 1
    assert capsys.readouterr().err.count(message) == 2


@pytest.mark.parametrize("value,why", [
    ("1/0", "must have a nonzero denominator"),
    ("1e400", "must be finite as floats"),
    (True, "must be strings like '3/4'"),
    (0.5, "must be strings like '3/4'"),
])
def test_theta_refused_with_its_key(tmp_path, capsys, value, why):
    four, spec = tmp_path / "four.json", tmp_path / "spec.json"
    four.write_text(json.dumps(dict(FOUR, theta=value)))
    spec.write_text(json.dumps(dict(SWEEP, theta=value)))
    log = tmp_path / "log.csv"
    assert cli.main(["local4", "--input", str(four), "--alpha", "0.5"]) == 1
    assert cli.main(["sweep", str(spec), "--out", str(log)]) == 1
    assert capsys.readouterr().err.count(f"key 'theta' {why}") == 2
    assert not log.exists()


# JSON of the wrong shape where an object or a list is read: (command,
# file contents, key the message names)
REPORT = {"alpha": 0.95, "boundary": SQUARE, "minimizers": 5}


@pytest.mark.parametrize("command,body,key", [
    ("solve", dict(SQUARE, config=5), "key 'config' must be an object"),
    ("solve", dict(SQUARE, config=[["value_tol", 1]]),
     "key 'config' must be an object"),
    ("solve", dict(SQUARE, atoms=5), "key 'atoms' must be a list"),
    ("solve", dict(SQUARE, atoms=[5, 6]),
     "an entry of key 'atoms' must be an object"),
    ("solve", [SQUARE], "must be an object, not a list"),
    ("local4", [FOUR], "must be an object, not a list"),
    ("flat-norm", [SQUARE], "must be an object, not a list"),
    ("sweep", dict(SWEEP, alphas=0.5), "key 'alphas' must be a list"),
    ("plot", REPORT, "key 'minimizers' must be a list"),
], ids=["config-number", "config-pairs", "atoms-number", "atoms-numbers",
        "solve-list", "local4-list", "flat-norm-list", "sweep-alphas",
        "plot-minimizers"])
def test_json_of_the_wrong_shape_exit_code(tmp_path, capsys, command, body,
                                           key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(body))
    out = str(tmp_path / "out")
    argv = {"solve": ["solve", "--input", str(path)],
            "local4": ["local4", "--input", str(path), "--alpha", "0.5"],
            "flat-norm": ["flat-norm", str(path)],
            "sweep": ["sweep", str(path), "--out", out],
            "plot": ["plot", str(path), "--svg", out]}[command]
    assert cli.main(argv) == 1
    assert key in capsys.readouterr().err
    assert not Path(out).exists()


@pytest.mark.parametrize("exc", [
    cli.InternalConsistencyError("two minimizers share their support"),
    AssertionError("degree-1 branch vertex with nonzero flow")])
def test_internal_invariant_failure_exit_code(monkeypatch, capsys, exc):
    def failing(args):
        raise exc
    monkeypatch.setitem(cli._DISPATCH, "estimate-k0", failing)
    assert cli.main(["estimate-k0", "--alpha", "0.5"]) == 2
    assert capsys.readouterr().err == f"internal invariant failure: {exc}\n"


def read_rows(path):
    """The CSV log's rows without their timestamps."""
    with open(path, newline="") as fh:
        return [{k: v for k, v in row.items() if k != "timestamp"}
                for row in csv.DictReader(fh)]


def test_sweep_seed_flag_overrides_the_spec(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(SWEEP, n_instances=2)))
    flagged, want, plain = (tmp_path / f"{name}.csv"
                            for name in ("flagged", "want", "plain"))
    assert cli.main(["sweep", str(spec), "--out", str(flagged),
                     "--seed", "7"]) == 0
    append_log(run_sweep(SweepSpec.from_obj(dict(SWEEP, n_instances=2,
                                                 seed=7))), str(want))
    assert cli.main(["sweep", str(spec), "--out", str(plain)]) == 0
    assert read_rows(flagged) == read_rows(want)
    assert read_rows(flagged) != read_rows(plain)


def test_plot_index_draws_one_minimizer(square_file, tmp_path):
    # README's square has two minimizers of two segments each
    report = tmp_path / "report.json"
    assert cli.main(["solve", "--input", square_file,
                     "--report", str(report)]) == 0
    counts = []
    for index in ([], ["--index", "1"]):
        svg = tmp_path / "plot.svg"
        assert cli.main(["plot", str(report), "--svg", str(svg), *index]) == 0
        counts.append(svg.read_text().count("<line"))
    assert counts == [4, 2]
    assert cli.main(["plot", str(report), "--svg", str(tmp_path / "no.svg"),
                     "--index", "2"]) == 1
    assert not (tmp_path / "no.svg").exists()


@pytest.mark.parametrize("build,message", [
    (lambda: fileio.parse_rational("3/x"), "must be strings like '3/4'"),
    (lambda: fileio.obj_to_boundary(dict(SQUARE, dim=3)),
     "atom coordinates disagree with the declared dim"),
    (lambda: fileio.parse_instance(dict(SQUARE, alpha=1.5)),
     r"alpha must lie in \(0, 1\]"),
    (lambda: fileio.parse_instance(dict(SQUARE, alpha=0)),
     r"alpha must lie in \(0, 1\]"),
], ids=["rational", "dim", "alpha-1.5", "alpha-0"])
def test_fileio_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build,message", [
    (lambda: svg.render_svg(
        [PolyhedralChain((Segment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), F(1)),))],
        make_boundary([((0.0, 0.0, 0.0), F(-1)), ((1.0, 0.0, 0.0), F(1))]),
        0.5), "dimension 2 only"),
], ids=["3-D"])
def test_svg_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("command,obj,key", [
    ("solve", {"dim": 2}, "atoms"),
    ("local4", {k: v for k, v in FOUR.items() if k != "A"}, "A"),
    ("sweep", {k: v for k, v in SWEEP.items() if k != "alphas"}, "alphas"),
    ("plot", {"alpha": 0.95, "minimizers": []}, "boundary"),
], ids=["solve", "local4", "sweep", "plot"])
def test_missing_required_key_is_named(tmp_path, capsys, command, obj, key):
    # each once printed only the bare KeyError, e.g. "error: 'atoms'"
    path, out = tmp_path / "in.json", tmp_path / "out"
    path.write_text(json.dumps(obj))
    argv = {"solve": ["--input", str(path), "--alpha", "0.5",
                      "--report", str(out)],
            "local4": ["--input", str(path), "--alpha", "0.5",
                       "--report", str(out)],
            "sweep": [str(path), "--out", str(out)],
            "plot": [str(path), "--svg", str(out)]}[command]
    assert cli.main([command, *argv]) == 1
    captured = capsys.readouterr()
    assert f"key {key!r} is missing" in captured.err and not captured.out
    assert not out.exists()
