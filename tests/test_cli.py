"""CLI surface: exit codes, report determinism, file round-trips, sweep log."""
import json
from fractions import Fraction as F

import pytest

from gsteiner import SolverConfig, cli, fileio
from gsteiner.sweep import SweepSpec, _cell, run_sweep

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
    assert svg.read_text().startswith("<svg")


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
    # runs of the optimized ones end with "done" (none for m = 0)
    assert stages.count("bound") == stats["optimized"] + stats["pruned"]
    assert "done" in stages and set(stages) <= {"bound", "eps", "done"}


def test_flat_norm_cli(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"dim": 2, "atoms": [{"p": [0.0, 0.0], "m": "1"}]}))
    b.write_text(json.dumps({"dim": 2, "atoms": [{"p": [1.0, 0.0], "m": "1"}]}))
    assert cli.main(["flat-norm", str(a), str(b)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(1.0)
    assert out["witness"]["transport_arcs"][0]["flow"] == "1"


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


def test_plot_cli(square_file, tmp_path):
    report = tmp_path / "report.json"
    svg = tmp_path / "plot.svg"
    cli.main(["solve", "--input", square_file, "--report", str(report)])
    assert cli.main(["plot", str(report), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "<line" in text


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
