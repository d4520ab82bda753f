import json

import numpy as np
import pytest

from stratiwave import cli
from stratiwave import heightsolver as hs
from stratiwave import laminar as lm
from stratiwave import profiles as pr


BASE_CONFIG = {
    "physics": {
        "g": 1.0, "c": 1.0, "p0": -1.0, "sigma": 1.0,
        "rho": {"type": "poly", "coeffs": [1.0]},
        "beta": {"type": "poly", "coeffs": [0.0]},
    },
    "numerics": {"N_p": 64, "N_q": 32},
}


@pytest.fixture()
def config_path(tmp_path):
    def write(extra=None, **physics_overrides):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["physics"].update(physics_overrides)
        if extra:
            doc.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def test_load_config_roundtrip(config_path):
    cfg = cli.load_config(config_path())
    assert cfg.physics.g == 1.0
    assert cfg.numerics["N_p"] == 64
    assert cfg.grid.N_p == 64


# a typo'd key, and keys that no subcommand reads
@pytest.mark.parametrize("key", ["newton_tolerance", "newton_tol",
                                 "rayleigh_N", "fixed_point_tol",
                                 "fixed_point_max_iter"])
def test_unknown_keys_rejected(tmp_path, config_path, key):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["numerics"][key] = 1e-8
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    from stratiwave.errors import ConfigError
    with pytest.raises(ConfigError):
        cli.load_config(str(path))


@pytest.mark.parametrize("block", [
    {"max_steps": "5"}, {"max_steps": 0}, {"max_steps": 2.0},
    {"max_steps": True}, {"newton_max_iter": 0}, {"newton_tol": -1},
    {"newton_tol": "1e-10"}, {"kappa_stop": float("inf")},
    {"delta_stop": 0.0}, {"ds_min": 0.5, "ds_max": 0.1}, {"ds_min": 0.5},
], ids=lambda block: ",".join(f"{k}={v!r}" for k, v in block.items()))
def test_bad_continuation_rejected(config_path, capsys, block):
    # exit 2 before any work: no TypeError, no Newton failure, no branch
    path = config_path(extra={"continuation": block})
    from stratiwave.errors import ConfigError
    with pytest.raises(ConfigError):
        cli.load_config(path)
    assert cli.main(["branch", "--config", path, "--steps", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("case", [
    ("physics", "sigma", "abc"), ("physics", "sigma", float("nan")),
    ("physics", "g", True), ("physics", "c", "1"),
    ("physics", "rho", {"type": "poly", "coeffs": ["x"]}),
    ("physics", "rho", {"type": "table", "p": [0.0, -1.0], "v": [1.0, 1.0]}),
    ("physics", "beta", {"type": "poly"}),
    ("numerics", "resonance_rtol", "x"), ("numerics", "N_p", 16.5),
    ("numerics", "N_q", 32.0), ("numerics", "n_max", 0),
    ("numerics", "verify_yih_tol", float("nan")),
    (None, "sigma", "abc"), (None, "lambdas", ["a"]),
], ids=lambda case: f"{case[0] or 'config'}.{case[1]}="
   f"{json.dumps(case[2], separators=(',', ':'))}")
def test_bad_numerics_physics_rejected(tmp_path, capsys, case):
    # exit 2 from load_config: no ValueError, no truncation, no NaN physics
    block, key, value = case
    doc = json.loads(json.dumps(BASE_CONFIG))
    (doc if block is None else doc[block])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    from stratiwave.errors import ConfigError
    with pytest.raises(ConfigError):
        cli.load_config(str(path))
    assert cli.main(["classify", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_bad_grid_rejected(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["numerics"]["N_p"] = 48                     # not a power of two
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    from stratiwave.errors import ConfigError
    with pytest.raises(ConfigError):
        cli.load_config(str(path))


def test_unknown_subcommand_exits_2(config_path, capsys):
    code = cli.main(["frobnicate", "--config", config_path()])
    capsys.readouterr()
    assert code == 2


def test_laminar_subcommand(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["laminar", "--config", config_path(), "--out", str(out),
                     "--lambda", "4.0"])
    captured = capsys.readouterr()
    assert code == 0
    csv = (out / "laminar_4.csv").read_text()
    assert csv.splitlines()[0] == "p,H,Hp,G,Ydot,Gdot"


def test_classify_subcommand_and_determinism(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["classify", "--config", config_path(),
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    first = (out / "classification.json").read_bytes()
    report = json.loads(first)
    assert report["class"] == "Simple"
    assert report["lambda_star"] == pytest.approx(1.3826113, abs=1e-5)
    code = cli.main(["classify", "--config", config_path(),
                     "--out", str(out)])
    capsys.readouterr()
    assert (out / "classification.json").read_bytes() == first


def test_verify_roundtrip_and_negative_control(t0, config_path, tmp_path,
                                               capsys):
    grid = pr.PGrid(-1.0, 64)
    flow = lm.solve_laminar(t0, 4.0, grid)
    fld = hs.laminar_field(flow, 32)
    dump = tmp_path / "field.txt"
    dump.write_text(hs.dump_field(fld))
    code = cli.main(["verify", "--config", config_path(),
                     "--field", str(dump)])
    captured = capsys.readouterr()
    assert code == 0
    assert "FAIL" not in captured.out

    rng = np.random.default_rng(11)
    bad = fld.h + 1e-3 * rng.standard_normal(fld.h.shape)
    bad_dump = tmp_path / "bad.txt"
    from dataclasses import replace
    bad_fld = replace(fld, h=np.abs(bad))
    bad_dump.write_text(hs.dump_field(bad_fld))
    code = cli.main(["verify", "--config", config_path(),
                     "--field", str(bad_dump)])
    captured = capsys.readouterr()
    assert code == 3
    assert "verification-failure" in captured.err
    assert "FAIL" in captured.out


def test_coeffs_subcommand_double_point(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["coeffs", "--config", config_path(), "--out", str(out),
                     "--n2", "3"])
    capsys.readouterr()
    assert code == 0
    doc = json.loads((out / "coefficients.json").read_text())
    assert doc["classification"]["class"] == "Double(3)"
    assert doc["flags"]["nd1"] and doc["flags"]["nd2"]
    assert len(doc["germs"]) == 8
    assert doc["psi11"] < 0 and doc["psi22"] < 0


def test_dispersion_subcommand(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["dispersion", "--config", config_path(),
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = (out / "dispersion.csv").read_text().splitlines()
    assert rows[0] == "n,lambda,D,scale"
    roots = (out / "dispersion_roots.csv").read_text().splitlines()
    assert roots[0] == "n,lambda_star"
    assert len(roots) == 7


def test_dispersion_window_starts_above_floor(config_path, tmp_path, capsys):
    # rho = 1 - p/10, sigma = 10: half of lambda*_1 lies below the laminar
    # floor 4, so the n = 1 window starts just above the floor instead
    path = config_path(sigma=10.0, rho={"type": "poly", "coeffs": [1.0, -0.1]})
    out = tmp_path / "out"
    code = cli.main(["dispersion", "--config", path, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    cfg = cli.load_config(path)
    floor = lm.lambda_floor(cfg.physics, cfg.grid)
    roots = [float(line.split(",")[1]) for line in
             (out / "dispersion_roots.csv").read_text().splitlines()[1:]]
    rows = [[float(v) for v in line.split(",")] for line in
            (out / "dispersion.csv").read_text().splitlines()[1:]]
    assert len(roots) == 6 and len(rows) == 66
    assert all(np.isfinite(row).all() for row in rows)
    starts = [rows[11 * k][1] for k in range(6)]
    assert 0.5 * roots[0] < floor < starts[0] < floor + 1e-6
    assert starts[1:] == [0.5 * lam for lam in roots[1:]]


def test_eulerian_subcommand(t0, config_path, tmp_path, capsys):
    grid = pr.PGrid(-1.0, 64)
    flow = lm.solve_laminar(t0, 4.0, grid)
    dump = tmp_path / "field.txt"
    dump.write_text(hs.dump_field(hs.laminar_field(flow, 32)))
    out = tmp_path / "out"
    code = cli.main(["eulerian", "--config", config_path(),
                     "--out", str(out), "--field", str(dump)])
    capsys.readouterr()
    assert code == 0
    checks = json.loads((out / "eulerian_checks.json").read_text())
    assert abs(checks["flux_max_error"]) < 1e-9
    assert abs(checks["eta_mean"]) < 1e-12


@pytest.mark.parametrize("sub", ["verify", "eulerian"])
def test_foreign_or_unreadable_field_rejected(t0, config_path, tmp_path,
                                              capsys, sub):
    # a laminar dump on [-1, 0] against a config with p0 = -2: exit 2
    flow = lm.solve_laminar(t0, 4.0, pr.PGrid(-1.0, 64))
    dump = tmp_path / "field.txt"
    dump.write_text(hs.dump_field(hs.laminar_field(flow, 32)))
    code = cli.main([sub, "--config", config_path(p0=-2.0), "--out",
                     str(tmp_path / "out"), "--field", str(dump)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config-error" in captured.err and "p0" in captured.err
    assert not (tmp_path / "out").exists()
    # a --field path that cannot be read: exit 2, no traceback
    code = cli.main([sub, "--config", config_path(), "--out",
                     str(tmp_path / "out"), "--field", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config-error" in captured.err and "cannot read" in captured.err


def test_missing_config_is_validation_error(capsys):
    code = cli.main(["classify", "--config", "/nonexistent.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "config-error" in captured.err


def test_numerical_failure_exit_code(config_path, tmp_path, capsys):
    # g = 0 makes the double-point search impossible: exit 3, named error
    path = config_path(g=0.0)
    code = cli.main(["coeffs", "--config", path, "--out",
                     str(tmp_path / "o"), "--n2", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert "root-not-found" in captured.err


def test_branch_subcommand_simple_point(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["numerics"] = {"N_p": 32, "N_q": 32}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = cli.main(["branch", "--config", str(path), "--out", str(out),
                     "--steps", "4"])
    capsys.readouterr()
    assert code == 0
    csv = (out / "branch_0.csv").read_text()
    header = csv.splitlines()[0]
    assert header == "s,Q,amplitude,M1,M2,M3,M4,M5,M6,residual,step"
    assert len(csv.strip().splitlines()) == 5
    assert (out / "branches.svg").read_text().startswith("<svg")
    # round trip: the dumped field re-verifies and reproduces its residual
    dump = out / "branch_0_last.field"
    assert dump.exists()
    cfg = cli.load_config(str(path))
    fld = hs.load_field(dump.read_text())
    import numpy as _np
    rows = csv.strip().splitlines()
    recorded = float(rows[-1].split(",")[9])
    recomputed = float(_np.max(_np.abs(hs.residual(cfg.physics, fld))))
    assert abs(recomputed - recorded) < 1e-14


def test_branch_subcommand_double_point(tmp_path, capsys):
    # the n2 = 3 double point at 32^2: two pure and two mixed germs, each
    # continued to a converged branch
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["numerics"] = {"N_p": 32, "N_q": 32}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = cli.main(["branch", "--config", str(path), "--out", str(out),
                     "--n2", "3", "--steps", "3"])
    capsys.readouterr()
    assert code == 0
    assert sorted(p.name for p in out.glob("branch_*.csv")) == [
        f"branch_{k}.csv" for k in range(4)]
    for k in range(4):
        rows = (out / f"branch_{k}.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 3
        assert max(float(row.split(",")[9]) for row in rows) < 1e-10


@pytest.mark.parametrize("argv", [
    ["laminar", "--lambda", "nan"], ["laminar", "--lambda", "inf"],
    ["classify", "--sigma", "nan"], ["classify", "--sigma", "inf"],
    ["classify", "--sigma", "-1"],
    ["branch", "--steps", "0"], ["branch", "--steps", "-2"],
], ids=" ".join)
def test_bad_flag_rejected(config_path, tmp_path, capsys, argv):
    # a flag fails the check its config value would: exit 2 before any work
    out = tmp_path / "out"
    code = cli.main(argv + ["--config", config_path(), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config-error: " + argv[1])
    assert not out.exists()


def test_laminar_iteration_budget(stratified, grid64, config_path, tmp_path,
                                  capsys, monkeypatch):
    # rho = 1 - p/10 needs more than one Picard pass; the budget is read
    # at every call, so lowering it makes the solve fail by name
    from stratiwave.errors import IterationFailureError
    monkeypatch.setattr(lm, "DEFAULT_MAX_ITER", 1)
    with pytest.raises(IterationFailureError):
        lm.solve_laminar(stratified, lm.lambda_floor(stratified, grid64) + 1.0,
                         grid64)
    path = config_path(sigma=10.0, rho={"type": "poly", "coeffs": [1.0, -0.1]})
    code = cli.main(["classify", "--config", path,
                     "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("iteration-failure: ")


def test_parser_keeps_no_flags_between_calls(config_path, monkeypatch):
    # one parser serves every main call: the flags of one call must not
    # reach the next
    seen = []
    monkeypatch.setitem(cli._SUBCOMMANDS, "branch",
                        lambda cfg, args: seen.append(vars(args).copy()) or 0)
    path = config_path()
    assert cli.main(["branch", "--config", path, "--n2", "3",
                     "--steps", "2", "--out", "first"]) == 0
    assert cli.main(["branch", "--config", path]) == 0
    assert (seen[0]["n2"], seen[0]["steps"], seen[0]["out"]) == (3, 2, "first")
    assert (seen[1]["n2"], seen[1]["steps"]) == (None, None)
    assert seen[1]["out"] == cli.load_config(path).output_dir
