import base64
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from stratiwave import cli
from stratiwave import eulerian as eu
from stratiwave import heightsolver as hs
from stratiwave import laminar as lm
from stratiwave import profiles as pr
from stratiwave import spectral as sp
from stratiwave.errors import ShapeError
from test_heightsolver import _v1_dump


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
    assert cfg.numerics.N_p == 64
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


# every field of the two config blocks, read from the schema itself, so a
# field added later is covered too; the annotation, not the checker's own
# rule, says which fields are counts
_SCHEMA = [(block, f) for block, cls in (
    ("numerics", cli.Numerics), ("continuation", hs.ContinuationControls))
    for f in fields(cls)]
_BAD_VALUES = {"int": [2.0, True, 0, "1"],
               "float": ["1e-3", True, float("nan"), float("inf"),
                         float("-inf"), 0, -1]}
_BAD_CASES = [(block, f.name, value) for block, f in _SCHEMA
              for value in _BAD_VALUES[f.type]]


@pytest.mark.parametrize("block, key, value", _BAD_CASES,
                         ids=[f"{block}.{key}={value!r}"
                              for block, key, value in _BAD_CASES])
def test_schema_field_rejects_bad_value(tmp_path, block, key, value):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.setdefault(block, {})[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    from stratiwave.errors import ConfigError
    with pytest.raises(ConfigError, match=f"{block}.{key} "):
        cli.load_config(str(path))


@pytest.mark.parametrize("block, f", _SCHEMA,
                         ids=[f"{block}.{f.name}" for block, f in _SCHEMA])
def test_schema_field_accepts_its_default(tmp_path, block, f):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.setdefault(block, {})[f.name] = f.default
    path = tmp_path / "default.json"
    path.write_text(json.dumps(doc))
    value = getattr(getattr(cli.load_config(str(path)), block), f.name)
    assert value == f.default and type(value) is type(f.default)


def _readme_table(header):
    """{key: default} of the README table whose header row starts with
    ``header``; both cells are read without their backticks."""
    lines = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        key, default = (cell.strip().strip("`")
                        for cell in line.split("|")[1:3])
        rows[key] = json.loads(default)
    return rows


@pytest.mark.parametrize("block, cls", [
    ("numerics", cli.Numerics), ("continuation", hs.ContinuationControls)])
def test_readme_tables_match_schema(block, cls):
    rows = _readme_table(f"| `{block}` key |")
    assert list(rows) == [f.name for f in fields(cls)]
    for f in fields(cls):
        assert rows[f.name] == f.default
        assert type(rows[f.name]) is type(f.default)


def test_top_level_sigma_rejected(config_path, tmp_path, capsys):
    # physics.sigma is the one config setting of sigma
    out = tmp_path / "o"
    path = config_path(extra={"sigma": 2.0})
    assert cli.main(["classify", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config-error") and "'sigma'" in err
    assert not out.exists()


def test_failed_write_exits_2(config_path, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")                      # --out names an existing file
    code = cli.main(["laminar", "--config", config_path(), "--out", str(out),
                     "--lambda", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config-error: cannot write")
    assert "Traceback" not in captured.err and captured.out == ""


def test_failed_later_write_removes_earlier_files(config_path, tmp_path,
                                                  capsys):
    # laminar_4.csv is written, laminar_5.csv names a directory: the
    # command exits 2 and takes laminar_4.csv away again
    out = tmp_path / "out"
    (out / "laminar_5.csv").mkdir(parents=True)
    path = config_path(extra={"lambdas": [4.0, 5.0]})
    code = cli.main(["laminar", "--config", path, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config-error: cannot write")
    assert captured.out == ""
    assert sorted(p.name for p in out.iterdir()) == ["laminar_5.csv"]


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


def test_failed_command_writes_no_file(config_path, tmp_path, capsys):
    # lambda = 4 solves and lambda = -10 lies below the floor: the command
    # fails as a whole, and laminar_4.csv is not left behind
    out = tmp_path / "out"
    path = config_path(extra={"lambdas": [4.0, -10.0]})
    assert cli.main(["laminar", "--config", path, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("domain-error") and captured.out == ""
    assert not out.exists()


# the flags each subcommand reads; every other pairing is a usage error
_OWN_FLAGS = {
    "laminar": {"--lambda"},
    "dispersion": {"--sigma", "--n2"},
    "classify": {"--sigma", "--n2"},
    "coeffs": {"--sigma", "--n2"},
    "predict": {"--sigma", "--n2"},
    "branch": {"--sigma", "--n2", "--steps"},
    "eulerian": {"--sigma", "--n2", "--field"},
    "verify": {"--sigma", "--n2", "--field"},
}
_FLAG_VALUES = {"--lambda": "4", "--sigma": "1", "--n2": "3", "--steps": "5",
                "--field": "nothing.field"}
_FOREIGN_FLAGS = [(sub, flag) for sub, own in sorted(_OWN_FLAGS.items())
                  for flag in sorted(_FLAG_VALUES) if flag not in own]


@pytest.mark.parametrize("sub, flag", _FOREIGN_FLAGS,
                         ids=[" ".join(pair) for pair in _FOREIGN_FLAGS])
def test_foreign_flag_is_a_usage_error(config_path, tmp_path, capsys, sub,
                                       flag):
    # exit 2 from the parser, before the config is read or anything written
    out = tmp_path / "out"
    code = cli.main([sub, "--config", config_path(), "--out", str(out),
                     flag, _FLAG_VALUES[flag]])
    captured = capsys.readouterr()
    assert code == 2
    assert flag in captured.err and "config-error" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("sub", ["verify", "eulerian"])
def test_missing_field_rejected(config_path, tmp_path, capsys, sub):
    out = tmp_path / "out"
    assert cli.main([sub, "--config", config_path(), "--out", str(out)]) == 2
    assert "--field" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub", sorted(_OWN_FLAGS))
def test_help_lists_only_the_subcommands_flags(capsys, sub):
    assert cli.main([sub, "--help"]) == 0
    listed = {word.strip("[],") for word in capsys.readouterr().out.split()
              if word.strip("[],").startswith("-")}
    assert listed == {"-h", "--help", "--config", "--out"} | _OWN_FLAGS[sub]


@pytest.mark.parametrize("sub", ["verify", "eulerian"])
def test_dump_commands_accept_sigma_and_n2(t0, config_path, tmp_path, capsys,
                                           sub):
    # a laminar field has a flat surface, so its checks do not depend on
    # sigma: the flags change no output
    flow = lm.solve_laminar(t0, 4.0, pr.PGrid(-1.0, 64))
    dump = tmp_path / "field.txt"
    dump.write_text(hs.dump_field(hs.laminar_field(flow, 32)))
    results = []
    for k, flags in enumerate(([], ["--sigma", "2.5", "--n2", "3"])):
        out = tmp_path / f"out{k}"
        code = cli.main([sub, "--config", config_path(), "--out", str(out),
                         "--field", str(dump), *flags])
        captured = capsys.readouterr()
        files = ({p.name: p.read_bytes() for p in out.iterdir()}
                 if out.exists() else {})
        results.append((code, captured.out.replace(str(out), "OUT"),
                        captured.err, files))
    assert results[0][0] == 0
    assert results[1] == results[0]


def test_laminar_lambdas_sharing_a_file_name_rejected(config_path, tmp_path,
                                                      capsys):
    # both lambdas print as laminar_2.csv: exit 2 before anything is written
    out = tmp_path / "out"
    path = config_path(extra={"lambdas": [2.0000001, 2.0000002]})
    assert cli.main(["laminar", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config-error")
    assert not out.exists()


@pytest.mark.parametrize("value", [["a", 1], 5, None, ""])
def test_output_dir_must_be_a_string(config_path, tmp_path, monkeypatch,
                                     capsys, value):
    # no directory named after a non-string value, no exit 0
    path = config_path(extra={"output_dir": value})
    monkeypatch.chdir(tmp_path)
    assert cli.main(["laminar", "--config", path, "--lambda", "4.0"]) == 2
    capsys.readouterr()
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_empty_out_flag_rejected(config_path, tmp_path, monkeypatch, capsys):
    # --out holds to output_dir's rule: exit 2 before anything is written
    path = config_path()
    monkeypatch.chdir(tmp_path)
    assert cli.main(["laminar", "--config", path, "--out", "",
                     "--lambda", "4.0"]) == 2
    assert capsys.readouterr().err.startswith("config-error: --out")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


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


def _row(values):
    """A v2 body line: the padded base64 of little-endian float64s."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def _with_value(lines, value):
    row = hs.load_field("\n".join(lines)).h[2].copy()
    row[5] = value
    return lines[:3] + [_row(row)] + lines[4:]


def _resized_rows(lines, changes):
    """Rows 1, 2, ... lose (-1) or gain (+1) one value."""
    h = hs.load_field("\n".join(lines)).h
    rows = [_row(h[k][:-1] if change < 0 else np.append(h[k], 1.0))
            for k, change in enumerate(changes, start=1)]
    return lines[:1] + rows + lines[1 + len(rows):]


def _with_header_token(lines, index, token):
    head = lines[0].split(" ")
    head[index] = token
    return [" ".join(head)] + lines[1:]


def _as_v3(lines, *tokens):
    """The v2 lines under a v3 header that ends in ``tokens`` after Q."""
    head = lines[0].replace("heightfield v2 ", "heightfield v3 ")
    return [" ".join([head, *tokens])] + lines[1:]


# each turns the v2 lines of a laminar dump (N_q = 16, N_p = 64) into a
# malformed one, v2 or v3
_MALFORMED_V2 = {
    "non-alphabet": lambda ls: ls[:2] + [ls[2][:9] + "*" + ls[2][9:]]
    + ls[3:],
    "url-safe-alphabet": lambda ls: ls[:2] + [ls[2][:9] + "-" + ls[2][9:]]
    + ls[3:],
    "row-8-bytes-short": lambda ls: _resized_rows(ls, (-1,)),
    "row-8-bytes-long": lambda ls: _resized_rows(ls, (1,)),
    # the body's length still matches the header
    "rows-short-then-long": lambda ls: _resized_rows(ls, (-1, 1)),
    "missing-row": lambda ls: ls[:-1],
    "extra-row": lambda ls: ls + [ls[-1]],
    "nan-value": lambda ls: _with_value(ls, np.nan),
    "inf-value": lambda ls: _with_value(ls, np.inf),
    "minus-inf-value": lambda ls: _with_value(ls, -np.inf),
    "nan-p0": lambda ls: _with_header_token(ls, 4, "nan"),
    "minus-inf-p0": lambda ls: _with_header_token(ls, 4, "-inf"),
    "nan-Q": lambda ls: _with_header_token(ls, 5, "nan"),
    "inf-Q": lambda ls: _with_header_token(ls, 5, "inf"),
    "v3-nan-sigma": lambda ls: _as_v3(ls, "nan"),
    "v3-minus-inf-sigma": lambda ls: _as_v3(ls, "-inf"),
    "v3-negative-sigma": lambda ls: _as_v3(ls, "-1.0000000000000000e-03"),
    "v3-6-field-header": lambda ls: _as_v3(ls),
    "v3-8-field-header": lambda ls: _as_v3(ls, "1.0", "1.0"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_V2))
def test_malformed_v2_dump_rejected(t0, config_path, tmp_path, capsys, case):
    flow = lm.solve_laminar(t0, 4.0, pr.PGrid(-1.0, 64))
    lines = hs.dump_field(hs.laminar_field(flow, 16)).splitlines()
    assert lines[0].startswith("heightfield v2 16 64 ")
    text = "\n".join(_MALFORMED_V2[case](lines)) + "\n"
    with pytest.raises(ShapeError):
        hs.load_field(text)
    dump = tmp_path / "field.txt"
    dump.write_text(text)
    code = cli.main(["verify", "--config", config_path(),
                     "--field", str(dump)])
    captured = capsys.readouterr()
    assert code == 3
    assert "shape-error" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["verify", "eulerian"])
def test_dump_without_q_interval_rejected(t0, config_path, tmp_path, capsys,
                                          command):
    # N_q = 0 with its one body row loaded, and dq = pi / N_q then raised
    # ZeroDivisionError out of the command
    flow = lm.solve_laminar(t0, 4.0, pr.PGrid(-1.0, 64))
    lines = hs.dump_field(hs.laminar_field(flow, 16)).splitlines()
    text = "\n".join(_with_header_token(lines, 2, "0")[:2]) + "\n"
    with pytest.raises(ShapeError):
        hs.load_field(text)
    with pytest.raises(ShapeError):
        hs.HeightField(Q=flow.Q, N_q=0, pgrid=flow.grid,
                       h=np.zeros((1, flow.grid.N_p + 1)))
    dump = tmp_path / "field.txt"
    dump.write_text(text)
    code = cli.main([command, "--config", config_path(), "--field", str(dump),
                     "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 3
    assert "shape-error" in captured.err and captured.out == ""


@pytest.mark.parametrize("noise", [0.0, 1e-6])
def test_verify_reads_v1_and_v2_dumps_alike(t0, config_path, tmp_path,
                                            capsys, noise):
    flow = lm.solve_laminar(t0, 4.0, pr.PGrid(-1.0, 64))
    fld = hs.laminar_field(flow, 32)
    rng = np.random.default_rng(5)
    fld = replace(fld, h=fld.h + noise * rng.standard_normal(fld.h.shape))
    results = []
    for name, text in (("v1.field", _v1_dump(fld)),
                       ("v2.field", hs.dump_field(fld))):
        assert text.startswith(f"heightfield {name[:2]} ")
        (tmp_path / name).write_text(text)
        code = cli.main(["verify", "--config", config_path(),
                         "--field", str(tmp_path / name)])
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[0] == results[1]
    assert results[0][0] == (0 if noise == 0.0 else 3)


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


def test_eulerian_and_verify_share_the_oracle_values(t0, config_path, tmp_path,
                                                     capsys, monkeypatch):
    # each command evaluates each oracle once, and both report its value
    flow = lm.solve_laminar(t0, 4.0, pr.PGrid(-1.0, 64))
    fld = hs.laminar_field(flow, 32)
    rng = np.random.default_rng(11)
    fld = replace(fld, h=fld.h + 1e-6 * rng.standard_normal(fld.h.shape))
    dump = tmp_path / "field.txt"
    dump.write_text(hs.dump_field(fld))
    calls = []
    for name in ("flux_all_columns", "surface_bernoulli_residual",
                 "yih_residual"):
        def counted(*args, _name=name, _oracle=getattr(eu, name)):
            calls.append(_name)
            return _oracle(*args)
        monkeypatch.setattr(eu, name, counted)
    out = tmp_path / "out"
    assert cli.main(["eulerian", "--config", config_path(), "--out",
                     str(out), "--field", str(dump)]) == 0
    report = json.loads((out / "eulerian_checks.json").read_text())
    assert sorted(calls) == ["flux_all_columns", "surface_bernoulli_residual",
                             "yih_residual"]
    del calls[:]
    capsys.readouterr()
    cli.main(["verify", "--config", config_path(), "--field", str(dump)])
    assert len(calls) == 3
    printed = {line.split()[1]: float(line.split()[2][len("value="):])
               for line in capsys.readouterr().out.splitlines()}
    assert printed["flux"] == report["flux_max_error"]
    assert printed["surface-bernoulli"] == report["surface_bernoulli_residual"]
    assert printed["yih"] == report["yih_residual"]
    assert printed["eta-mean"] == abs(report["eta_mean"])


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


def test_table_short_of_its_domain_is_config_error(config_path, tmp_path,
                                                   capsys):
    # a rho table from -0.99999 on p0 = -1 would be extrapolated at p0
    rho = {"type": "table", "p": [-0.99999, -0.5, 0.0],
           "v": [1.2, 1.1, 1.0]}
    code = cli.main(["laminar", "--config", config_path(rho=rho),
                     "--lambda", "5.0", "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config-error")
    assert "domain" in captured.err
    assert not (tmp_path / "o").exists()


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


def _double_point_config(tmp_path, sigma=1.0):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["numerics"] = {"N_p": 32, "N_q": 32}
    doc["physics"]["sigma"] = sigma
    path = tmp_path / f"cfg_{sigma!r}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def double_point_dumps(tmp_path_factory):
    """The eight field dumps of ``branch --n2 3 --steps 3`` (sigma = 1,
    32^2), with the directory they were written to."""
    tmp_path = tmp_path_factory.mktemp("double3")
    out = tmp_path / "out"
    code = cli.main(["branch", "--config",
                     str(_double_point_config(tmp_path)), "--out", str(out),
                     "--n2", "3", "--steps", "3"])
    assert code == 0
    dumps = sorted(out.glob("*.field"))
    assert len(dumps) == 8
    return tmp_path, dumps


@pytest.fixture(scope="module")
def solved_dumps(t0, tmp_path_factory):
    """A field that Newton solved at sigma = 1 (the simple point at
    16 x 32, amplitude 1e-3), dumped as v3 and, its sigma dropped, as v2."""
    grid = pr.PGrid(-1.0, 32)
    flow = lm.solve_laminar(t0, sp.find_lambda_star(t0, grid), grid)
    mode = sp.shoot_mode(flow, t0, 1)
    sol = hs.newton(t0, hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3,
                                      16), frozen="amplitude")
    tmp_path = tmp_path_factory.mktemp("solved")
    dumps = {}
    for version, fld in (("v3", sol), ("v2", replace(sol, sigma=None))):
        dumps[version] = tmp_path / f"{version}.field"
        dumps[version].write_text(hs.dump_field(fld))
        assert dumps[version].read_text().startswith(f"heightfield {version}")
    return dumps


# verify with a config at sigma = 2: a v3 dump's recorded sigma = 1 is the
# run's sigma, and a --sigma against it is a config error before any
# check; a v2 dump takes --sigma as classify does
@pytest.mark.parametrize("version, flags, code", [
    ("v2", [], 3), ("v2", ["--sigma", "1"], 0), ("v3", [], 0),
    ("v3", ["--sigma", "1"], 0), ("v3", ["--sigma", "2"], 2)])
def test_verify_takes_sigma_from_the_dump_or_the_flag(
        solved_dumps, config_path, capsys, version, flags, code):
    assert cli.main(["verify", "--config", config_path(sigma=2.0),
                     "--field", str(solved_dumps[version]), *flags]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err.startswith("config-error: --sigma")
        assert captured.out == ""


def _verify_codes(config, dumps, flags, capsys):
    codes = {}
    for dump in dumps:
        codes[dump.name] = cli.main(["verify", "--config", str(config),
                                     "--field", str(dump), *flags])
        capsys.readouterr()
    return codes


def _double_point_sigma_config(tmp_path):
    """The config at the double point's sigma."""
    cfg = cli.load_config(str(_double_point_config(tmp_path)))
    sigma_d, _ = sp.find_double_sigma(cfg.physics, cfg.grid, 3)
    return _double_point_config(tmp_path, sigma=sigma_d)


def test_double_point_dumps_verify_at_their_sigma(double_point_dumps,
                                                  capsys):
    # the dumps are sound: a config at the double point's sigma passes
    # every check on each of them
    tmp_path, dumps = double_point_dumps
    config = _double_point_sigma_config(tmp_path)
    assert _verify_codes(config, dumps, [], capsys) == {
        dump.name: 0 for dump in dumps}


def test_double_point_dumps_verify_with_n2(double_point_dumps, capsys):
    # each dump records the double point's sigma, which answers --n2
    tmp_path, dumps = double_point_dumps
    config = _double_point_config(tmp_path)
    assert _verify_codes(config, dumps, ["--n2", "3"], capsys) == {
        dump.name: 0 for dump in dumps}


def test_double_point_dumps_eulerian_with_n2(double_point_dumps, capsys):
    # eulerian --n2 3 with the sigma = 1 config reports what eulerian with
    # the double point's config does
    tmp_path, dumps = double_point_dumps
    runs = ((_double_point_config(tmp_path), ["--n2", "3"]),
            (_double_point_sigma_config(tmp_path), []))
    for dump in dumps:
        reports = []
        for k, (config, flags) in enumerate(runs):
            out = tmp_path / f"eulerian{k}" / dump.stem
            assert cli.main(["eulerian", "--config", str(config), "--out",
                             str(out), "--field", str(dump), *flags]) == 0
            reports.append((out / "eulerian_checks.json").read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1], dump.name


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
    _, flags = cli._SUBCOMMANDS["branch"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "branch",
                        (lambda cfg, args: seen.append(vars(args).copy())
                         or [], flags))
    path = config_path()
    assert cli.main(["branch", "--config", path, "--n2", "3",
                     "--steps", "2", "--out", "first"]) == 0
    assert cli.main(["branch", "--config", path]) == 0
    assert (seen[0]["n2"], seen[0]["steps"], seen[0]["out"]) == (3, 2, "first")
    assert (seen[1]["n2"], seen[1]["steps"]) == (None, None)
    assert seen[1]["out"] == cli.load_config(path).output_dir
