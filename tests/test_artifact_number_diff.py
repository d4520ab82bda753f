"""``tools/artifact_number_diff.py`` prints the largest change of each
JSON key, CSV column and field dump between two artifact trees."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from stratiwave import heightsolver as hs
from stratiwave import profiles as pr

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "artifact_number_diff", REPO / "tools" / "artifact_number_diff.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _tree(root, lam, residual, Q, h, label="Simple"):
    (root / "c64" / "classify").mkdir(parents=True)
    doc = {"lambda_star": lam, "class": label, "residuals": {"0": 0.5,
                                                             "1": residual},
           "germs": [{"theta1": 1.0}, {"theta1": lam}]}
    (root / "c64" / "classify" / "classification.json").write_text(
        json.dumps(doc))
    (root / "c64" / "branch_0.csv").write_text(
        f"step,Q\n0,{Q!r}\n1,2.5\n")
    field = hs.HeightField(Q=Q, N_q=2, pgrid=pr.PGrid(-1.0, 8), h=h,
                           sigma=1.0)
    (root / "c64" / "end.field").write_text(hs.dump_field(field))
    (root / "c64" / "plot.svg").write_text("<svg/>")


def test_prints_the_largest_change_per_key(tool, tmp_path, capsys):
    h = np.linspace(1.0, 2.0, 27).reshape(3, 9)
    moved = h.copy()
    moved[1, 4] += 3e-15
    lam = 1.25 * (1 + 4e-16)
    _tree(tmp_path / "a", 1.25, 2e-16, 3.0, h)
    _tree(tmp_path / "b", lam, 5e-16, 3.0, moved)
    assert tool.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    classify = "c64/classify/classification.json"
    h_gap = moved[1, 4] - h[1, 4]
    lam_gap = f"rel {(lam - 1.25) / 1.25:.3e} abs {lam - 1.25:.3e}"
    assert lines == [
        f"{classify} germs[].theta1: {lam_gap} (1 of 2)",
        f"{classify} lambda_star: {lam_gap} (1 of 1)",
        f"{classify} residuals.1: rel 1.500e+00 abs 3.000e-16 (1 of 1)",
        f"c64/end.field h: rel {h_gap / h[1, 4]:.3e} abs {h_gap:.3e} "
        "(1 of 27)",
        "4 files, 14 keys compared, 4 moved"]


def test_text_moves_and_missing_files(tool, tmp_path, capsys):
    h = np.ones((3, 9))
    _tree(tmp_path / "a", 1.0, 0.0, 3.0, h)
    _tree(tmp_path / "b", 1.0, 1e-17, 3.0, h, label="Double(3)")
    (tmp_path / "b" / "c64" / "plot.svg").write_text("<svg></svg>")
    (tmp_path / "a" / "extra.csv").write_text("n\n1\n")
    assert tool.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "classification.json class: differs" in out
    assert "classification.json residuals.1: rel inf abs 1.000e-17" in out
    assert "c64/plot.svg: bytes differ" in out
    assert f"extra.csv: missing in {tmp_path / 'b'}" in out
