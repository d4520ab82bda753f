"""``tools/artifact_manifest.py --expect`` prints the same lines and turns
a digest that differs from the expected one into exit code 1."""

import hashlib
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from stratiwave import heightsolver as hs
from stratiwave import profiles as pr
from test_heightsolver import _v1_dump

REPO = Path(__file__).resolve().parents[1]
LINES = ((b"stdout of a", "a stdout exit=0"), (b"", "a stderr"),
         (b"file", "a/out.csv"))


@pytest.fixture
def tool(monkeypatch):
    """The tool's module, imported afresh."""
    # the tool sets thread variables when imported; keep them to this test
    monkeypatch.setattr(os, "environ", dict(os.environ))
    spec = importlib.util.spec_from_file_location(
        "artifact_manifest", REPO / "tools" / "artifact_manifest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture
def manifest(tool, tmp_path, monkeypatch):
    """The tool with its command sets replaced by a stub run that adds
    fixed lines; returns a function running its main in a new directory."""
    def stub_run(man):
        for data, label in LINES:
            man.add(data, label)
        return []

    monkeypatch.setattr(tool, "branch_set", stub_run)
    monkeypatch.setattr(tool, "check_dumps", lambda man, branches: None)
    monkeypatch.setattr(tool, "verify_fields", lambda man: None)
    monkeypatch.chdir(tmp_path)             # main changes into its outdir
    runs = iter(range(100))

    def run(*extra):
        return tool.main([str(tmp_path / f"out{next(runs)}"), *extra])

    return run


def _digest():
    text = "".join(f"{hashlib.sha256(data).hexdigest()} {label}\n"
                   for data, label in LINES)
    return hashlib.sha256(text.encode()).hexdigest()


def test_expected_digest_passes_with_the_same_lines(manifest, capsys):
    assert manifest() == 0
    plain = capsys.readouterr().out
    assert plain.splitlines()[-1] == f"{_digest()} manifest"
    assert len(plain.splitlines()) == len(LINES) + 1
    assert manifest("--expect", _digest()) == 0
    out = capsys.readouterr()
    assert out.out == plain and out.err == ""


def test_other_digest_exits_1(manifest, capsys):
    assert manifest("--expect", "0" * 64) == 1
    out = capsys.readouterr()
    assert out.out.splitlines()[-1] == f"{_digest()} manifest"
    assert _digest() in out.err and "0" * 64 in out.err


def test_field_dumps_get_a_decoded_line(tool, tmp_path, monkeypatch, capsys):
    """A v1 and a v2 dump of one field hash apart as bytes, and their
    ``[decoded]`` lines both hash N_q, N_p and the bits of p0, Q and h."""
    h = np.linspace(-1.0, 1.0, 27).reshape(3, 9) ** 3 / 7.0
    h[0, 0] = -0.0
    hf = hs.HeightField(Q=0.1, N_q=2, pgrid=pr.PGrid(-0.75, 8), h=h)
    dumps = {"a.field": _v1_dump(hf), "b.field": hs.dump_field(hf)}

    def branch(argv):
        out = argv[argv.index("--out") + 1]
        os.makedirs(out)
        for name, text in dumps.items():
            with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0

    monkeypatch.setattr(tool.cli, "main", branch)
    monkeypatch.setattr(tool, "branch_set",
                        lambda man: [man.run("x", ["branch"], out="x")])
    monkeypatch.setattr(tool, "check_dumps", lambda man, branches: None)
    monkeypatch.setattr(tool, "verify_fields", lambda man: None)
    monkeypatch.chdir(tmp_path)
    assert tool.main([str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = [line.split(" ", 1)[1] for line in lines]
    assert labels == ["x stdout exit=0", "x stderr", "x/a.field",
                      "x/a.field [decoded]", "x/b.field",
                      "x/b.field [decoded]", "manifest"]
    packed = (np.array([2, 8], dtype="<i8").tobytes()
              + np.array([-0.75, 0.1], dtype="<f8").tobytes()
              + h.astype("<f8").tobytes())
    decoded = f"{hashlib.sha256(packed).hexdigest()} "
    assert lines[3] == decoded + "x/a.field [decoded]"
    assert lines[5] == decoded + "x/b.field [decoded]"
    assert lines[2].split()[0] != lines[4].split()[0]
