"""``tools/artifact_manifest.py --expect`` prints the same lines and turns
a digest that differs from the expected one into exit code 1."""

import hashlib
import importlib.util
import os
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
LINES = ((b"stdout of a", "a stdout exit=0"), (b"", "a stderr"),
         (b"file", "a/out.csv"))


@pytest.fixture
def manifest(tmp_path, monkeypatch):
    """The tool with its command sets replaced by a stub run that adds
    fixed lines; returns a function running its main in a new directory."""
    # the tool sets thread variables when imported; keep them to this test
    monkeypatch.setattr(os, "environ", dict(os.environ))
    spec = importlib.util.spec_from_file_location(
        "artifact_manifest", REPO / "tools" / "artifact_manifest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

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
