"""``tools/paired_bench.py`` keeps every run: a second set of pairs joins
the stored file when it compares the same two commits on new seeds."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """The tool rooted in tmp_path, with a parent checkout beside it and
    runs that report seed-dependent metrics without running anything."""
    spec = importlib.util.spec_from_file_location(
        "paired_bench", REPO / "tools" / "paired_bench.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    root = tmp_path / "change"
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    root.mkdir()
    shutil.copy(REPO / "BENCHMARK.json", root / "BENCHMARK.json")
    commits = {parent: "aaa", root: "bbb"}
    monkeypatch.setattr(tool, "ROOT", root)
    monkeypatch.setattr(tool, "head", lambda checkout: commits[checkout])

    def run_once(checkout, workload, seed, seconds):
        scale = 2.0 if checkout == parent else 1.0
        return {"seed": seed, "correct": True, "attempted": 10, "failed": 0,
                "metrics": {"ops_per_s": 10.0 / scale,
                            "op_s_p50": scale * seed,
                            "setup_s": scale, "peak_rss_mb": 80.0}}

    monkeypatch.setattr(tool, "run_once", run_once)

    def run(*extra):
        return tool.main(["--parent", str(parent), "--workload", "w",
                          *extra])

    return run, root / "BENCH_w.json", commits, parent


def test_second_set_of_pairs_is_appended(bench):
    run, path, _, _ = bench
    assert run("--pairs", "2", "--seed", "1") == 0
    assert run("--pairs", "3", "--seed", "3") == 0
    report = json.loads(path.read_text())
    assert report["seeds"] == [1, 2, 3, 4, 5]
    assert [r["seed"] for r in report["parent"]] == [1, 2, 3, 4, 5]
    assert [r["seed"] for r in report["change"]] == [1, 2, 3, 4, 5]
    assert report["commits"] == {"parent": "aaa", "change": "bbb"}
    p50 = report["summary"]["op_s_p50"]
    assert p50["pairs"] == 5 and p50["change_better_pairs"] == 5
    assert p50["change"]["median"] == 3.0


def test_repeated_seed_is_refused(bench):
    run, path, _, _ = bench
    assert run("--pairs", "2", "--seed", "1") == 0
    before = path.read_text()
    assert run("--pairs", "2", "--seed", "2") == 2
    assert path.read_text() == before


@pytest.mark.parametrize("side", ["parent", "change"])
def test_other_commit_is_refused(bench, side):
    run, path, commits, parent = bench
    assert run("--pairs", "1", "--seed", "1") == 0
    before = path.read_text()
    checkout = parent if side == "parent" else path.parent
    commits[checkout] = "ccc"
    assert run("--pairs", "1", "--seed", "9") == 2
    assert path.read_text() == before


def test_file_without_commits_is_refused(bench):
    run, path, _, _ = bench
    path.write_text(json.dumps({"seeds": [1], "seconds": 25,
                                "parent": [], "change": []}))
    assert run("--pairs", "1", "--seed", "9") == 2


@pytest.mark.parametrize("side", ["parent", "change"])
def test_checkout_without_commit_is_named(bench, capsys, side):
    # a git archive copy has no HEAD: the refusal says which side, not
    # "stored commits X are not X"
    run, path, commits, parent = bench
    commits[parent if side == "parent" else path.parent] = None
    assert run("--pairs", "1", "--seed", "1") == 0
    before = path.read_text()
    capsys.readouterr()
    assert run("--pairs", "1", "--seed", "9") == 2
    assert path.read_text() == before
    assert f"no git commit for the {side} checkout" in capsys.readouterr().err
