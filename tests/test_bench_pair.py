"""``tests/bench_pair.py`` refuses a checkout whose ``src/`` holds bytecode
caches that the freshly unpacked parent lacks.

A cached tree skips the compile that the parent pays at every start, so
its ``setup_s`` would read lower for no change of the code.  These tests
build both trees in a temporary directory and run no benchmark.
"""

import json
from pathlib import Path

import bench_pair


def _tree(root: Path, *caches: str) -> Path:
    (root / "src" / "vertalign").mkdir(parents=True)
    for cache in caches:
        (root / cache).mkdir(parents=True)
        (root / cache / "cli.cpython-311.pyc").write_bytes(b"")
    return root


def test_stray_caches_are_those_the_parent_lacks(tmp_path):
    change = _tree(tmp_path / "change", "src/vertalign/__pycache__", "src/__pycache__")
    parent = _tree(tmp_path / "parent", "src/__pycache__")
    assert bench_pair.stray_caches(change, parent) == ["src/vertalign/__pycache__"]
    assert bench_pair.stray_caches(parent, parent) == []


def test_refuses_with_exit_2_naming_the_cache(tmp_path, monkeypatch, capsys):
    change = _tree(tmp_path / "change", "src/vertalign/__pycache__")
    (change / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "pointwise"}],
        "end_to_end": [{"name": "setup_s"}],
    }))

    def no_run(*args, **kwargs):
        raise AssertionError("a tree was run")

    monkeypatch.setattr(bench_pair, "ROOT", change)
    monkeypatch.setattr(bench_pair, "git", lambda *args: "")
    # The parent's tree unpacks fresh: it holds no cache at all.
    monkeypatch.setattr(bench_pair, "unpack", lambda rev, into: None)
    monkeypatch.setattr(bench_pair, "run", no_run)
    assert bench_pair.main(["--parent", "HEAD~1", "--label", "refused"]) == 2
    err = capsys.readouterr().err
    assert str(change / "src" / "vertalign" / "__pycache__") in err
    assert not (change / "BENCH_refused.json").exists()
