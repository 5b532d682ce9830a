"""tools/cli_artifacts.py: the byte-identity comparison of two outdirs."""

import pathlib
import runpy

TOOL = runpy.run_path(str(pathlib.Path(__file__).resolve().parents[1]
                          / "tools" / "cli_artifacts.py"))


def _tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return str(root)


def test_identical_trees_compare_clean(tmp_path):
    files = {"a/stdout.txt": b"PASS\n", "a/exit_code.txt": b"0\n", "verify.cfg": b"x=1\n"}
    ours, ref = _tree(tmp_path / "ours", files), _tree(tmp_path / "ref", files)
    assert TOOL["compare_trees"](ours, ref) == []


def test_each_difference_is_named(tmp_path):
    ref = _tree(tmp_path / "ref", {"a/stdout.txt": b"PASS\n", "a/gone.json": b"{}",
                                   "b/exit_code.txt": b"0\n"})
    ours = _tree(tmp_path / "ours", {"a/stdout.txt": b"PASS \n", "b/exit_code.txt": b"0\n",
                                     "b/new.csv": b"1,2\n"})
    assert TOOL["compare_trees"](ours, ref) == [
        f"only in {ref}: a/gone.json",
        f"only in {ours}: b/new.csv",
        "differs: a/stdout.txt",
    ]


def test_verdict_changes_are_named_apart_from_bytes(tmp_path):
    ref = _tree(tmp_path / "ref", {
        "same/stdout.txt": b"residual 1e-7 PASS\n", "same/exit_code.txt": b"0\n",
        "word/stdout.txt": b"check PASS\noverall PASS\n", "word/exit_code.txt": b"0\n",
        "code/stdout.txt": b"", "code/exit_code.txt": b"0\n",
        "gone/stdout.txt": b"PASS\n", "gone/exit_code.txt": b"0\n"})
    ours = _tree(tmp_path / "ours", {
        "same/stdout.txt": b"residual 2e-7 PASS\n", "same/exit_code.txt": b"0\n",
        "word/stdout.txt": b"check PASS\noverall FAIL\n", "word/exit_code.txt": b"0\n",
        "code/stdout.txt": b"", "code/exit_code.txt": b"2\n"})
    # a byte-only change ("same") and a config on one side only ("gone")
    # print no verdict line
    assert TOOL["verdict_changes"](ours, ref) == [
        "verdict: code exit 0 - -> exit 2 -",
        "verdict: word exit 0 PASS -> exit 0 FAIL",
    ]
    assert "differs: same/stdout.txt" in TOOL["compare_trees"](ours, ref)
