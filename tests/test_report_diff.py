"""``tools/report_diff.py`` on two hand-written report directories."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "report_diff", ROOT / "tools" / "report_diff.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def write(root: Path, name: str, code: str, records) -> None:
    root.mkdir(exist_ok=True)
    (root / f"{name}.exit").write_text(code + "\n", encoding="utf-8")
    lines = ["# sixvertex 0.1.0 config=000000000000"] + [
        f"check={check} anchor=LZ01 residual={res} tol=1.000e-06 "
        f"verdict={'pass' if float(res) < 1e-6 else 'fail'} "
        "params_digest=000000000000"
        for check, res in records]
    (root / f"{name}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_report_diff_names_flips_and_largest_family_changes(tmp_path, capsys):
    tool = load_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    same = [("zeros.coincidence.state0", "1.000000000e-08")]
    write(a, "quiet", "0", same)
    write(b, "quiet", "0", same)
    write(a, "moved", "0", [("zeros.lz01_constancy.state0", "2.000000000e-07"),
                            ("zeros.lz01_constancy.state1", "5.000000000e-07"),
                            ("zeros.wronskian.state2", "inf")])
    write(b, "moved", "1", [("zeros.lz01_constancy.state0", "2.500000000e-07"),
                            ("zeros.lz01_constancy.state1", "1.500000000e-06"),
                            ("zeros.wronskian.state2", "inf")])
    assert tool.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "moved: exit 0 -> 1" in out
    assert "moved: zeros.lz01_constancy.state1 pass -> fail" in out
    assert "quiet" not in out
    lines, families = tool.compare(tool.read_dir(a), tool.read_dir(b))
    assert len(lines) == 2
    count, changed, delta, ratio = families["zeros.lz01_constancy"]
    assert (count, changed) == (2, 2)
    assert abs(delta - 1e-6) < 1e-18 and abs(ratio - 1.0) < 1e-12
    assert families["zeros.wronskian"] == [1, 0, 0.0, 0.0]
    assert families["zeros.coincidence"] == [1, 0, 0.0, 0.0]


def test_report_diff_compares_every_occurrence_of_a_repeated_name(tmp_path,
                                                                 capsys):
    # a run writes theorem.expansion.state<i> once per draw; a flip in an
    # early draw must show although the last draws agree
    tool = load_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    name = "theorem.expansion.state0"
    write(a, "draws", "0", [(name, "1.000000000e-09"), (name, "2.000000000e-09")])
    write(b, "draws", "0", [(name, "3.000000000e-06"), (name, "2.000000000e-09")])
    assert tool.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert f"draws: {name} pass -> fail" in out
    lines, families = tool.compare(tool.read_dir(a), tool.read_dir(b))
    assert len(lines) == 1
    assert families["theorem.expansion"][:2] == [2, 1]
    write(b, "draws", "0", [(name, "1.000000000e-09")])
    lines, _ = tool.compare(tool.read_dir(a), tool.read_dir(b))
    assert lines == [f"draws: {name}#1 only in A"]


def test_report_diff_of_a_directory_with_itself_is_clean(tmp_path):
    tool = load_tool()
    write(tmp_path, "one", "0", [("functional.fl.state3.n2", "1.000000000e-12")])
    assert tool.main([str(tmp_path), str(tmp_path)]) == 0
    assert tool.family("functional.fl.state3.n2") == "functional.fl"
