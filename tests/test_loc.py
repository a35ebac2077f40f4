"""The library's line count by kind (tools/loc.py)."""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "loc", os.path.join(HERE, os.pardir, "tools", "loc.py"))
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

SAMPLE = '''"""A module docstring

over three lines."""
# a comment
import os  # code, with a comment

TEXT = """a string

with a blank line inside"""


class A:
    """One line."""

    def f(self):
        # a comment
        return """not a docstring"""
'''


def test_each_module_splits_into_its_line_count():
    names = sorted(n for n in os.listdir(loc.SRC) if n.endswith(".py"))
    assert "forms.py" in names
    for name in names:
        with open(os.path.join(loc.SRC, name), encoding="utf-8") as fh:
            text = fh.read()
        counts = loc.split(text)
        assert set(counts) == set(loc.KINDS)
        assert sum(counts.values()) == text.count("\n"), name
        assert counts["code"], name


def test_a_small_file_splits_by_kind(tmp_path, capsys, monkeypatch):
    assert loc.split(SAMPLE) == {"docstring": 4, "comment": 2, "blank": 4,
                                 "code": 7}
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    monkeypatch.setattr(loc, "SRC", tmp_path)
    assert loc.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "total", *loc.KINDS],
                    ["sample.py", "17", "4", "2", "4", "7"],
                    ["total", "17", "4", "2", "4", "7"]]
