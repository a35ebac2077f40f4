"""The desk report: each cell is the median of RUNS fresh processes."""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "desk", os.path.join(HERE, os.pardir, "tools", "desk.py"))
desk = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(desk)


def test_median_row_takes_the_median_of_times_only():
    rows = [{"topes": 90, "forms_s": 3.0, "seconds": 1.0, "exit": 0},
            {"topes": 90, "forms_s": 1.0, "seconds": 5.0, "exit": 0},
            {"topes": 90, "forms_s": 2.0, "seconds": 2.0, "exit": 0}]
    assert desk.median_row(rows) == {"topes": 90, "forms_s": 2.0,
                                     "seconds": 2.0, "exit": 0}
    rows[1]["exit"] = 2  # one failed run shows, whatever its place
    assert desk.median_row(rows)["exit"] == 2


def fake_fresh(answers: list, calls: list):
    """A stand-in for `desk.fresh` that hands out answers in turn."""
    def fresh(*argv):
        calls.append(argv)
        return answers[len(calls) - 1]
    return fresh


def test_each_cell_prints_the_median_of_fresh_processes(monkeypatch,
                                                         capsys):
    assert desk.RUNS == 3
    # each command's import medians: 0.040, 0.050 and 0.060 s
    imports = (0.04, 0.01, 0.07, 0.05, 0.09, 0.02, 0.06, 0.06, 0.08)
    answers = [{"seconds": s, "exit": 0, "import_s": i}
               for s, i in zip((0.5, 0.1, 0.3) * 3, imports)]
    calls = []
    monkeypatch.setattr(desk, "fresh", fake_fresh(answers, calls))
    assert desk.main(["--commands", "8x4"]) == 0
    assert len(calls) == 9  # three runs of each of the three commands
    assert calls[0] == calls[2] == ("--one", "8x4", "--command", "basis")
    header, line = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "x", "r", "import_s", "basis_s",
                              "aomoto_s", "verify_s"]
    assert line.split() == ["8", "x", "4", "0.050", "0.300", "0.300",
                            "0.300"]


def test_a_failed_run_fails_the_report(monkeypatch):
    calls = []
    row = {"topes": 1, "validate_s": 0, "tutte_s": 0, "enumerate_s": 0,
           "first_form_s": 0, "forms_s": 0, "memo_entries": 0}
    monkeypatch.setattr(desk, "fresh", fake_fresh([row] * 3, calls))
    assert desk.main(["8x4"]) == 0
    assert len(calls) == 3
    calls.clear()
    monkeypatch.setattr(desk, "fresh", fake_fresh([row, None, row], calls))
    assert desk.main(["8x4"]) == 1


def test_one_command_alone(monkeypatch, capsys):
    """--command with --commands times that command alone: three runs per
    size, one column."""
    answers = [{"seconds": s, "exit": 0, "import_s": 0.05}
               for s in (0.2, 0.1, 0.3)]
    calls = []
    monkeypatch.setattr(desk, "fresh", fake_fresh(answers, calls))
    assert desk.main(["--commands", "--command", "canonical", "8x4"]) == 0
    assert calls == [("--one", "8x4", "--command", "canonical")] * 3
    header, line = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "x", "r", "import_s", "canonical_s"]
    assert line.split() == ["8", "x", "4", "0.050", "0.200"]


def test_canonical_runs_on_the_first_sorted_tope():
    """The timed `canonical` command reads the first sorted tope of the
    seeded matrix and exits 0."""
    row = desk.measure_command("canonical", 6, 3)
    assert row["exit"] == 0
    tope = desk.first_tope(6, 3)
    assert tope.startswith("+") and len(tope.split(",")) == 6
