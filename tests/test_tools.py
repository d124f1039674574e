"""The checking tools: ``tools/cli_digests.py``'s value comparison of two
trees' outputs, on small hand-made output directories, and
``tools/work_precision.py``'s reference."""

import importlib.util
import json
from pathlib import Path

from dwlab import BvpConfig

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_digests = load_tool("cli_digests")
work_precision = load_tool("work_precision")


def make_tree(root: Path, codes: dict, files: dict) -> Path:
    """A ``run_into`` directory: exit codes, and {(run, file): text}."""
    root.mkdir()
    (root / cli_digests.CODES).write_text(json.dumps(codes))
    for (run, name), text in files.items():
        (root / run).mkdir(exist_ok=True)
        (root / run / name).write_text(text)
    return root


CSV = "x,y,region\n0,1.5,stable\n1,2.5,pole\n"
DOC = {"points": [{"param": 0.0, "s": 1.0}, {"param": 0.5, "s": 2.0}],
       "terminated": "reached_target"}


class TestCompare:
    def test_equal_trees_print_nothing(self, tmp_path):
        files = {("a", "t.csv"): CSV, ("a", "d.json"): json.dumps(DOC),
                 ("a", "manifest.json"): "{}"}
        old = make_tree(tmp_path / "old", {"a": 0, "b": 3}, files)
        new = make_tree(tmp_path / "new", {"a": 0, "b": 3},
                        {**files, ("a", "manifest.json"): '{"t": 1}'})
        assert cli_digests.compare(old, new) == []

    def test_reports_each_difference(self, tmp_path):
        doc = {"points": [{"param": 0.0, "s": 1.0},
                          {"param": 0.5, "s": 2.5}],
               "terminated": "newton_failure"}
        old = make_tree(tmp_path / "old", {"a": 0, "b": 0},
                        {("a", "t.csv"): CSV,
                         ("a", "d.json"): json.dumps(DOC),
                         ("b", "gone.csv"): "x\n1\n"})
        new = make_tree(tmp_path / "new", {"a": 0, "b": 3},
                        {("a", "t.csv"): "x,y,region\n0,1.5,stable\n"
                                         "1,2,unstable\n",
                         ("a", "d.json"): json.dumps(doc, indent=1)})
        assert cli_digests.compare(old, new) == [
            "a d.json",
            "  points[*].s: abs 0.5 at points[1].s, rel 0.2 at points[1].s",
            "  terminated: 1 other values differ, first at terminated",
            "a t.csv",
            "  y: abs 0.5 at row 2, rel 0.2 at row 2",
            "  region: 1 other values differ, first at row 2",
            "b exit 0 -> 3",
            "b gone.csv: only in the old tree"]

    def test_bytes_alone(self, tmp_path):
        """A file spelled differently with the same values, NaN included."""
        old = make_tree(tmp_path / "old", {"a": 0},
                        {("a", "d.json"): '{"v": [1.0, NaN]}'})
        new = make_tree(tmp_path / "new", {"a": 0},
                        {("a", "d.json"): '{"v": [1, NaN]}\n'})
        assert cli_digests.compare(old, new) == [
            "a d.json", "  bytes differ, values equal"]


class TestWorkPrecision:
    def test_reference_holds_every_quantity_on_a_finer_mesh(self):
        """The reference is the script's own output on L <= 50, where the
        endpoints do not drift, at a quarter of the default width."""
        ref = work_precision.read_reference()
        cfg = ref["config"]
        assert set(ref["values"]) == set(work_precision.QUANTITIES)
        assert cfg["L"] <= 50
        default = BvpConfig()
        assert (2 * cfg["L"] / cfg["n_mesh"]
                <= 0.25 * 2 * default.L / default.n_mesh)

    def test_default_mesh_endpoint_error(self):
        """Criterion 8a's endpoint on the default mesh is within 1e-12 of
        the reference (1.6e-13 measured), and its error is the larger of
        |ds| and |dOmega|."""
        ref = work_precision.read_reference()["values"]
        value = work_precision.QUANTITIES["8a"](BvpConfig())
        err = work_precision.error("8a", value, ref)
        assert err == max(abs(v - r) for v, r in zip(value, ref["8a"]))
        assert err < 1e-12

    def test_freeze_frame_error_against_the_closed_form(self):
        """The c_cp = 0 freezing frame over T = 1 is within 1e-4 of the
        closed form (8.45e-5 measured, the discretization error), and the
        c_cp = 0.5 run is judged against 8a's reference endpoint."""
        ref = work_precision.read_reference()["values"]
        c_cp, T = work_precision.FREEZE_RUNS["freeze 0 T=1"]
        target = work_precision.freeze_target(c_cp, ref)
        assert target[0] == 0.12
        value = work_precision.freeze_frame(c_cp, T)
        assert max(abs(v - t) for v, t in zip(value, target)) < 1e-4
        assert work_precision.freeze_target(0.5, ref) == ref["8a"]

    def test_settled_frame_row_is_the_time_step_error(self):
        """The settled row's error is the time-step error alone: 8.3e-7
        measured (2.1e-5 when the phase conditions held the implicit
        increment orthogonal), while its frame is off the closed form by
        the n = 512 grid error, 6.8e-4."""
        coarse = work_precision.settled_frame(work_precision.SETTLED_DT)
        fine = work_precision.settled_frame(work_precision.SETTLED_REF_DT)
        name = work_precision.SETTLED
        err = work_precision.error(name, coarse, {name: fine})
        assert err == max(abs(c - f) for c, f in zip(coarse, fine))
        assert err < 2e-6
        assert 5e-4 < abs(coarse[0] - 0.12) < 1e-3
