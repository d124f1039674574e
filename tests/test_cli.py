"""Serialization and CLI tests: deterministic formatting, profile round
trips, manifests, exit codes, and config validation."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dwlab.cli
import dwlab.runio
import dwlab.shooting
from dwlab import (BvpConfig, MaterialParams, NoConvergence, build_bvp,
                   solve_regime)
from dwlab.cli import (INTEGER, NUMBER, NUMBERS, REQUIRED, _TABLES,
                       _load_config, main)
from dwlab.freezing import FAR_STATE_BOUND, dt_max, grid_spacing
from dwlab.runio import (dumps_json, fmt, manifest_entry, profile_from_dict,
                         profile_rows, profile_to_dict, sha256_bytes,
                         write_csv)


class TestFmt:
    def test_floats_are_17_digits(self):
        assert fmt(1.0 / 3.0) == "0.33333333333333331"
        assert float(fmt(math.pi)) == math.pi

    def test_specials(self):
        assert fmt(float("nan")) == "NaN"
        assert fmt(float("inf")) == "Infinity"
        assert fmt(float("-inf")) == "-Infinity"

    def test_non_floats_pass_through(self):
        assert fmt(3) == "3"
        assert fmt("x") == "x"


class TestDumpsJson:
    def test_round_trips_through_json_loads(self):
        doc = {"a": 1.5, "b": [1, 2.25, None], "c": {"d": True, "e": "s"},
               "z": complex(1.0, -2.0)}
        text = dumps_json(doc)
        back = json.loads(text)
        assert back["a"] == 1.5
        assert back["b"] == [1, 2.25, None]
        assert back["c"] == {"d": True, "e": "s"}
        assert back["z"] == {"re": 1.0, "im": -2.0}

    def test_deterministic_and_lf_only(self):
        doc = {"x": [0.1, float(np.float64(0.2))], "y": np.arange(3)}
        a, b = dumps_json(doc), dumps_json(doc)
        assert a == b
        assert "\r" not in a and a.endswith("\n")

    def test_matrix_is_one_template(self, monkeypatch):
        """A 2-D array of finite floats, such as a profile's states, is
        spelled in one call, however many rows it has."""
        calls = []
        emit = dwlab.runio._emit

        def counted(*args):
            calls.append(1)
            return emit(*args)
        monkeypatch.setattr(dwlab.runio, "_emit", counted)
        counts = []
        for n_rows in (1, 10, 1601):
            calls.clear()
            dumps_json({"states": np.full((n_rows, 3), 0.5)})
            counts.append(len(calls))
        assert counts == [counts[0]] * 3


class TestCsv:
    def test_lf_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        data = write_csv(path, ["a", "b"], [[1.0, 2.0], [0.5, float("nan")]])
        assert data == path.read_bytes()
        assert b"\r" not in data
        assert data.decode().splitlines()[0] == "a,b"
        assert "NaN" in data.decode()


def reference_csv(header, rows) -> bytes:
    """The per-cell CSV writer that the one-template pass replaced."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def reference_emit(obj, indent, out):
    """The recursive JSON emitter that the one-template pass replaced."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append(f'{pad}  {json.dumps(str(k))}: ')
            reference_emit(v, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            reference_emit(v, indent + 1, out)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, complex):
        reference_emit({"re": obj.real, "im": obj.imag}, indent, out)
    else:
        out.append(json.dumps(str(obj)))


def reference_dumps_json(obj) -> str:
    out = []
    reference_emit(obj, 0, out)
    return "".join(out) + "\n"


#: finite floats with their edge cases: signed zeros, subnormals, +-1e308
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308,
                                    -1e308, 2.2250738585072014e-308]))
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([math.nan, math.inf,
                                               -math.inf]))
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)

#: the cells of one CSV column, by kind; "finite", "nonfinite" and "float64"
#: columns also go into float arrays
COLUMN_KINDS = {
    "finite": FINITE,
    "nonfinite": ANY_FLOAT,
    "float64": FINITE.map(np.float64),
    "float32": st.floats(width=32).map(np.float32),
    "int": st.integers(-10**20, 10**20),
    "bool": st.booleans(),
    "str": TEXT,
}
FLOAT_KINDS = {"finite", "nonfinite", "float64"}


@st.composite
def tables(draw):
    """(kinds, header, rows) of a table with 0-30 rows and 0-5 columns; a
    column name may hold % signs."""
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)),
                          max_size=5))
    names = st.one_of(TEXT, st.sampled_from(["%", "%s", "100%d", "%.17g"]))
    header = [draw(names) for _ in kinds]
    n_rows = draw(st.integers(0, 30))
    rows = [[draw(COLUMN_KINDS[k]) for k in kinds] for _ in range(n_rows)]
    return kinds, header, rows


FLOAT_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                 max_side=6), elements=ANY_FLOAT)
FINITE_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                 max_side=6), elements=FINITE)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20), ANY_FLOAT,
    FINITE.map(np.float64), st.floats(width=32).map(np.float32), TEXT,
    st.complex_numbers(), FLOAT_ARRAYS, FINITE_ARRAYS,
    st.lists(FINITE, max_size=6), st.tuples(FINITE, FINITE))
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20)


#: string cells: any text, % signs, empty strings and the map's "pole"
#: label, each also as np.str_
STRINGS = st.one_of(TEXT, st.sampled_from(["%", "%s", "%%", "%.17g", "",
                                           "pole"]))
STRING_CELLS = st.one_of(STRINGS, STRINGS.map(np.str_))


@st.composite
def string_tables(draw):
    """(header, rows) of a table with 0-30 rows of 1-5 columns, at least
    one of them all strings and the others finite floats."""
    kinds = draw(st.lists(st.sampled_from(["str", "finite"]), min_size=1,
                          max_size=5).filter(lambda k: "str" in k))
    header = [draw(STRINGS) for _ in kinds]
    cells = {"str": STRING_CELLS, "finite": FINITE}
    rows = [[draw(cells[k]) for k in kinds]
            for _ in range(draw(st.integers(0, 30)))]
    return header, rows


class TestTemplatePassIsByteIdentical:
    """The one-template writers reproduce every byte of the per-cell
    ones."""

    @seed(18)
    @settings(max_examples=300, deadline=None)
    @given(tables(), st.sampled_from(["array", "lists", "tuples"]))
    def test_write_csv(self, tmp_path_factory, table, form):
        kinds, header, rows = table
        if form == "array":
            dtype = float if set(kinds) <= FLOAT_KINDS else object
            rows = np.array(rows, dtype=dtype).reshape(len(rows),
                                                       len(kinds))
        elif form == "tuples":
            rows = [tuple(row) for row in rows]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        data = write_csv(path, header, rows)
        assert data == reference_csv(header, rows) == path.read_bytes()

    @seed(19)
    @settings(max_examples=300, deadline=None)
    @given(string_tables(), st.sampled_from(["array", "lists", "tuples"]))
    def test_write_csv_string_columns(self, tmp_path_factory, table, form):
        """A column of strings (str or np.str_) enters the template as %s
        as it is, and gives the bytes fmt gives cell by cell."""
        header, rows = table
        if form == "array":
            rows = np.array(rows, dtype=object).reshape(len(rows),
                                                        len(header))
        elif form == "tuples":
            rows = [tuple(row) for row in rows]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        data = write_csv(path, header, rows)
        assert data == reference_csv(header, rows) == path.read_bytes()

    @seed(18)
    @settings(max_examples=300, deadline=None)
    @given(JSON_DOCS)
    def test_dumps_json(self, doc):
        assert dumps_json(doc) == reference_dumps_json(doc)

    def test_profile_document(self, profile):
        doc = profile_to_dict(profile)
        assert dumps_json(doc) == reference_dumps_json(doc)


#: the kinds a column that changes rule from block to block takes: all
#: finite floats in some blocks, NaN, ints, float32 or strings in others
BLOCK_KINDS = ["finite", "finite", "float64", "nonfinite", "int",
               "float32", "str"]


@st.composite
def block_tables(draw):
    """(block size, header, rows) of a table whose 0-40 rows span several
    blocks of 1, 2, 3 or 7 rows, with 1-4 columns; at least one column
    draws its kind anew in each block."""
    block = draw(st.sampled_from([1, 2, 3, 7]))
    n_cols = draw(st.integers(1, 4))
    mixed = draw(st.lists(st.booleans(), min_size=n_cols,
                          max_size=n_cols).filter(any))
    fixed = [draw(st.sampled_from(sorted(COLUMN_KINDS)))
             for _ in range(n_cols)]
    n_rows = draw(st.integers(0, 40))
    rows = []
    for start in range(0, n_rows, block):
        kinds = [draw(st.sampled_from(BLOCK_KINDS)) if m else k
                 for m, k in zip(mixed, fixed)]
        rows += [[draw(COLUMN_KINDS[k]) for k in kinds]
                 for _ in range(min(block, n_rows - start))]
    return block, [draw(STRINGS) for _ in range(n_cols)], rows


class TestCsvBlocks:
    """write_csv spells its rows CSV_BLOCK_ROWS at a time into one buffer;
    where the blocks end changes no byte."""

    @seed(23)
    @settings(max_examples=300, deadline=None)
    @given(block_tables(),
           st.sampled_from(["array", "lists", "tuples", "iterator"]))
    def test_blocks_are_byte_identical(self, tmp_path_factory, table, form):
        block, header, rows = table
        given_rows = rows
        if form == "array":
            given_rows = np.array(rows, dtype=object).reshape(len(rows),
                                                              len(header))
        elif form == "tuples":
            given_rows = [tuple(row) for row in rows]
        elif form == "iterator":
            given_rows = iter(rows)
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dwlab.runio, "CSV_BLOCK_ROWS", block)
            data = write_csv(path, header, given_rows)
        assert data == reference_csv(header, rows) == path.read_bytes()

    @pytest.mark.parametrize("rows", [[[1.0, 2.0], [3.0]],
                                      [[1.0, 2.0], [3.0, 4.0], [5.0]],
                                      [[1.0], [2.0], ["x", "y"]]])
    def test_ragged_rows_raise_and_write_nothing(self, tmp_path,
                                                 monkeypatch, rows):
        """Rows of unequal length raise, in one block or across two."""
        monkeypatch.setattr(dwlab.runio, "CSV_BLOCK_ROWS", 2)
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            write_csv(path, ["a", "b"], rows)
        assert not path.exists()

    @pytest.mark.parametrize("rows", [[], np.empty((0, 2)), iter([])])
    def test_zero_rows_write_the_header(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        data = write_csv(path, ["a", "%b"], rows)
        assert data == b"a,%b\n" == path.read_bytes()

    def test_map_write_needs_output_plus_a_block(self, tmp_path,
                                                 monkeypatch):
        """The traced peak of writing a 200 x 200 stability map's rows is
        at most twice the file's bytes: the output and one block."""
        calls = []

        def keep_rows(path, header, rows):
            # the rows may come as a generator, read once
            rows = list(rows)
            calls.append((header, rows))
            return write_csv(path, header, rows)
        monkeypatch.setattr(dwlab.cli, "write_csv", keep_rows)
        code, _ = run_cli(tmp_path, "stability-map",
                          {"alpha": 0.5, "beta": 0.1, "mu": -1.0,
                           "n_h": 200, "n_ccp": 200})
        assert code == 0
        (header, rows), = calls
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            data = write_csv(tmp_path / "map.csv", header, rows)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(rows) == 40_000
        assert peak <= 2 * len(data)


class TestManifestEntry:
    def test_hash_matches_content(self):
        data = b"hello\n"
        e = manifest_entry("f.txt", data)
        assert e["bytes"] == 6
        assert e["sha256"] == sha256_bytes(data)


@pytest.fixture(scope="module")
def profile():
    mp = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=0.5, c_cp=0.0)
    bvp = build_bvp(mp, BvpConfig(L=20.0, n_mesh=60, collocation_order=3))
    u, sc = solve_regime(bvp)
    return bvp.make_profile(u, sc)


class TestProfileSchema:
    def test_exact_round_trip(self, profile):
        doc = profile_to_dict(profile)
        back = profile_from_dict(json.loads(dumps_json(doc)))
        assert np.array_equal(back.mesh, np.asarray(profile.mesh))
        assert np.array_equal(back.states, np.asarray(profile.states))
        assert back.mp == profile.mp
        assert back.wf.s == profile.wf.s
        assert back.regime == profile.regime

    def test_schema_guard(self):
        with pytest.raises(ValueError):
            profile_from_dict({"schema": "other/1"})

    def test_rows_reconstruct_magnetization(self, profile):
        rows = profile_rows(profile.mesh, profile.states)
        norms = np.linalg.norm(rows[:, 4:7], axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert np.allclose(rows[:, 6], np.cos(rows[:, 1]))


def run_cli(tmp_path, command, cfg, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(out),
                 *extra])
    return code, out


BASE = {"alpha": 0.5, "beta": 0.1, "mu": -1.0, "h": 5.0}


class TestCliClassify:
    def test_success_and_manifest(self, tmp_path):
        code, out = run_cli(tmp_path, "classify", BASE)
        assert code == 0
        doc = json.loads((out / "classify.json").read_text())
        assert doc["regime"] == "codim2"
        manifest = json.loads((out / "manifest.json").read_text())
        names = {f["name"] for f in manifest["files"]}
        assert "classify.json" in names
        for f in manifest["files"]:
            data = (out / f["name"]).read_bytes()
            assert sha256_bytes(data) == f["sha256"]
            assert len(data) == f["bytes"]

    def test_byte_determinism(self, tmp_path):
        _, out1 = run_cli(tmp_path / "a", "classify", BASE)
        _, out2 = run_cli(tmp_path / "b", "classify", BASE)
        assert (out1 / "classify.json").read_bytes() == \
            (out2 / "classify.json").read_bytes()

    def test_unknown_key_is_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "classify", dict(BASE, bogus=1))
        assert code == 2

    def test_missing_key_is_config_error(self, tmp_path):
        cfg = dict(BASE)
        del cfg["h"]
        code, _ = run_cli(tmp_path, "classify", cfg)
        assert code == 2

    def test_invalid_json_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        out = tmp_path / "out"
        code = main(["classify", "--config", str(cfg_path),
                     "--out", str(out)])
        assert code == 2

    def test_invalid_material_is_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "classify", dict(BASE, alpha=-1.0))
        assert code == 2


    def test_pole_is_labelled_like_the_map(self, tmp_path):
        """At h = -mu the stability curves have a pole; classify reports it
        as stability-map does instead of failing."""
        code, out = run_cli(tmp_path, "classify", dict(BASE, h=1.0))
        assert code == 0
        doc = json.loads((out / "classify.json").read_text())
        assert doc["stability"] == {"plus_e3": None, "minus_e3": None,
                                    "region": "pole"}
        assert doc["regime"] == "codim2"


@pytest.mark.parametrize("command, cfg", [
    ("classify", BASE),
    ("stability-map", {"alpha": 0.5, "beta": 0.1, "mu": -1.0, "n_h": 2,
                       "n_ccp": 2})])
def test_only_a_pole_is_labelled_pole(tmp_path, monkeypatch, command, cfg):
    """Only CurvePole is labelled a pole; any other library error from
    stability_verdict is a solver failure."""
    def fail(mp):
        raise NoConvergence("unexpected")
    monkeypatch.setattr(dwlab.cli, "stability_verdict", fail)
    assert run_cli(tmp_path, command, cfg)[0] == 3


#: one config per command that computes walls, all on an easy plane
EASY_PLANE = [
    ("classify", dict(BASE, mu=0.5, h=0.5)),
    ("melnikov", dict(BASE, mu=0.5, h=0.5)),
    ("shoot", dict(BASE, mu=0.5, h=0.5)),
    ("continue", dict(BASE, mu=0.5, h=0.5, cont="c_cp", target=0.1)),
    ("freeze", dict(BASE, mu=0.5, h=0.5, T=0.01)),
    ("center", {"alpha": 0.5, "beta": 0.1, "mu": 0.5, "sweep": "h",
                "values": [1.0]}),
    ("classify", dict(BASE, mu=0.0)),
]


@pytest.mark.parametrize("command, cfg", EASY_PLANE)
def test_mu_not_negative_is_config_error(tmp_path, command, cfg):
    code, _ = run_cli(tmp_path, command, cfg)
    assert code == 2


class TestCliMelnikov:
    def test_kernel_emitted(self, tmp_path):
        code, out = run_cli(tmp_path, "melnikov", dict(BASE, h=0.5))
        assert code == 0
        doc = json.loads((out / "melnikov.json").read_text())
        assert doc["kernel_per_unit_ccp"][0] == pytest.approx(-0.00283744,
                                                              abs=1e-6)

    def test_wrong_regime_is_solver_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "melnikov", dict(BASE, h=50.0))
        assert code == 3

    def test_classifies_once(self, tmp_path, monkeypatch):
        """The regime, s0 and the integrals written come from the splitting
        matrix, which classifies the wall once."""
        import dwlab.melnikov
        regimes = []
        classify = dwlab.melnikov.classify_regime

        def counted(mp):
            regimes.append(classify(mp))
            return regimes[-1]
        monkeypatch.setattr(dwlab.melnikov, "classify_regime", counted)
        monkeypatch.setattr(dwlab.cli, "classify_regime", counted)
        code, out = run_cli(tmp_path, "melnikov", dict(BASE, h=0.5))
        assert code == 0 and len(regimes) == 1
        doc = json.loads((out / "melnikov.json").read_text())
        sm = dwlab.melnikov.splitting_matrix(
            MaterialParams(alpha=BASE["alpha"], beta=BASE["beta"],
                           mu=BASE["mu"], h=0.5))
        assert doc["s0"] == regimes[0].s0 == sm.regime.s0
        assert doc["integrals"] == dict(zip(("i_c", "i_s", "i_cc", "i_cs"),
                                            sm.integrals.as_tuple()))

    def test_evaluates_the_integrals_once(self, tmp_path, monkeypatch):
        """The determinant identity reads the splitting matrix's integrals
        instead of evaluating the closed forms again."""
        import dwlab.melnikov
        calls = []
        closed = dwlab.melnikov.melnikov_integrals_closed

        def counted(*args):
            calls.append(args)
            return closed(*args)
        monkeypatch.setattr(dwlab.melnikov, "melnikov_integrals_closed",
                            counted)
        code, out = run_cli(tmp_path, "melnikov", dict(BASE, h=0.5))
        assert code == 0 and len(calls) == 1
        doc = json.loads((out / "melnikov.json").read_text())
        alpha, mu, s0 = calls[0]
        lhs, rhs = dwlab.melnikov.determinant_identity_check(
            alpha, mu, s0, closed(alpha, mu, s0))
        assert doc["determinant_identity"] == {"lhs": lhs, "rhs": rhs}


#: h = beta/alpha, where alpha*h - beta is exactly 0, -1 ulp and +1 ulp
ZERO_SPEED_EDGES = [
    {"alpha": a, "beta": b, "mu": -1.0, "h": h}
    for a, b, h in ((0.5, 0.1, 0.2),
                    (0.8253089398651224, 1.0, 1.0 / 0.8253089398651224),
                    (0.3, 0.7, 0.7 / 0.3))
]


@pytest.mark.parametrize("cfg", ZERO_SPEED_EDGES)
def test_zero_speed_edge(tmp_path, cfg):
    """classify and melnikov both accept the s0 = 0 edge of the codim-2
    regime and report exactly s0 = 0."""
    code, out = run_cli(tmp_path / "c", "classify", cfg)
    assert code == 0
    doc = json.loads((out / "classify.json").read_text())
    assert doc["regime"] == "codim2" and doc["s0"] == 0.0
    assert not doc["reflected"]
    code, out = run_cli(tmp_path / "m", "melnikov", cfg)
    assert code == 0
    doc = json.loads((out / "melnikov.json").read_text())
    assert doc["s0"] == 0.0
    assert doc["determinant_identity"] is None


def test_classify_left_moving_wall(tmp_path):
    """At h = 0.1 < beta/alpha the wall moves left at s = -0.04.  classify
    reports the reflected wall: s0 = 0.04, and end-state eigenvalues whose
    imaginary parts are +/- s0 exactly."""
    code, out = run_cli(tmp_path, "classify", dict(BASE, h=0.1))
    assert code == 0
    doc = json.loads((out / "classify.json").read_text())
    assert doc["reflected"] and doc["regime"] == "codim2"
    s0 = doc["s0"]
    assert s0 == pytest.approx(0.04, abs=1e-15)
    for chart in ("zero_chart", "pi_chart"):
        assert [e["im"] for e in doc["eigenvalues"][chart]] == [s0, -s0, 0.0]


class TestCliContinue:
    CFG = dict(BASE, h=0.5, cont="c_cp", target=0.1, L=20.0, n_mesh=60,
               collocation_order=3)

    def test_reaches_target(self, tmp_path):
        code, out = run_cli(tmp_path, "continue", self.CFG)
        assert code == 0
        branch = json.loads((out / "branch.json").read_text())
        assert branch["terminated"] == "reached_target"
        prof = json.loads((out / "profile.json").read_text())
        assert prof["material"]["c_cp"] == pytest.approx(0.1)

    def test_serializes_the_profile_once(self, tmp_path, monkeypatch):
        """profile.json's bytes are serialized once, and branch.json
        records their digest."""
        import dwlab.runio
        profiles = []
        dumps = dwlab.runio.dumps_json

        def counted(obj):
            if isinstance(obj, dict) and obj.get("schema") == "profile/1":
                profiles.append(obj)
            return dumps(obj)
        monkeypatch.setattr(dwlab.runio, "dumps_json", counted)
        code, out = run_cli(tmp_path, "continue", self.CFG)
        assert code == 0 and len(profiles) == 1
        branch = json.loads((out / "branch.json").read_text())
        digest = sha256_bytes((out / "profile.json").read_bytes())
        assert [pt["profile_sha256"] for pt in branch["points"]] == (
            [None] * (len(branch["points"]) - 1) + [digest])

    def test_unreachable_target_is_solver_error(self, tmp_path):
        """The branch toward c_cp = 0.999 fails before it gets there."""
        cfg = dict(self.CFG, target=0.999, step0=0.05)
        code, _ = run_cli(tmp_path, "continue", cfg)
        assert code == 3

    def test_records_the_far_state_distance(self, tmp_path):
        """Every branch point and the profile say how far the ends lie
        from the far states theta = 0 and pi."""
        code, out = run_cli(tmp_path, "continue", self.CFG)
        assert code == 0
        branch = json.loads((out / "branch.json").read_text())
        prof = json.loads((out / "profile.json").read_text())
        far = [pt["diagnostics"]["far_state_distance"]
               for pt in branch["points"]]
        assert far[-1] == prof["diagnostics"]["far_state_distance"]
        theta = [row[0] for row in prof["states"]]
        assert far[-1] == {"left": abs(theta[0]),
                           "right": abs(math.pi - theta[-1])}

    def test_seed_profile_round_trip(self, tmp_path):
        code, out = run_cli(tmp_path / "first", "continue", self.CFG)
        assert code == 0
        cfg2 = dict(self.CFG, c_cp=0.1, target=0.2)
        code2, out2 = run_cli(
            tmp_path / "second", "continue", cfg2,
            extra=["--seed-profile", str(out / "profile.json")])
        assert code2 == 0
        prof = json.loads((out2 / "profile.json").read_text())
        assert prof["material"]["c_cp"] == pytest.approx(0.2)

    def test_start_on_the_target(self, tmp_path):
        code, out = run_cli(tmp_path, "continue", dict(self.CFG, target=0.0))
        assert code == 0
        branch = json.loads((out / "branch.json").read_text())
        assert branch["terminated"] == "reached_target"
        assert len(branch["points"]) == 1
        prof = json.loads((out / "profile.json").read_text())
        assert prof["material"]["c_cp"] == 0.0

    @pytest.mark.parametrize("h, cont, target", [(10.2, "omega", 8.3),
                                                 (0.5, "s", 0.2)])
    def test_parameter_the_regime_determines_is_config_error(
            self, tmp_path, h, cont, target):
        """The center regime slaves omega; codim-2 frees s."""
        cfg = dict(self.CFG, h=h, cont=cont, target=target)
        code, _ = run_cli(tmp_path, "continue", cfg)
        assert code == 2

    def test_flat_constrained_is_unknown_key(self, tmp_path):
        cfg = dict(self.CFG, h=10.2, flat_constrained=True)
        code, _ = run_cli(tmp_path, "continue", cfg)
        assert code == 2


@pytest.mark.parametrize("command, cfg", [
    ("melnikov", dict(BASE, h=0.1)),
    ("continue", dict(TestCliContinue.CFG, h=0.1))])
def test_left_moving_wall_is_solver_error(tmp_path, capsys, command, cfg):
    """A left-moving wall (h < beta/alpha) has neither a splitting matrix
    nor a boundary-value system: the run exits 3 with OrientationError and
    leaves no output directory."""
    capsys.readouterr()
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 3
    assert "OrientationError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg", [("classify", BASE),
                                          ("continue", TestCliContinue.CFG)])
def test_seed_profile_is_config_error(tmp_path, command, cfg):
    """The flag belongs to continue only, and continue needs a readable
    profile."""
    code, _ = run_cli(tmp_path, command, cfg,
                      extra=["--seed-profile", str(tmp_path / "none.json")])
    assert code == 2


@pytest.fixture(scope="module")
def seed_doc(tmp_path_factory):
    """A profile that continue wrote on the small mesh of TestCliContinue."""
    code, out = run_cli(tmp_path_factory.mktemp("seed"), "continue",
                        TestCliContinue.CFG)
    assert code == 0
    return json.loads((out / "profile.json").read_text())


def _without_omega(doc):
    doc = json.loads(json.dumps(doc))
    del doc["diagnostics"]["free_scalars"]["omega"]
    return doc


def _without_free_scalars(doc):
    doc = json.loads(json.dumps(doc))
    del doc["diagnostics"]["free_scalars"]
    return doc


def _bad_s(value):
    """A seed whose free scalar s is ``value``."""
    def make(doc):
        doc = json.loads(json.dumps(doc))
        doc["diagnostics"]["free_scalars"]["s"] = value
        return doc
    return make


#: case -> (seed made from a valid one, run config, message fragments)
BAD_SEEDS = {
    "schema-only": (lambda doc: {"schema": "profile/1"},
                    TestCliContinue.CFG, ["material"]),
    "mu-not-negative": (
        lambda doc: {**doc, "material": {**doc["material"], "mu": 0.5}},
        TestCliContinue.CFG, ["mu < 0"]),
    "material-bool": (
        lambda doc: {**doc, "material": {**doc["material"], "h": True}},
        TestCliContinue.CFG, ["seed profile material h", "got true"]),
    "frame-bool": (
        lambda doc: {**doc, "frame": {**doc["frame"], "s": True}},
        TestCliContinue.CFG, ["seed profile frame s", "got true"]),
    "free-scalar-missing": (_without_omega, TestCliContinue.CFG, ["omega"]),
    "free-scalars-absent": (_without_free_scalars, TestCliContinue.CFG,
                            ["lacks the codim2 regime's free scalar(s) s, "
                             "omega"]),
    "free-scalars-not-object": (
        lambda doc: {**doc, "diagnostics": {**doc["diagnostics"],
                                            "free_scalars": 5}},
        TestCliContinue.CFG, ["free_scalars must be a JSON object, got 5"]),
    "free-scalar-text": (_bad_s("x"), TestCliContinue.CFG,
                         ['free scalar s must be a finite number, got "x"']),
    "free-scalar-numeric-text": (_bad_s("0.1"), TestCliContinue.CFG,
                                 ["free scalar s", 'got "0.1"']),
    "free-scalar-bool": (_bad_s(True), TestCliContinue.CFG,
                         ["free scalar s", "got true"]),
    "free-scalar-nan": (_bad_s(math.nan), TestCliContinue.CFG,
                        ["free scalar s", "got NaN"]),
    "other-mesh": (lambda doc: doc,
                   dict(BASE, h=0.5, cont="c_cp", target=0.1),
                   ["181 nodes", "641 nodes"]),
}


@pytest.mark.parametrize("case", sorted(BAD_SEEDS))
def test_bad_seed_profile_is_config_error(tmp_path, capsys, seed_doc, case):
    """A seed must be a whole profile of a wall material (mu < 0) on the
    run's mesh, with a finite number for every material and frame value
    and every free scalar of its regime."""
    make, cfg, fragments = BAD_SEEDS[case]
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps(make(seed_doc)))
    capsys.readouterr()
    code, out = run_cli(tmp_path, "continue", cfg,
                        extra=["--seed-profile", str(seed)])
    err = capsys.readouterr().err
    assert code == 2
    assert not out.exists()
    assert err.startswith("config error:") and err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


class TestCliStabilityMap:
    CFG = {"alpha": 0.5, "beta": 0.1, "mu": -1.0, "h_min": -2.0,
           "h_max": 12.0, "n_h": 15, "ccp_min": -0.9, "ccp_max": 0.9,
           "n_ccp": 7}

    def test_same_file_for_every_thread_count(self, tmp_path):
        """--threads is accepted and changes nothing."""
        data = []
        for i, extra in enumerate(([], ["--threads", "1"],
                                   ["--threads", "2"])):
            code, out = run_cli(tmp_path / str(i), "stability-map", self.CFG,
                                extra=extra)
            assert code == 0
            data.append((out / "stability_map.csv").read_bytes())
        assert data[0] == data[1] == data[2]
        assert len(data[0].decode().splitlines()) == 1 + 15 * 7

    def test_spells_each_grid_number_once(self, tmp_path, monkeypatch):
        """The map spells each of its n_h + n_ccp grid values once, not once
        per cell, builds each grid material without MaterialParams.replace,
        and writes the bytes of the per-cell writer."""
        spelled, replaced = [], []

        def counting_fmt(x):
            spelled.append(x)
            return fmt(x)

        def counting_write_csv(path, header, rows):
            # a cell handed to the writer that is not text is spelled there;
            # the rows may come as a generator, read once
            rows = list(rows)
            spelled.extend(v for row in rows for v in row
                           if not isinstance(v, str))
            return write_csv(path, header, rows)

        replace = MaterialParams.replace

        def counting_replace(mp, **kw):
            replaced.append(kw)
            return replace(mp, **kw)
        monkeypatch.setattr(dwlab.cli, "fmt", counting_fmt, raising=False)
        monkeypatch.setattr(dwlab.cli, "write_csv", counting_write_csv)
        monkeypatch.setattr(MaterialParams, "replace", counting_replace)
        code, out = run_cli(tmp_path, "stability-map", self.CFG)
        assert code == 0
        assert len(spelled) <= self.CFG["n_h"] + self.CFG["n_ccp"]
        assert replaced == []
        cfg = self.CFG
        rows = [(h, c, dwlab.cli._verdict(MaterialParams(
                    cfg["alpha"], cfg["beta"], cfg["mu"], h, c)).region)
                for h in np.linspace(cfg["h_min"], cfg["h_max"],
                                     cfg["n_h"]).tolist()
                for c in np.linspace(cfg["ccp_min"], cfg["ccp_max"],
                                     cfg["n_ccp"]).tolist()]
        assert (out / "stability_map.csv").read_bytes() == reference_csv(
            ["h", "c_cp", "region"], rows)

    @pytest.mark.parametrize("change", [{"ccp_max": 1.0}, {"ccp_min": -1.0},
                                        {"h_max": float("inf")},
                                        {"n_h": 0}, {"n_ccp": 0}])
    def test_invalid_grid_is_config_error(self, tmp_path, change):
        code, _ = run_cli(tmp_path, "stability-map", {**self.CFG, **change})
        assert code == 2


class TestCliShootAndFreeze:
    def test_shoot(self, tmp_path):
        code, out = run_cli(tmp_path, "shoot", dict(BASE, h=0.5))
        assert code == 0
        doc = json.loads((out / "shoot.json").read_text())
        assert doc["tail"] == "flat"

    def test_shot_resamples_only_what_it_reads(self, tmp_path, monkeypatch):
        """A shot evaluates its dense output at the 2000 samples of the tail
        window and the 4001 rows of trajectory.csv, not at all 8000 uniform
        samples."""
        points = []
        at = dwlab.shooting.Trajectory.at

        def counting_at(traj, xi):
            points.append(np.size(xi))
            return at(traj, xi)
        monkeypatch.setattr(dwlab.shooting.Trajectory, "at", counting_at)
        code, _ = run_cli(tmp_path, "shoot", dict(BASE, h=0.5))
        assert code == 0
        assert sum(points) <= 2000 + 4001

    def test_shoot_zero_speed_edge(self, tmp_path):
        """At h = beta/alpha the wall stands (s = 0), and label [1] of the
        theta = 0 equilibria is the transversally stable root z = -1.  The
        shot starts from the unstable root z = 1 and follows the standing
        wall p = 1, q = 0 to the pi chart; it exited 3 from [1]."""
        code, out = run_cli(tmp_path, "shoot", dict(BASE, h=0.2))
        assert code == 0
        doc = json.loads((out / "shoot.json").read_text())
        assert doc["tail"] == "flat" and doc["s"] == 0.0
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert rows[-1, 1] > math.pi - 1e-3
        assert np.max(np.abs(rows[:, 2] - 1.0)) < 1e-12
        assert np.max(np.abs(rows[:, 3])) < 1e-12

    def test_freeze_polarized(self, tmp_path):
        """The initial frame estimate comes from the unpolarized wall, so a
        run at c_cp != 0 starts."""
        cfg = dict(BASE, h=0.5, c_cp=0.5, T=0.01)
        code, out = run_cli(tmp_path, "freeze", cfg)
        assert code == 0
        doc = json.loads((out / "freeze.json").read_text())
        assert math.isfinite(doc["asymptotic_s"])

    def test_freeze_short(self, tmp_path):
        cfg = dict(BASE, h=0.5, T=0.05, dt=1e-3, n_nodes=256, Lx=20.0)
        code, out = run_cli(tmp_path, "freeze", cfg)
        assert code == 0
        doc = json.loads((out / "freeze.json").read_text())
        assert doc["terminated"] == "reached_T"
        assert doc["asymptotic_s"] == pytest.approx(0.12, abs=5e-3)
        assert (out / "freeze.csv").exists()
        assert (out / "terminal_profile.csv").exists()

    def test_freeze_stops_when_the_far_state_is_lost(self, tmp_path):
        """At h = 50 on the 2048-node grid the right end leaves -e3 near
        t = 19.3 (|m_perp| there grows about e^(20 t)).  The run stops at
        the first step past FAR_STATE_BOUND, writes its three files and
        exits 3; every record precedes the loss, and the asymptotic frame
        is that of the front before it, near the grid's pulled-front
        prediction (14.6692, 90.1346).  Averaged across the collapse, as
        it was before the guard, s read 12.154."""
        cfg = dict(BASE, h=50.0, n_nodes=2048, T=20.0)
        code, out = run_cli(tmp_path, "freeze", cfg)
        assert code == 3
        doc = json.loads((out / "freeze.json").read_text())
        assert doc["terminated"] == "far_state_lost"
        rows = np.loadtxt(out / "freeze.csv", delimiter=",", skiprows=1)
        assert 19.0 < rows[-1, 0] < 19.5
        n = round(0.1 * len(rows))
        assert doc["asymptotic_s"] == np.mean(rows[-n:, 1])
        assert doc["asymptotic_s"] == pytest.approx(14.6692, abs=0.01)
        assert doc["asymptotic_omega"] == pytest.approx(90.1346, abs=0.1)
        m = np.loadtxt(out / "terminal_profile.csv", delimiter=",",
                       skiprows=1)[:, 4:7]
        assert math.hypot(*m[-1, :2]) > FAR_STATE_BOUND
        assert not (out / "manifest.json").exists()

    def test_terminal_profile_p_is_the_walls(self, tmp_path):
        """At c_cp = 0 the wall has p = sqrt(-mu) = 1 at every node.  On the
        wall core |m3| < 0.9 the written p, a central difference on
        dx = 40/255, lies within 0.02 of it (0.010 measured)."""
        cfg = dict(BASE, h=0.5, T=0.05, dt=1e-3, n_nodes=256, Lx=20.0)
        code, out = run_cli(tmp_path, "freeze", cfg)
        assert code == 0
        rows = np.loadtxt(out / "terminal_profile.csv", delimiter=",",
                          skiprows=1)
        core = np.abs(rows[:, 6]) < 0.9
        assert np.count_nonzero(core) >= 10
        assert np.max(np.abs(rows[core, 2] - math.sqrt(-BASE["mu"]))) < 0.02


def test_center_solves_the_base_wall_once(tmp_path, monkeypatch):
    """A sweep continues to every value from one base center wall; the
    rows ascend whatever the order of the values."""
    solves = []

    def counting(*args, **kwargs):
        solves.append(args)
        return solve_regime(*args, **kwargs)
    monkeypatch.setattr(dwlab.cli, "solve_regime", counting)
    cfg = {"alpha": 0.5, "beta": 0.1, "mu": -1.0, "sweep": "h",
           "values": [10.25, 10.15, 10.2], "L": 20.0, "n_mesh": 60,
           "collocation_order": 3}
    code, out = run_cli(tmp_path, "center", cfg)
    assert code == 0
    assert len(solves) == 1
    rows = np.loadtxt(out / "center_sweep.csv", delimiter=",", skiprows=1)
    assert list(rows[:, 0]) == [10.15, 10.2, 10.25]
    doc = json.loads((out / "center.json").read_text())
    assert set(doc["terminations"].values()) == {"reached_target"}


#: a valid config per command; every key the table allows is then replaced
#: by a bad value in turn
VALID = {
    "classify": BASE,
    "stability-map": {"alpha": 0.5, "beta": 0.1, "mu": -1.0},
    "melnikov": dict(BASE, h=0.5),
    "center": {"alpha": 0.5, "beta": 0.1, "mu": -1.0, "sweep": "h",
               "values": [10.2]},
    "shoot": dict(BASE, h=0.5),
    "continue": dict(BASE, h=0.5, cont="c_cp", target=0.1),
    "freeze": dict(BASE, h=0.5, T=0.01),
}

BAD_VALUES = [(command, key, bad)
              for command, table in _TABLES.items()
              for key, (kind, _, _) in table.items()
              for bad in ("x", True, float("nan"))
              + ((2.5,) if kind == INTEGER else ())]


def assert_config_error(tmp_path, capsys, command, cfg):
    """Exit 2 with a one-line config error, before anything is written."""
    code, out = run_cli(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_valid_configs_pass(tmp_path):
    assert set(_TABLES) == set(VALID)
    for command, cfg in VALID.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        raw, typed = _load_config(command, path)
        assert raw == cfg and set(typed) == set(_TABLES[command])


@pytest.mark.parametrize("command, key, bad", BAD_VALUES)
def test_every_key_rejects_a_bad_value(tmp_path, capsys, command, key, bad):
    assert_config_error(tmp_path, capsys, command,
                        {**VALID[command], key: bad})


#: configs that exited 0, 1 or 3, or hung, before the table checked them
#: (base material alpha 0.5, beta 0.1, mu -1); each now exits 2
REJECTED = [
    pytest.param("freeze", dict(h=0.5, T=0.05, dt=0.01, n_nodes=2048),
                 id="freeze-dt-above-dt-max"),
    pytest.param("stability-map", dict(h_min="x"), id="map-h_min-string"),
    pytest.param("stability-map", dict(n_h="x"), id="map-n_h-string"),
    pytest.param("freeze", dict(h=0.5, T="x"), id="freeze-T-string"),
    pytest.param("continue", dict(h=0.5, cont="c_cp", target="x"),
                 id="continue-target-string"),
    pytest.param("continue", dict(h=0.5, cont="c_cp", target=0.1, L="x"),
                 id="continue-L-string"),
    pytest.param("center", dict(sweep="h", values=[10.2], step0="x"),
                 id="center-step0-string"),
    pytest.param("center", dict(sweep="h", values=["x"]),
                 id="center-values-string"),
    pytest.param("shoot", dict(h=0.5, epsilon="x"), id="shoot-epsilon-string"),
    pytest.param("classify", dict(h="0.5"), id="classify-h-string-number"),
    pytest.param("center", dict(sweep="h", values=5),
                 id="center-values-number"),
    pytest.param("freeze", dict(h=0.5, T=float("inf")),
                 id="freeze-T-infinite"),
    pytest.param("freeze", dict(h=0.5, T=0.01, Lx=0.0), id="freeze-Lx-zero"),
    pytest.param("freeze", dict(h=0.5, T=0.01, n_nodes=1),
                 id="freeze-one-node"),
    pytest.param("freeze", dict(h=0.5, T=0.01, Lx=-100.0),
                 id="freeze-Lx-negative"),
    pytest.param("stability-map", dict(n_h=2.5), id="map-n_h-fraction"),
    pytest.param("freeze", dict(h=0.5, T=0.01, n_nodes=256.7),
                 id="freeze-n_nodes-fraction"),
    pytest.param("shoot", dict(h=0.5, epsilon=-1.0),
                 id="shoot-epsilon-negative"),
    pytest.param("shoot", dict(h=0.5, tol=0.0), id="shoot-tol-zero"),
    pytest.param("continue", dict(h=0.5, cont="c_cp", target=float("nan"),
                                  L=20.0, n_mesh=60, collocation_order=3),
                 id="continue-target-nan"),
    pytest.param("continue", dict(h=0.5, cont="c_cp", target=1.5),
                 id="continue-c_cp-target-outside-material"),
    pytest.param("center", dict(sweep="c_cp", values=[0.05, 1.0]),
                 id="center-c_cp-value-outside-material"),
    pytest.param("center", dict(sweep="h", values=[10.2, 10.2]),
                 id="center-values-repeated"),
    pytest.param("continue", dict(h=0.5, cont="c_cp", target=0.1, step0=0),
                 id="continue-step0-zero"),
    pytest.param("center", dict(sweep="h", values=[10.2], step0=0),
                 id="center-step0-zero"),
    pytest.param("freeze", dict(h=0.5, T=-1.0, dt=0.1, n_nodes=256),
                 id="freeze-no-step"),
    pytest.param("shoot", dict(h=0.5, s=0.1), id="shoot-s-without-omega"),
    pytest.param("stability-map", dict(h_min=-1e308, h_max=1e308),
                 id="map-h-range-overflows"),
]


@pytest.mark.parametrize("command, change", REJECTED)
def test_rejected_config(tmp_path, capsys, command, change):
    cfg = {"alpha": 0.5, "beta": 0.1, "mu": -1.0, **change}
    assert_config_error(tmp_path, capsys, command, cfg)


def test_integral_float_is_an_integer(tmp_path):
    """256.0 is the integer 256 and gives the same files as 256."""
    cfg = dict(BASE, h=0.5, T=0.01, dt=1e-3, Lx=20.0)
    code_a, out_a = run_cli(tmp_path / "a", "freeze", dict(cfg, n_nodes=256))
    code_b, out_b = run_cli(tmp_path / "b", "freeze",
                            dict(cfg, n_nodes=256.0))
    assert code_a == code_b == 0
    for name in ("freeze.csv", "freeze.json", "terminal_profile.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["config"]["n_nodes"] == 256.0


def test_freeze_step_at_its_limit(tmp_path):
    """dt is bounded on the grid's rounded spacing, as the stepper checks it;
    on this grid dt_max at 2 Lx/(n_nodes - 1) itself lies above that."""
    dt = dt_max(grid_spacing(20.0, 200), 0.5)
    assert dt < dt_max(2 * 20.0 / 199, 0.5)
    cfg = dict(BASE, h=0.5, T=dt, dt=dt, Lx=20.0, n_nodes=200)
    assert run_cli(tmp_path / "at", "freeze", cfg)[0] == 0
    above = math.nextafter(dt, 1.0)
    cfg = dict(cfg, T=above, dt=above)
    assert run_cli(tmp_path / "above", "freeze", cfg)[0] == 2


def readme_keys():
    """(key, commands, kind, default) per row of the README's key table."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \| ([^|]+) \|",
                      text, flags=re.MULTILINE)
    return [(key, [c.strip() for c in commands.split(",")], kind.strip(),
             default.strip()) for key, commands, kind, default in rows]


def test_readme_quick_start_runs():
    """The README's library example runs as printed."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", text,
                      flags=re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["branch"].terminated == "reached_target"


def test_readme_table_matches_the_code():
    kinds = {NUMBER: "number", INTEGER: "integer", NUMBERS: "number list"}
    documented = {}
    for key, commands, kind, default in readme_keys():
        for command in (list(_TABLES) if commands == ["all"] else commands):
            documented[command, key] = (kind, default)
    assert set(documented) == {(c, k) for c, t in _TABLES.items() for k in t}
    for command, table in _TABLES.items():
        for key, (kind, default, _) in table.items():
            doc_kind, doc_default = documented[command, key]
            assert doc_kind == kinds.get(kind) or \
                doc_kind == "one of " + ", ".join(kind)
            if default is REQUIRED:
                assert doc_default == "required"
            elif default is None:
                assert doc_default == "—"
            else:
                assert float(doc_default) == default
