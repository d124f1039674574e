"""Serialization and CLI tests: deterministic formatting, profile round
trips, manifests, exit codes, and config validation."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dwlab import (BvpConfig, MaterialParams, Profile, WaveFrame,
                   classify_regime, build_bvp, solve_regime)
from dwlab.cli import (INTEGER, NUMBER, NUMBERS, REQUIRED, _TABLES,
                       _load_config, main)
from dwlab.freezing import dt_max, grid_spacing
from dwlab.runio import (dumps_json, fmt, manifest_entry, profile_from_dict,
                         profile_rows, profile_to_dict, sha256_bytes,
                         write_csv, write_json)


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


class TestCsv:
    def test_lf_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        data = write_csv(path, ["a", "b"], [[1.0, 2.0], [0.5, float("nan")]])
        assert data == path.read_bytes()
        assert b"\r" not in data
        assert data.decode().splitlines()[0] == "a,b"
        assert "NaN" in data.decode()


class TestManifestEntry:
    def test_hash_matches_content(self):
        data = b"hello\n"
        e = manifest_entry("f.txt", data)
        assert e["bytes"] == 6
        assert e["sha256"] == sha256_bytes(data)


@pytest.fixture(scope="module")
def profile():
    mp = MaterialParams(alpha=0.5, beta=0.1, mu=-1.0, h=0.5, c_cp=0.0)
    reg = classify_regime(mp)
    wf = WaveFrame(s=reg.s0, omega=reg.omega0)
    bvp = build_bvp(reg, mp, wf, BvpConfig(L=20.0, n_mesh=60,
                                           collocation_order=3))
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

    def test_unreachable_target_is_solver_error(self, tmp_path):
        """The branch toward c_cp = 0.999 fails before it gets there."""
        cfg = dict(self.CFG, target=0.999, step0=0.05)
        code, _ = run_cli(tmp_path, "continue", cfg)
        assert code == 3

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


#: case -> (seed made from a valid one, run config, message fragments)
BAD_SEEDS = {
    "schema-only": (lambda doc: {"schema": "profile/1"},
                    TestCliContinue.CFG, ["material"]),
    "mu-not-negative": (
        lambda doc: {**doc, "material": {**doc["material"], "mu": 0.5}},
        TestCliContinue.CFG, ["mu < 0"]),
    "free-scalar-missing": (_without_omega, TestCliContinue.CFG, ["omega"]),
    "other-mesh": (lambda doc: doc,
                   dict(BASE, h=0.5, cont="c_cp", target=0.1),
                   ["181 nodes", "1601 nodes"]),
}


@pytest.mark.parametrize("case", sorted(BAD_SEEDS))
def test_bad_seed_profile_is_config_error(tmp_path, capsys, seed_doc, case):
    """A seed must be a whole profile of a wall material (mu < 0) on the
    run's mesh, with a value for every free scalar of its regime."""
    make, cfg, fragments = BAD_SEEDS[case]
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps(make(seed_doc)))
    capsys.readouterr()
    code, _ = run_cli(tmp_path, "continue", cfg,
                      extra=["--seed-profile", str(seed)])
    err = capsys.readouterr().err
    assert code == 2
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
        assert doc["asymptotic_s"] == pytest.approx(0.12, abs=5e-3)
        assert (out / "freeze.csv").exists()
        assert (out / "terminal_profile.csv").exists()


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
