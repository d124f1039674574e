"""Serialization and CLI tests: deterministic formatting, profile round
trips, manifests, exit codes, and config validation."""

import json
import math

import numpy as np
import pytest

from dwlab import (BvpConfig, MaterialParams, Profile, WaveFrame,
                   classify_regime, build_bvp, solve_regime)
from dwlab.cli import main
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
        code, _ = run_cli(tmp_path, "continue", dict(self.CFG, target=1.5))
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
