import json
import os

import numpy as np
import pytest

from phasekit.cli import main
from phasekit.config import (build_bn_initial, build_family, build_nsk_initial,
                             build_params, guard_rails, parse_config)
from phasekit.eos import PolytropicEOS
from phasekit.errors import ConfigError
from phasekit.io import read_diagnostics
from phasekit.nsk import PhysicalParams, check_profile

MINIMAL = """
[grid]
n = 64

[time]
dt = 5e-4
t_end = 0.01
snapshot_every = 5
"""

POLY_SMOOTH = MINIMAL + """
[physics]
mu = 0.1
kappa = 0.02
gamma = 1.0

[eos]
type = polytropic
a = 1.0
beta = 2.0

[init]
profile = constant
rho0 = 1.2
"""


def test_minimal_config_fills_defaults():
    config = parse_config(MINIMAL)
    assert config["grid"]["n"] == 64
    assert config["physics"]["mu"] == 0.1
    assert config["eos"]["type"] == "van_der_waals"
    assert config["harness"]["n_list"] == [2, 4]


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("[physics]\nmu = 0.1\nviscosity = 2\n", path="run.cfg")
    assert "run.cfg:3" in str(exc.value)
    assert "viscosity" in str(exc.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("[fluid]\nmu = 1\n")
    assert "[fluid]" in str(exc.value)


def test_negative_gamma_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("[physics]\ngamma = -1\n")
    assert "gamma" in str(exc.value)


def test_nonincreasing_n_list_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("[harness]\nn_list = 8, 4\n")
    assert str(exc.value).endswith(
        ": [harness].n_list must be strictly increasing, got [8, 4]")


# a value the loader refuses through the rule's owner: config text, the
# loader's section prefix and the owner's call on the same value
OWNED_RULES = {
    "theta-zero": ("[init]\ntheta = 0\n", "[init].",
                   lambda: check_profile(0.0, 0.1, 4)),
    "theta-one": ("[init]\ntheta = 1\n", "[init].",
                  lambda: check_profile(1.0, 0.1, 4)),
    "delta-negative": ("[init]\ndelta = -0.1\n", "[init].",
                       lambda: check_profile(0.5, -0.1, 4)),
    "delta-over-theta": ("[init]\ntheta = 0.3\ndelta = 0.35\n", "[init].",
                         lambda: check_profile(0.3, 0.35, 4)),
    "n-osc-zero": ("[init]\nn_osc = 0\n", "[init].",
                   lambda: check_profile(0.5, 0.1, 0)),
    "mu-zero": ("[physics]\nmu = 0\n", "[eos]/[physics]: ",
                lambda: PhysicalParams(0.0, 0.1, PolytropicEOS(1.0, 2.0, 1.0))),
    "kappa-negative": ("[physics]\nkappa = -1\n", "[eos]/[physics]: ",
                       lambda: PhysicalParams(0.1, -1.0,
                                              PolytropicEOS(1.0, 2.0, 1.0))),
}


@pytest.mark.parametrize("case", OWNED_RULES)
def test_loader_refuses_with_the_owners_message(case):
    text, prefix, owner = OWNED_RULES[case]
    with pytest.raises(ValueError) as owned:
        owner()
    with pytest.raises(ConfigError) as loaded:
        parse_config(text, path="run.cfg")
    assert str(loaded.value) == f"run.cfg: {prefix}{owned.value}"


def test_bad_value_reports_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("[grid]\nn = sixty-four\n", path="x.cfg")
    assert "x.cfg:2" in str(exc.value)


def test_round_trip_through_dict(config_text):
    config = parse_config(POLY_SMOOTH)
    payload = json.loads(json.dumps(config))
    assert parse_config(config_text(payload)) == config


def test_guard_rails_from_m0():
    config = parse_config("[bounds]\nm0 = 2.0\n")
    lo, hi = guard_rails(config)
    assert lo == 0.25 and hi == 4.0


def test_builders(tmp_path):
    config = parse_config(POLY_SMOOTH)
    params = build_params(config)
    assert isinstance(params.eos, PolytropicEOS)
    state = build_nsk_initial(config, params)
    assert np.allclose(state.rho, 1.2)
    bn_state = build_bn_initial(config, params)
    assert np.allclose(bn_state.alpha_p, 1.0)
    # the family is built from the two-value profile, not from rho0
    family = build_family(parse_config(
        POLY_SMOOTH.replace("n = 64", "n = 256").replace(
            "profile = constant", "profile = two_value")))
    assert family.n_list == (2, 4)
    with pytest.raises(ConfigError, match=r"\[init\]\.profile"):
        build_family(config)
    # the velocity is u0 + u0_amp sin(2 pi u0_mode x) for a negative mode too
    config = parse_config(POLY_SMOOTH + "u0 = 0.5\nu0_mode = -2\nu0_amp = 1\n")
    x = np.arange(64) / 64
    assert np.allclose(build_nsk_initial(config, params).u,
                       0.5 - np.sin(4 * np.pi * x), rtol=0.0, atol=1e-15)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# values refused at load, naming the file and the section: the first four
# only the grid, the pressure law or the solver settings check, no float
# may be nan or infinite, m0 = 0 is refused before the rails divide by it,
# and no key may be set twice
REFUSED_AT_LOAD = [
    ("[bounds]", "[bounds]\nm0 = 0.5\n"),    # rails (1, 1)
    ("[eos]", "[eos]\nA = -1\n"),
    ("[eos]", "[eos]\ntype = polytropic\nbeta = 1.5\n"),
    ("[harness]", "[harness]\nupwind = -1\n"),
    ("[time]", "[time]\nt_end = inf\n"),
    ("[time]", "[time]\ndt = nan\n"),
    ("[init]", "[init]\nu0 = nan\n"),
    ("[bounds]", "[bounds]\nm0 = 0\n"),
    ("[physics]", "[physics]\nmu = 0.1\nmu = 0.2\n"),
    # an empty list entry is refused, not skipped
    ("[harness].n_list", "[harness]\nn_list = 4,, 8\n"),
    ("[harness].n_list", "[harness]\nn_list = 4, 8,\n"),
    ("[harness].n_list", "[harness]\nn_list = ,4\n"),
    ("[harness].n_list must not be empty", "[harness]\nn_list =\n"),
]


def test_cli_config_error_exit_code(tmp_path):
    path = write_cfg(tmp_path, "[physics]\ngamma = -1\n")
    assert main(["check-eos", "--config", path]) == 2
    assert main(["check-eos", "--config", str(tmp_path / "missing.cfg")]) == 2
    for i, (section, text) in enumerate(REFUSED_AT_LOAD):
        path = write_cfg(tmp_path, text, f"bad{i}.cfg")
        with pytest.raises(ConfigError) as exc:
            parse_config(text, path=path)
        assert path in str(exc.value) and section in str(exc.value), text
        assert main(["check-eos", "--config", path]) == 2, text


def test_cli_check_eos_accepts_and_rejects(tmp_path, capsys):
    # B = 2.5 puts the upper rail 2 m0 = 2 inside the law's domain
    good = write_cfg(tmp_path, """
[eos]
type = van_der_waals
A = 1.0
B = 2.5
R = 1.0
T_star = 0.2

[physics]
gamma = 2.0

[bounds]
m0 = 1.0
""", "good.cfg")
    assert main(["check-eos", "--config", good]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["admissible"] is True

    bad = write_cfg(tmp_path, """
[eos]
type = van_der_waals
A = 1.0
B = 2.5
R = 1.0
T_star = 0.2

[physics]
gamma = 0.0

[bounds]
m0 = 1.0
""", "bad.cfg")
    assert main(["check-eos", "--config", bad]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["admissible"] is False
    b1, b2 = report["spinodal"]
    assert b1 < 0.3 < b2


def test_cli_simulate_nsk_outputs(tmp_path, config_text):
    cfg = write_cfg(tmp_path, POLY_SMOOTH)
    out = str(tmp_path / "run")
    assert main(["simulate-nsk", "--config", cfg, "--out", out]) == 0
    snaps = sorted(f for f in os.listdir(out) if f.startswith("snapshot"))
    assert snaps and snaps[0] == "snapshot_00000.csv"
    header = open(os.path.join(out, snaps[0])).readline().strip()
    assert header == "x,rho,u,c"
    records = read_diagnostics(os.path.join(out, "diagnostics.csv"))
    assert records.t.shape == (21,)  # one per step plus the initial record
    meta = json.loads(open(os.path.join(out, "meta.json")).read())
    assert (parse_config(config_text(meta["config"]))
            == parse_config(POLY_SMOOTH))
    assert meta["kind"] == "nsk"

    # diagnose reads the diagnostics back
    assert main(["diagnose", "--run", out]) == 0


def test_cli_simulate_bn_outputs(tmp_path):
    cfg = write_cfg(tmp_path, POLY_SMOOTH + """
[bn]
from_profile = false
alpha_p = 0.4
rho_p = 1.5
rho_m = 0.7
""")
    out = str(tmp_path / "bnrun")
    assert main(["simulate-bn", "--config", cfg, "--out", out]) == 0
    header = open(os.path.join(out, "snapshot_00000.csv")).readline().strip()
    assert header == "x,alpha_p,alpha_m,rho_p,rho_m,u,c"


RAIL_PAST_POLE = """
[grid]
n = 64

[time]
t_end = 0.2

[eos]
B = 1.7

[bounds]
m0 = 1.4

[init]
profile = constant
u0_mode = 1
u0_amp = 3
"""

# u = 1e307 sin(2 pi x): the first step overflows
BLOW_UP = """
[grid]
n = 64

[init]
profile = constant
u0_mode = 1
u0_amp = 1e307
"""

# rho_p = 2.7 near the Van der Waals pole B = 3 with mu = 1e-4: the first
# relaxation step leaves the law's domain
LAW_REFUSES_STEP = """
[physics]
mu = 1e-4

[grid]
n = 64

[time]
dt = 1e-3
t_end = 0.01
snapshot_every = 1

[bn]
from_profile = false
alpha_p = 0.5
rho_p = 2.7
rho_m = 0.4
"""

# a two-value profile reaching above the upper rail 2.8
PROFILE_OFF_RAILS = """
[grid]
n = 256
[init]
v_plus = 3.5
n_osc = 1
[harness]
n_list = 1, 2
"""

POLY_GAMMA_ZERO = POLY_SMOOTH.replace("gamma = 1.0", "gamma = 0")

# [time] dt set on line 2 and again under a repeated header on line 8
KEY_TWICE = "[time]\ndt = 1e-4\n\n[grid]\nn = 64\n\n[time]\ndt = 5e-2\n"

# one config per cause: command, config, exit code, text on stderr
EXIT_CODES = {
    "ok": ("simulate-nsk", POLY_SMOOTH, 0, ""),
    # check-eos refuses a rail past the pole as the solvers do
    "check-eos": ("check-eos", RAIL_PAST_POLE, 3,
                  "not inside the law's domain"),
    "config": ("simulate-nsk", "[physics]\ngamma = -1\n", 2, "config error"),
    # the law takes gamma = 0 and check-eos accepts it; the solvers do not
    "gamma-zero": ("simulate-nsk", POLY_GAMMA_ZERO, 2,
                   "gamma must be positive"),
    "gamma-zero-bn": ("simulate-bn", POLY_GAMMA_ZERO, 2,
                      "gamma must be positive"),
    "gamma-zero-homogenize": ("homogenize", MINIMAL + "[harness]\nn_list = 1\n"
                              "[physics]\ngamma = 0\n", 2,
                              "gamma must be positive"),
    # upper rail 2 m0 = 2.8 lies beyond the Van der Waals pole at B = 1.7
    "admissibility": ("simulate-nsk", RAIL_PAST_POLE, 3,
                      "not inside the law's domain"),
    # rails (1/1.1, 1.1) around rho0 = 1.2 fail at t = 0
    "rails": ("simulate-nsk", POLY_SMOOTH + "[bounds]\nm0 = 0.55\n", 4,
              "guard rail violated"),
    # initial data outside the rails fails the run loop's check at t = 0
    # under every command; a family stops in its two-phase run
    "profile-rails-nsk": ("simulate-nsk", PROFILE_OFF_RAILS, 4,
                          "range [0.8, 3.5] outside"),
    "profile-rails-bn": ("simulate-bn", PROFILE_OFF_RAILS, 4,
                         "guard rail violated at t = 0"),
    "profile-rails-homogenize": ("homogenize", PROFILE_OFF_RAILS, 4,
                                 "two-phase reference from the [init] profile "
                                 "failed: density guard rail violated at t = 0"),
    # a density at or below zero is outside the rails: the same check
    "density-negative-nsk": ("simulate-nsk", MINIMAL + "[init]\nprofile = "
                             "constant\nrho0 = -1\n", 4,
                             "density guard rail violated at t = 0: range "
                             "[-1, -1] outside"),
    "density-negative-bn": ("simulate-bn", MINIMAL + "[init]\nprofile = "
                            "constant\nrho0 = -1\n", 4,
                            "guard rail violated at t = 0"),
    "density-negative-homogenize": ("homogenize", MINIMAL + "[harness]\n"
                                    "n_list = 1\n[init]\nv_minus = -0.5\n",
                                    4, "two-phase reference from the [init] "
                                    "profile failed: density guard rail "
                                    "violated at t = 0"),
    # the family is built from the two-value profile and its limit data
    "homogenize-constant": ("homogenize", POLY_SMOOTH, 2,
                            "homogenize needs [init].profile = two_value, "
                            "got 'constant'"),
    "homogenize-bn-data": ("homogenize", MINIMAL + "[bn]\nfrom_profile = "
                           "false\n", 2, "[bn].from_profile = false is not "
                           "supported"),
    "non-finite": ("simulate-nsk", BLOW_UP, 4, "non-finite"),
    "non-finite-bn": ("simulate-bn", BLOW_UP, 4, "non-finite"),
    "law-refuses-step": ("simulate-bn", LAW_REFUSES_STEP, 4,
                         "bounds failure: step from t = 0 failed: density "
                         "outside the law's domain"),
    # refused at load, not once a family is built
    "n-list": ("check-eos", POLY_SMOOTH + "[harness]\nn_list = 0, 4\n", 2,
               "[harness].n_list entries must be at least 1"),
    # an empty list entry is refused, not skipped
    "n-list-empty-entry": ("check-eos", "[harness]\nn_list = 4,, 8\n", 2,
                           ":2: bad value for [harness].n_list: invalid "
                           "literal for int() with base 10: ''"),
    "delta-negative": ("check-eos", "[init]\ndelta = -0.1\n", 2,
                       "[init].delta must lie in (0, min(theta, 1 - theta)]"),
    "delta-over-theta": ("check-eos", "[init]\ntheta = 0.05\ndelta = 0.1\n",
                         2, "[init].delta must lie in (0, min(theta, 1 - "
                         "theta)] = (0, 0.05], got 0.1"),
    # a key set twice is refused under every command, naming both lines
    "key-twice": ("check-eos", KEY_TWICE, 2,
                  ":8: [time].dt is set twice, on lines 2 and 8"),
    "key-twice-nsk": ("simulate-nsk", KEY_TWICE, 2,
                      ":8: [time].dt is set twice, on lines 2 and 8"),
    "key-twice-bn": ("simulate-bn", KEY_TWICE, 2,
                     ":8: [time].dt is set twice, on lines 2 and 8"),
    "key-twice-homogenize": ("homogenize", KEY_TWICE, 2,
                             ":8: [time].dt is set twice, on lines 2 and 8"),
    # refused even where --out would override it
    "output-empty": ("check-eos", "[output]\ndirectory =\n", 2,
                     "[output].directory must not be empty"),
    "output-empty-simulate": ("simulate-nsk", POLY_SMOOTH + "[output]\n"
                              "directory =\n", 2,
                              "[output].directory must not be empty"),
}


@pytest.mark.parametrize("case", EXIT_CODES)
def test_cli_exit_code(tmp_path, capsys, case):
    command, text, code, message = EXIT_CODES[case]
    out = tmp_path / "run"
    args = [command, "--config", write_cfg(tmp_path, text)]
    if command != "check-eos":
        args += ["--out", str(out)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(args) == code
    assert message in capsys.readouterr().err
    # a failed run writes no output directory
    assert out.exists() == (code == 0 and command != "check-eos")


def test_cli_check_eos_names_the_refused_interval(tmp_path, capsys):
    assert main(["check-eos", "--config",
                 write_cfg(tmp_path, RAIL_PAST_POLE)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "requested interval [0.0, 2.8]" in captured.err
    assert "upper rail 2.8 not inside the law's domain [0, 1.7)" in captured.err


def homogenize_cfg(tmp_path):
    return write_cfg(tmp_path, """
[physics]
mu = 0.1
kappa = 0.1
gamma = 2.0

[eos]
type = van_der_waals
A = 1.0
B = 3.0
R = 1.0
T_star = 0.2

[grid]
n = 128

[time]
dt = 4e-4
t_end = 0.02
snapshot_every = 10

[bounds]
m0 = 1.4

[init]
profile = two_value
v_minus = 0.8
v_plus = 1.6
theta = 0.5
delta = 0.1
n_osc = 1

[harness]
n_list = 1, 2

[output]
directory = fam_out
""")


def test_cli_homogenize_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = homogenize_cfg(tmp_path)
    assert main(["homogenize", "--config", cfg, "--out", "fam1"]) == 0
    assert main(["homogenize", "--config", cfg, "--out", "fam2"]) == 0
    csv1 = open(tmp_path / "fam1" / "convergence.csv", "rb").read()
    csv2 = open(tmp_path / "fam2" / "convergence.csv", "rb").read()
    assert csv1 == csv2
    assert (tmp_path / "fam1" / "member_n1" / "distances.csv").exists()
    assert (tmp_path / "fam1" / "bn" / "diagnostics.csv").exists()
    for rel in ("member_n1/measures.csv", "bn/measures.csv"):
        header = open(tmp_path / "fam1" / rel).readline().strip()
        assert header.startswith("t,1*xi^0,1*xi^1")
    header = open(tmp_path / "fam1" / "convergence.csv").readline()
    assert header.startswith("n,sup_t_measure_dist,sup_t_u_err,dist_t")
