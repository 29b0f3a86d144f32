"""Pinned output digests of three small CLI runs, and pinned check-eos
reports.

Each run test runs one ``phasekit`` subcommand and compares the sha256 of
its whole output tree (file names and bytes; the ``provenance`` entry of
meta.json, which names the library versions, is left out) with a pinned
value.  Each check-eos test compares the command's whole stdout and exit
code with pinned ones.  A refactor must leave every digest and report
unchanged.  A change that alters
the numerics on purpose updates the pin in the same change, and its
CHANGES.md line gives the max-abs field difference against the old output.

The pins were taken with numpy 2.4 and scipy 1.17 on x86-64; other builds
may differ in the last bits of the FFTs and reductions.
"""

import hashlib
import json
import os

import pytest

from phasekit.cli import main

COMMON = """
[physics]
mu = 0.1
kappa = 0.1
gamma = 2.0

[bounds]
m0 = 1.4
"""

CASES = {
    # fixed time grid, a moving two-value profile
    "simulate-nsk": (COMMON + """
[grid]
n = 256

[time]
dt = 4e-4
t_end = 0.2
snapshot_every = 50

[init]
u0_mode = 1
u0_amp = 0.2
""", "88faa691656c5e01c841415af2b03aa4bf9181f5282fe7e1998cf836d7f4f259"),
    # dt far above the CFL bound: every step is CFL-limited
    "simulate-bn": (COMMON + """
[grid]
n = 128

[time]
dt = 0.01
t_end = 0.5
snapshot_every = 20

[init]
u0_mode = 1
u0_amp = 0.2
""", "d64d859a15b57002d8f53d72c37288858278c08c9fe3e501a6594653f4e44558"),
    # the criterion-12 family: a BN reference and two NSK members
    "homogenize": (COMMON + """
[grid]
n = 256

[time]
dt = 4e-4
t_end = 0.02
snapshot_every = 10

[init]
v_minus = 0.8
v_plus = 1.6

[harness]
n_list = 2, 4
""", "74b64a4d718860288301868add05d40ac457c95bdfa8e443afa7a49726e5552b"),
}


def tree_digest(out_dir) -> str:
    digest = hashlib.sha256()
    for dirpath, _, names in sorted(os.walk(out_dir)):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                blob = f.read()
            if name == "meta.json":
                meta = json.loads(blob)
                meta.pop("provenance")
                blob = json.dumps(meta, sort_keys=True).encode()
            digest.update(os.path.relpath(path, out_dir).encode() + b"\0")
            digest.update(hashlib.sha256(blob).digest())
    return digest.hexdigest()


@pytest.mark.parametrize("command", sorted(CASES))
def test_output_tree_matches_pin(command, tmp_path, capsys):
    text, pin = CASES[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert tree_digest(out) == pin


EOS_CASES = {
    # the default Van der Waals law with gamma = 2: monotone on [0, 2.8]
    # even though the bare law has a spinodal
    "van-der-waals": ("[eos]\ntype = van_der_waals\n", 0, """{
  "admissible": true,
  "min_artificial_slope": 0.06666666666666668,
  "scan_interval": [
    0.0,
    2.8
  ],
  "spinodal": [
    0.03410432940781717,
    2.6644503324815583
  ]
}
"""),
    # gamma = 0 leaves the spinodal in the artificial pressure
    "gamma-zero": ("[physics]\ngamma = 0\n", 3, """{
  "admissible": false,
  "min_artificial_slope": -3.469701985818808,
  "scan_interval": [
    0.0,
    2.8
  ],
  "spinodal": [
    0.03410432940781717,
    2.6644503324815583
  ]
}
"""),
    # no spinodal at all
    "polytropic": ("[eos]\ntype = polytropic\n", 0, """{
  "admissible": true,
  "min_artificial_slope": 0.0,
  "scan_interval": [
    0.0,
    2.8
  ],
  "spinodal": null
}
"""),
}


@pytest.mark.parametrize("case", sorted(EOS_CASES))
def test_check_eos_report_matches_pin(case, tmp_path, capsys):
    text, code, report = EOS_CASES[case]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["check-eos", "--config", str(cfg)]) == code
    assert capsys.readouterr().out == report
