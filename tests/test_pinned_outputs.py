"""Pinned output digests of three small CLI runs.

Each test runs one ``phasekit`` subcommand and compares the sha256 of its
whole output tree (file names and bytes; the ``provenance`` entry of
meta.json, which names the library versions, is left out) with a pinned
value.  A refactor must leave every digest unchanged.  A change that alters
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
""", "c049402e97a193fcff6acad2c12df9d71a08f03f5fd476c349f5f4884e07be2b"),
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
""", "114aa7d268738f3088318c12633f00f68caccd5788d64f1f53ff43b11c27acd4"),
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
""", "94e227a0c833abaf9d652965d43a9fe92fba623ec4a1cdc84eb6b19fec48ff88"),
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
