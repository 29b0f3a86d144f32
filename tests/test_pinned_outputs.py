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
""", "8ba442c88f1cc091719cc562747d82f85615a35711ff4ef50ed5c6076085414f"),
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
""", "cb3efee7788ece7097f6b6ca8a9ff4b7ccc1243d53318f91928521b979e0eec4"),
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
""", "55648734762a489040849b55e1e822252cbdc055a85fe973fdd9189b09d609ab"),
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
