import pathlib
import re

import numpy as np

from phasekit import io
from phasekit.bn import BNState
from phasekit.diagnostics import RECORD_COLUMNS, DiagnosticsRecord, balance_check
from phasekit.harness import ConvergenceReport
from phasekit.nsk import FluidState, Trajectory
from phasekit.torus import PeriodicGrid

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    # the README's "Library quick start" block, exactly as written
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    trajectory = namespace["trajectory"]
    assert len(trajectory.records.energy) == trajectory.n_steps + 1
    assert balance_check(trajectory.records)["ok"]


def header(path) -> str:
    return path.read_text().split("\n", 1)[0]


def test_output_formats_name_the_written_columns(tmp_path):
    # every column list in the README's "Output formats" is the header the
    # writers give a tiny table: the snapshots of both states, diagnostics
    # .csv, distances.csv and convergence.csv, whose per-time columns the
    # README writes as dist_t* and uerr_t*
    section = README.read_text().split("### Output formats", 1)[1]
    section = " ".join(section.split("\n## ", 1)[0].split())
    grid = PeriodicGrid(8)
    records = DiagnosticsRecord(*np.zeros((len(RECORD_COLUMNS), 1)))
    fluid = FluidState(grid, 0.0, *np.ones((3, grid.n)))
    two_phase = BNState(grid, 0.0, *np.ones((2, 2, grid.n)),
                        *np.ones((2, grid.n)))
    headers = []
    for name, state in (("nsk", fluid), ("bn", two_phase)):
        io.write_trajectory(tmp_path / name,
                            Trajectory([state], records, None, None))
        headers.append(header(tmp_path / name / "snapshot_00000.csv"))
    assert headers == ["x,rho,u,c", "x,alpha_p,alpha_m,rho_p,rho_m,u,c"]
    diagnostics = header(tmp_path / "nsk" / "diagnostics.csv")
    assert diagnostics == ",".join(RECORD_COLUMNS)
    headers.append(diagnostics)
    io.write_distances(tmp_path / "distances.csv", [0.0], [0.0], [0.0])
    headers.append(header(tmp_path / "distances.csv"))
    times = np.array([0.0, 0.5])
    io.write_convergence(tmp_path / "convergence.csv", ConvergenceReport(
        (2,), times, [times], [times], [times], [0.5], [0.5], True, True))
    written = re.sub(r"_t\d{4}", "_t*",
                     header(tmp_path / "convergence.csv")).split(",")
    assert len(written) == 3 + 2 * times.size
    headers.append(",".join(dict.fromkeys(written)))
    for columns in headers:
        assert f"`{columns}`" in section, columns
