import pathlib
import re

from phasekit.diagnostics import balance_check

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
