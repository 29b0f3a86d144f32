"""Only `phasekit.io` writes files, and only the commands call it.

A library function that writes its own files hides what a run leaves on
disk from the command that started it.  This test reads the source of
every phasekit module.  Outside `io.py` it refuses `open()` in a write
mode, `os.makedirs`, `os.mkdir` and `json.dump`.  Outside `io.py` and
`cli.py` it refuses any import of `phasekit.io`.
"""

import ast
from pathlib import Path

import phasekit

WRITERS = {"makedirs", "mkdir", "dump"}
WRITE_MODES = set("wax+")


def called_name(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def open_mode(call):
    """The mode of an open() call: a string, 'r' when absent, or None when
    it is not a literal."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def file_writes(tree):
    """(line, what) for every call that writes to the file system."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = called_name(node)
        if name in WRITERS:
            found.append((node.lineno, f"call to {name}"))
        elif name == "open":
            mode = open_mode(node)
            if mode is None or WRITE_MODES & set(mode):
                found.append((node.lineno, f"open() in mode {mode!r}"))
    return found


def io_imports(tree):
    """(line, what) for every import of phasekit.io, relative or not."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}")
                      for alias in node.names if alias.name == "phasekit.io"]
        elif isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            if module in (".io", "phasekit.io"):
                found.append((node.lineno, f"from {module} import ..."))
            elif module in (".", "phasekit"):
                found += [(node.lineno, f"from {module} import io")
                          for alias in node.names if alias.name == "io"]
    return found


def offenders(check, allowed):
    package = Path(phasekit.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name in allowed:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {what}" for line, what in check(tree)]
    return found


def test_only_io_writes_files():
    found = offenders(file_writes, {"io.py"})
    assert not found, "file writes outside io.py:\n" + "\n".join(found)


def test_only_the_commands_import_io():
    found = offenders(io_imports, {"io.py", "cli.py"})
    assert not found, "imports of phasekit.io:\n" + "\n".join(found)


def test_the_checks_see_each_form():
    tree = ast.parse(
        "import os, json\n"
        "from . import io\n"
        "from .io import write_meta\n"
        "import phasekit.io\n"
        "os.makedirs(d)\nos.mkdir(d)\njson.dump(x, f)\n"
        "open(p, 'w')\nopen(p, mode='a')\nopen(p, m)\n"
        "open(p)\nopen(p, 'rb')\n")
    assert [line for line, _ in file_writes(tree)] == [5, 6, 7, 8, 9, 10]
    assert [line for line, _ in io_imports(tree)] == [2, 3, 4]
