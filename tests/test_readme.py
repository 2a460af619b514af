"""The README's library example runs, and the package exports what it and the CLI use."""

import ast
import inspect
import re
from pathlib import Path

import pilotwave
from pilotwave import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_top_level_exports_what_the_example_and_the_cli_import():
    example = {
        alias.name
        for node in ast.walk(ast.parse(library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "pilotwave"
        for alias in node.names
    }
    cli_imports = {
        alias.name
        for node in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if inspect.isfunction(getattr(cli, alias.name)) or inspect.isclass(getattr(cli, alias.name))
    }
    assert set(pilotwave.__all__) - {"__version__"} == example | cli_imports
    assert all(hasattr(pilotwave, name) for name in pilotwave.__all__)
