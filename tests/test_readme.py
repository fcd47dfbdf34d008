"""The README's Python examples and command-line block run as written."""

import importlib
import pathlib
import re
import shlex

import lssbal
from lssbal.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(block, namespace)
    assert re.search(r"^error bound: 0\.2471\d*$", capsys.readouterr().out, re.M)


def test_command_line_block_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert len(lines) == 6 and all(line.startswith("lssbal ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    assert (tmp_path / "run.csv").read_text(encoding="utf-8").startswith("t,mode,u_1,y_1,yhat_1\n")


def module_table() -> dict[str, list[str]]:
    """Each module of the README's table with the backquoted names of its row."""
    text = README.read_text(encoding="utf-8")
    table = re.search(r"## Modules\n\n(.*?)\n\n", text, re.S).group(1).splitlines()
    assert table[:2] == ["| module | public entry points |", "| --- | --- |"]
    rows = [re.fullmatch(r"\| `([\w.]+)` \| (.*) \|", line).groups() for line in table[2:]]
    return {module: re.findall(r"`(\w+)`", entries) for module, entries in rows}


def test_module_table_names_resolve():
    for module, names in module_table().items():
        for name in names:
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_module_table_lists_every_export():
    table = module_table()
    for name in lssbal.__all__:
        value = getattr(lssbal, name)
        if not (isinstance(value, type) and issubclass(value, lssbal.LssError)):
            assert name in table[value.__module__], f"{name} missing from {value.__module__}"
