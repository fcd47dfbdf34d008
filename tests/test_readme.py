"""The README's Python examples and command-line block run as written."""

import pathlib
import re
import shlex

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
    assert len(lines) == 7 and all(line.startswith("lssbal ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    assert (tmp_path / "run.csv").read_text(encoding="utf-8").startswith("t,mode,u_1,y_1,yhat_1\n")
