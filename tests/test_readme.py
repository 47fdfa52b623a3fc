"""The README's examples run as written against the package."""

import re
import shlex
from pathlib import Path

from spinpath.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})


def _shell_lines():
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", text, re.DOTALL):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words:
                yield words


def test_command_line_examples_run(tmp_path, monkeypatch):
    # every spinpath line runs in process, its relative --out landing in
    # tmp_path; cmp lines compare the files they name; other tools are skipped
    monkeypatch.chdir(tmp_path)
    ran, compared = [], 0
    for words in _shell_lines():
        if words[0] == "spinpath":
            assert main(words[1:]) == 0, shlex.join(words)
            ran.append(words[1:])
        elif words[0] == "cmp":
            first, second = (Path(name).read_bytes() for name in words[1:])
            assert first == second, shlex.join(words)
            compared += 1
    assert ran and compared

    # the manifest of every run reproduces all of its files byte for byte
    for argv in ran:
        out = Path(argv[argv.index("--out") + 1])
        rerun = out.with_name(out.name + "-rerun")
        assert main([argv[0], "--config", str(out / "manifest.txt"),
                     "--out", str(rerun)]) == 0
        for path in sorted(out.iterdir()):
            assert (rerun / path.name).read_bytes() == path.read_bytes(), path
