"""The README's examples run as written: every `duhem` command of its code
blocks through `cli.main`, and its Python blocks in order in one namespace."""

import contextlib
import io
import os
import re
import shlex

from duhem import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_blocks(lang: str) -> list[str]:
    """The fenced code blocks of README.md whose info string is lang."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return [
        body for info, body in re.findall(r"^```(\w*)\n(.*?)^```$", text, re.S | re.M)
        if info == lang
    ]


def readme_commands() -> list[list[str]]:
    """The argv of every `duhem` command in the README's plain code blocks,
    continuation lines joined, without the leading `duhem`."""
    return [
        shlex.split(line)[1:]
        for block in readme_blocks("")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("duhem ")
    ]


def _named_files(argv: list[str]) -> list[str]:
    """The files a command says it writes: its --out, and the verify
    artifacts in its --out-dir."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    files = [opts["--out"]] if "--out" in opts else []
    if "--out-dir" in opts:
        files += [
            os.path.join(opts["--out-dir"], f"{kind}_{opts['--model']}.{ext}")
            for kind, ext in (("verify", "json"), ("loops", "csv"))
        ]
    return files


def test_every_readme_command_exits_0_and_writes_the_files_it_names(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    # every subcommand appears, so the extraction found the blocks
    assert {argv[0] for argv in commands} == {
        "simulate", "curves", "storage", "verify", "mech", "loops"
    }
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr())
        for path in _named_files(argv):
            assert os.path.isfile(path), (argv, path)


def test_readme_python_blocks_run_in_order_and_print_what_they_say():
    blocks = readme_blocks("python")
    namespace = {"__name__": "readme"}
    checked = 0
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, README, "exec"), namespace)
        # a print whose line ends in a comment prints that comment
        said = re.findall(r"^print\(.*\)\s+# (.+)$", block, re.M)
        if said:
            assert out.getvalue().splitlines()[-len(said):] == said
            checked += len(said)
    assert checked == 1
