"""The CLI as its users run it: README's blocks as written, and processes.

README's first ``python`` block runs in this process.  Its CLI ``sh``
block, and the pipes below, run under ``bash -eo pipefail`` in a scratch
directory, ``minsurf`` being this interpreter's ``-m minsurf.cli``
(``conftest.run_shell``).  A process adds to the contract that the
``cli`` fixture checks in process: nothing reaches stderr from the
interpreter either.
"""

import json
import re
from pathlib import Path

from conftest import check_streams, run_shell

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(lang, heading):
    """The text of the first ```lang block after README's heading."""
    text = README.read_text()
    text = text[text.index(f"\n{heading}\n"):]
    return re.search(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S).group(1)


def test_readmes_library_quick_start(capsys):
    block = _readme_block("python", "## Quick start (library)")
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.splitlines()[:2] == ["True", "3"]


def test_readmes_cli_quick_start(tmp_path):
    proc = run_shell(_readme_block("sh", "## Quick start (CLI)"), tmp_path)
    check_streams(proc.returncode, proc.stdout, proc.stderr)
    assert proc.returncode == 0
    assert '"is_null": true' in proc.stdout
    assert '"classification": "hyperbola"' in proc.stdout
    assert (tmp_path / "deformed.ply").read_bytes().startswith(b"ply\n")


def test_an_error_in_a_process_is_one_json_line(tmp_path):
    proc = run_shell("minsurf slice --axis x --value 0 < /dev/null", tmp_path)
    check_streams(proc.returncode, proc.stdout, proc.stderr)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "ValueError"


def test_a_pipe_of_processes_keeps_stderr_empty(cli, tmp_path):
    # the theorem-5.1 helicoid's level X4 = 0 is a line
    spec = cli.pipe(["catalog", "show", "helicoid"])
    proc = run_shell("minsurf deform --kind theorem51 --c 1+0i"
                     " | minsurf slice --axis 3 --value 0 --sweep=-1.2:1.2"
                     " | minsurf fit", tmp_path, stdin=spec)
    check_streams(proc.returncode, proc.stdout, proc.stderr)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["classification"] == "line"
