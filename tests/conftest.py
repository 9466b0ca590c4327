import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minsurf
from minsurf.cli import main


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def check_streams(code, out, err, argv=()):
    """The CLI's stream contract: exit 0 with nothing on stderr, or a
    nonzero exit with nothing on stdout and one JSON line on stderr, an
    object of exactly "error" and "message"."""
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert out == "" and err.count("\n") == 1, (argv, out, err)
        assert set(json.loads(err)) == {"error", "message"}, (argv, err)


class Cli:
    """cli.main in this process, its streams checked on every call by
    ``check_streams``; a warning is an error under the suite's
    filterwarnings, so it ends the run as an InternalError."""

    def __init__(self, capfd, monkeypatch):
        self.capfd, self.monkeypatch = capfd, monkeypatch

    def __call__(self, argv, stdin=""):
        """(exit code, stdout, stderr) of one run."""
        self.monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(argv)
        out, err = self.capfd.readouterr()
        check_streams(code, out, err, argv)
        return code, out, err

    def error(self, argv, stdin=""):
        """The JSON error of a run that must exit 1."""
        code, _, err = self(argv, stdin)
        assert code == 1, (argv, err)
        return json.loads(err)

    def pipe(self, *argvs, stdin=""):
        """The stdout of the runs of argvs, each reading the one before,
        each of which must exit 0."""
        for argv in argvs:
            code, stdin, err = self(argv, stdin)
            assert code == 0, (argv, err)
        return stdin


@pytest.fixture
def cli(capfd, monkeypatch):
    return Cli(capfd, monkeypatch)


def random_complex(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def load_obj_vertices(path):
    """Vertex coordinates of an OBJ file (for round-trip checks)."""
    with open(path) as fh:
        rows = [line.split()[1:4] for line in fh if line.startswith("v ")]
    return np.array(rows, dtype=float)


def primitive_derivative(form, z):
    """F' at the points z, for the primitive ``form`` = ({(m, k): c}, r)
    that ``expr.primitive_form`` reads: the sum of c (m z^(m-1) + k z^m)
    e^(kz) over the terms, plus r / z, taken with numpy and independent of
    ``expr.normal_forms``; with the sum of the terms' moduli, the scale
    of its roundoff."""
    terms, r = form
    z = np.asarray(z, dtype=complex)
    parts = [c * ((m * z ** (m - 1) if m else 0) + (k * z ** m if k else 0))
             * np.exp(k * z) for (m, k), c in terms.items()]
    if r:
        parts.append(r / z)
    return (sum(parts, np.zeros_like(z)),
            sum((np.abs(t) for t in parts), np.zeros(z.shape)))


def child_env():
    """The environment with the tested package first on PYTHONPATH."""
    src = str(Path(minsurf.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, path])))


def run_shell(script, cwd, stdin=""):
    """The completed ``bash -eo pipefail`` run of script in cwd, where
    ``minsurf`` is this interpreter's ``-m minsurf.cli``."""
    python = shlex.quote(sys.executable)
    define = f'minsurf() {{ {python} -m minsurf.cli "$@"; }}\n'
    return subprocess.run(["bash", "-eo", "pipefail", "-c", define + script],
                          cwd=cwd, input=stdin, capture_output=True, text=True,
                          env=child_env(), timeout=300)
