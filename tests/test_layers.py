"""`import remsum` loads the exact core; the other layers load on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import remsum

SRC = Path(remsum.__file__).resolve().parents[1]
CORE = ["remsum", "remsum.cfrac", "remsum.errors", "remsum.exactnum", "remsum.sums"]
LAYERS = ["dirichlet", "farey", "limits", "measure", "verify"]


def _run_bare(code: str) -> list[str]:
    """Run code in a fresh `python -S` (no site hooks) with remsum on the
    path; return the words it prints."""
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


LOADED = "print(' '.join(sorted(m for m in sys.modules if m.startswith('remsum'))))"


def test_import_loads_the_exact_core_only():
    assert _run_bare(f"import sys, remsum\n{LOADED}") == CORE


def test_a_sum_command_loads_no_other_layer():
    code = ("import contextlib, io, sys\n"
            "from remsum import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['sum', '--n', '100', '--t', 'cf:0;(1)']) == 0\n"
            f"{LOADED}")
    assert _run_bare(code) == sorted(CORE + ["remsum.cli"])


def test_help_loads_no_other_layer():
    code = ("import contextlib, io, sys\n"
            "from remsum import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['--help']) == 0\n"
            f"{LOADED}")
    assert _run_bare(code) == sorted(CORE + ["remsum.cli"])


def test_cli_suite_names_are_the_verify_suites():
    from remsum import cli, verify

    assert cli.SUITE_NAMES == sorted(verify.SUITES)


def test_dirichlet_alone_does_not_load_farey():
    code = f"import sys, remsum.dirichlet\n{LOADED}"
    assert _run_bare(code) == sorted(CORE + ["remsum.dirichlet"])


@pytest.mark.parametrize("name", LAYERS)
def test_layer_attribute_is_the_imported_module(name):
    module = getattr(remsum, name)
    assert module is importlib.import_module(f"remsum.{name}")
    assert module is sys.modules[f"remsum.{name}"]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from remsum import *", namespace)
    assert set(LAYERS) <= set(remsum.__all__)
    assert all(namespace[name] is getattr(remsum, name) for name in remsum.__all__)


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'remsum' has no attribute 'nope'$"):
        remsum.nope  # noqa: B018


def test_dir_lists_the_layers_before_they_load():
    # in a fresh process, where no layer is bound on the package yet
    code = ("import sys, remsum\n"
            "names = dir(remsum)\n"
            "assert names == sorted(names)\n"
            f"print(' '.join(n for n in names if n in {LAYERS + ['cfrac', 'sums']!r}))\n"
            f"{LOADED}")
    assert _run_bare(code) == sorted(LAYERS + ["cfrac", "sums"]) + CORE


def test_threads_loading_a_layer_at_once_share_one_module():
    # a short switch interval lets the threads interleave inside the import
    code = ("import sys, threading, remsum\n"
            "assert 'remsum.farey' not in sys.modules\n"
            "sys.setswitchinterval(1e-6)\n"
            "barrier, seen = threading.Barrier(8, timeout=10), []\n"
            "def touch():\n"
            "    barrier.wait()\n"
            "    seen.append(remsum.farey)\n"
            "threads = [threading.Thread(target=touch) for _ in range(8)]\n"
            "for th in threads: th.start()\n"
            "for th in threads: th.join(20)\n"
            "assert not any(th.is_alive() for th in threads)\n"
            "print(len(seen), len({id(m) for m in seen}),"
            " seen[0] is sys.modules['remsum.farey'])")
    assert _run_bare(code) == ["8", "1", "True"]
