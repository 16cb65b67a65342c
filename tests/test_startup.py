"""Start-up: what a fresh interpreter loads to import the package and to
run one command, and the verify suite names the parser offers.

Each case runs in a new ``python -I`` process.  The modules loaded when
its script starts are those of a bare ``python -I -c pass``; the case
reads which modules the script loads on top of them.
"""

import ast
import subprocess
import sys
from pathlib import Path

import bfredholm
from bfredholm import cli, suites

SRC = str(Path(bfredholm.__file__).resolve().parent.parent)
# loaded by no start of the library; the last three only by the commands that use them
DEFERRED = ("dataclasses", "inspect", "json", "bfredholm.suites", "bfredholm.numeric")
SUITE_CHOICES = "{fedosov,ideal,loglaw,powerlaw,punctured,traceaxioms,welldefined,windingoracle,windows,all}"


def loaded_by(body: str) -> tuple[set[str], set[str]]:
    """(modules loaded before body ran, modules body loaded) in a fresh interpreter."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {SRC!r})\n"
        f"{body}\n"
        "print()\n"
        "print(sorted(before))\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, new = proc.stdout.splitlines()[-2:]
    return set(ast.literal_eval(before)), set(ast.literal_eval(new))


def test_importing_the_package_and_cli_loads_no_deferred_module():
    _, new = loaded_by("import bfredholm, bfredholm.cli")
    assert "bfredholm.cli" in new
    assert sorted(new.intersection(DEFERRED)) == []


def test_analyze_loads_no_deferred_module():
    _, new = loaded_by('from bfredholm.cli import main\nassert main(["analyze", "T(z)"]) == 0')
    assert sorted(new.intersection(DEFERRED)) == []


def test_json_output_loads_json():
    before, new = loaded_by('from bfredholm.cli import main\nassert main(["index", "T(z)", "--format", "json"]) == 0')
    assert "json" in new | before
    assert "bfredholm.suites" not in new


def test_verify_loads_the_suites():
    _, new = loaded_by('from bfredholm.cli import main\nassert main(["verify", "--suite", "fedosov", "--trials", "1"]) == 0')
    assert {"bfredholm.suites", "bfredholm.numeric"} <= new


def test_parser_suite_names_are_the_registered_suites():
    assert list(cli.SUITE_NAMES) == sorted(suites.SUITES)


def test_verify_help_lists_every_suite(capsys):
    assert cli.main(["verify", "--help"]) == 0
    assert f"--suite {SUITE_CHOICES}" in capsys.readouterr().out


def test_unknown_suite_is_a_usage_error(capsys):
    assert cli.main(["verify", "--suite", "nope"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "error: argument --suite: invalid choice: 'nope' (choose from 'fedosov', 'ideal', 'loglaw', "
        "'powerlaw', 'punctured', 'traceaxioms', 'welldefined', 'windingoracle', 'windows', 'all')"
    )

