"""What `import smr` loads, and when: each check runs in a fresh interpreter."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

from smr import construct, seed, to_grid, to_json

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SUBMODULES = ["core", "criterion", "direct", "dispatch", "formats", "oracle", "seeds", "transforms"]
LOADED = "sorted(m for m in sys.modules if m.startswith('smr.'))"


def _python(code: str, stdin: bytes = b"", flags: tuple[str, ...] = ()) -> str:
    """Run code in a new interpreter that can import smr, with ``flags`` before
    ``-W error``; return its stdout."""
    done = subprocess.run(
        [sys.executable, *flags, "-W", "error", "-c", code], input=stdin, capture_output=True,
        check=False, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (done.returncode, done.stderr) == (0, b"")
    return done.stdout.decode()


def test_bare_import_loads_no_submodule():
    out = _python(f"import smr, sys; print({LOADED}, set(smr.__all__) <= set(dir(smr)))")
    assert out == "[] True\n"


def test_seed_loads_core_formats_and_seeds_only():
    out = _python(f"import smr, sys; smr.seed('S_2x4'); print({LOADED}, 'json' in sys.modules)")
    assert out == "['smr.core', 'smr.formats', 'smr.seeds'] False\n"


def test_cli_verify_loads_core_formats_and_cli_only(tmp_path):
    # each command imports what it runs: verify needs no construction or search
    path = tmp_path / "a.json"
    path.write_text(to_json(*seed("S_2x4")), encoding="utf-8")
    out = _python(
        "import contextlib, io, sys, smr.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = smr.cli.main(['verify', {str(path)!r}])\n"
        f"print(code, {LOADED})\n"
    )
    assert out == "0 ['smr.cli', 'smr.core', 'smr.formats']\n"


def _cli_loads(argv: list[str]) -> str:
    """The exit code of smr.cli.main(argv), the smr modules it loaded and
    whether it loaded json."""
    return _python(
        "import contextlib, io, sys, smr.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = smr.cli.main({argv!r})\n"
        f"print(code, {LOADED}, 'json' in sys.modules)\n"
    )


def test_setup_loads_no_typing_and_no_re():
    # -S: no site hook, such as a .pth file, imports either before smr does
    loaded = "print([m for m in ('typing', 're') if m in sys.modules])"
    assert _python(f"import smr, sys; smr.seed('S_2x4'); {loaded}", flags=("-S",)) == "[]\n"
    assert _python(f"import smr.oracle, sys; {loaded}", flags=("-S",)) == "[]\n"
    # argparse imports re itself
    out = _python("import smr.cli, sys; print('typing' in sys.modules)", flags=("-S",))
    assert out == "False\n"


def test_oracle_loads_core_and_criterion_only():
    # the search is checked against the criterion, not built from the constructions
    out = _python(f"import smr.oracle, sys; print({LOADED})")
    assert out == "['smr.core', 'smr.criterion', 'smr.oracle']\n"


def test_cli_decide_loads_core_formats_criterion_and_cli_only():
    assert _cli_loads(["decide", "6", "9", "3"]) == (
        "0 ['smr.cli', 'smr.core', 'smr.criterion', 'smr.formats'] False\n"
    )


def test_cli_search_commands_load_no_construction():
    for argv in (["oracle", "4", "4", "--witness"], ["crosscheck", "--max-m", "4", "--max-r", "4"]):
        assert _cli_loads(argv) == (
            "0 ['smr.cli', 'smr.core', 'smr.criterion', 'smr.formats', 'smr.oracle'] False\n"
        ), argv


def test_every_public_name_is_the_object_its_submodule_defines():
    """Each name, reached first through the package, is the object of every
    submodule that holds it, and a class or function names its holder."""
    out = _python(
        "import importlib, smr\n"
        "public = {name: getattr(smr, name) for name in smr.__all__}\n"
        f"modules = [importlib.import_module('smr.' + m) for m in {SUBMODULES!r}]\n"
        "bad = []\n"
        "for name, value in public.items():\n"
        "    holders = [m for m in modules if name in vars(m)]\n"
        "    home = getattr(value, '__module__', None)\n"
        "    if not holders or any(vars(m)[name] is not value for m in holders) \\\n"
        "            or (home is not None and home not in [m.__name__ for m in holders]):\n"
        "        bad.append(name)\n"
        "print(len(public), bad)\n"
    )
    assert out == "46 []\n"


def test_star_import_binds_every_public_name():
    out = _python(
        "from smr import *\n"
        "import smr\n"
        "print(len(smr.__all__), [n for n in smr.__all__ if globals().get(n) is not getattr(smr, n)])\n"
    )
    assert out == "46 []\n"


def test_submodules_resolve_after_a_bare_import():
    out = _python(
        "import smr\n"
        f"print([getattr(smr, m).__name__ for m in {SUBMODULES!r}])\n"
        "print(smr.formats.read.__name__, smr.oracle.decide is smr.decide)\n"
    )
    assert out == f"{['smr.' + m for m in SUBMODULES]}\nread True\n"


def test_unknown_attribute_raises_attribute_error_naming_it():
    out = _python(
        "import smr\n"
        "try:\n"
        "    smr.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc, exc.name)\n"
        "print(hasattr(smr, 'no_such_name'))\n"
    )
    assert out == "module 'smr' has no attribute 'no_such_name' no_such_name\nFalse\n"


def test_pickled_array_unpickles_where_smr_was_not_imported():
    array, _ = construct(7, 14, 4)
    out = _python(
        "import pickle, sys\n"
        "assert 'smr' not in sys.modules\n"
        "array = pickle.loads(sys.stdin.buffer.read())\n"
        "from smr import to_grid\n"
        "sys.stdout.write(to_grid(array))\n",
        stdin=pickle.dumps(array),
    )
    assert out == to_grid(array)
