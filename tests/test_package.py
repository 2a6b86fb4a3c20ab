import os
import subprocess
import sys
from pathlib import Path

import texlat


def test_every_exported_name_resolves():
    missing = [name for name in texlat.__all__ if not hasattr(texlat, name)]
    assert missing == []
    assert len(set(texlat.__all__)) == len(texlat.__all__)


def _python_m_texlat(*argv, **env):
    """Run the package as `python -m texlat` in a fresh interpreter, with `env` set."""
    src = str(Path(texlat.__file__).parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "texlat", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point_exits_two_naming_an_unknown_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"NOPE" + bytes(16))
    done = _python_m_texlat("info", path)
    assert done.returncode == 2
    assert f"{path}: unrecognized file magic b'NOPE'" in done.stderr


def test_any_log_setting_runs_the_command(tmp_path):
    # a logging attribute that is not a level reaches no logging call
    path = tmp_path / "x.bin"
    path.write_bytes(b"NOPE" + bytes(16))
    done = _python_m_texlat("info", path, TEXLAT_LOG="BASIC_FORMAT")
    assert (done.returncode, done.stderr) == (2, f"error: {path}: unrecognized file magic "
                                                 "b'NOPE'\n")


def test_module_entry_point_without_a_command_exits_one_with_usage():
    done = _python_m_texlat()
    assert done.returncode == 1
    assert done.stderr.startswith("usage: texlat")
