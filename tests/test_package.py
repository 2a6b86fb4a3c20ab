import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import texlat
from texlat import cli


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
                          capture_output=True, encoding="utf-8", env=env, timeout=120)


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


def test_csv_files_are_utf8_under_an_ascii_locale(tmp_path):
    # C without UTF-8 mode makes the locale's encoding ASCII on glibc; where the
    # subprocess's locale stays UTF-8 anyway, this test passes trivially
    ascii_locale = dict(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    params = texlat.PssParams(1, 1, 3)
    feats = np.random.default_rng(3).standard_normal((8, texlat.pss_dim(params)))
    arch, model = tmp_path / "f.pssa", tmp_path / "m.hpca"
    texlat.save_archive(texlat.FeatureArchive(params, ["é"], np.zeros(8, np.int32),
                                              [f"é/{i}.pgm" for i in range(8)], feats), arch)
    texlat.save_model(texlat.fit_hierarchy(texlat.hppca.GroupSpectra(feats, params), 0.999,
                                           2), model)
    codes, decoded = tmp_path / "codes.csv", tmp_path / "dec.csv"
    assert cli.main(["encode", str(model), str(arch), "-o", str(codes)]) == 0
    assert cli.main(["decode", str(model), str(codes), "-o", str(decoded)]) == 0
    for argv, reference in ((["encode", model, arch], codes),
                            (["decode", model, codes], decoded)):
        out = tmp_path / f"ascii-{reference.name}"
        done = _python_m_texlat(*argv, "-o", out, **ascii_locale)
        assert done.returncode == 0, done.stderr
        assert out.read_bytes() == reference.read_bytes()
    assert codes.read_text(encoding="utf-8").splitlines()[1].startswith("é/0.pgm,")
