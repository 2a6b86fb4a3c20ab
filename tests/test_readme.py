"""The README's library example runs as written, on a seeded corpus."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).parent.parent / "README.md"
IMAGES_LINE = re.compile(r"^images = \[\.\.\.\].*$", re.M)


def library_example() -> str:
    """The python block under "## Library example"."""
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_on_random_walks():
    code = library_example()
    assert len(IMAGES_LINE.findall(code)) == 1
    # 48 random-walk surfaces keep more than the 200 group latents the
    # example's code length needs
    rng = np.random.default_rng(0)
    corpus = [np.cumsum(np.cumsum(rng.standard_normal((128, 128)), 0), 1) for _ in range(48)]
    scope = {"corpus": corpus}
    exec(IMAGES_LINE.sub("images = corpus", code), scope)
    assert (np.diff(scope["trace"]) <= 0).all()
    assert abs(scope["score"].tss) <= 1
    assert len(scope["sweep"]) == 4
