import os
import pathlib
import subprocess
import sys

import pytest

import ringline

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_every_public_name_resolves():
    for name in ringline.__all__:
        assert getattr(ringline, name) is not None, name
    with pytest.raises(AttributeError, match="nosuch"):
        ringline.nosuch


def loaded_modules(code):
    """The ringline modules a fresh interpreter has imported after running code."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    report = "import sys; print(*sorted(n for n in sys.modules if n.startswith('ringline')))"
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1].split()


@pytest.mark.parametrize("code", [
    "import ringline\nringline.make_modulus(6)",
    "from ringline import cli\ncli.main(['factor', '30'])",
], ids=["library", "cli-factor"])
def test_light_requests_load_only_the_layers_they_use(code):
    loaded = loaded_modules(code)
    assert "ringline.ring" in loaded
    assert "ringline.oracle" not in loaded
    assert "ringline.pauli" not in loaded
