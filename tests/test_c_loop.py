"""The paper's C loop, compiled, as the oracle of the binary64 march.

``tests/wave.c`` is the reference program's loop, with the first datum
passed in from the Python sample.  It is built with ``cc -O2
-ffp-contract=off`` and called through ``ctypes``; the whole field it
writes must equal the bytes of ``solve``'s columns.  Two variants, each the
source with the update line changed, show that the comparison can fail: a
fused multiply-add through ``fma()`` from ``math.h`` (independent of the
host's instruction set), and the regrouping ``(2c + a*dp) - o``.

With no ``cc`` on ``PATH`` these tests skip, except where the ``CI``
environment variable is set, as on GitHub Actions: there they fail, so CI
cannot pass by skipping them.
"""

import ctypes
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from wavecheck import build_grid, default_problem, scheme, solve

SOURCE = Path(__file__).with_name("wave.c")
UPDATE = "P(i, k+1) = 2.*P(i, k) - P(i, k-1) + a*dp;"

#: The update line of each variant.
VARIANTS = {
    "c-loop": UPDATE,
    "fma": "P(i, k+1) = fma(a, dp, 2.*P(i, k) - P(i, k-1));",
    "regrouped": "P(i, k+1) = (2.*P(i, k) + a*dp) - P(i, k-1);",
}

#: The default problem at CN 1/2, CN 1/3 and CN 100/101.
GRIDS = [(100, 200), (100, 300), (100, 101)]

#: Whether each variant's field equals ``solve``'s, grid by grid.  At CN 1/2,
#: ``a = 1/4`` and ``a*dp`` is exact, so a fused multiply-add cannot show.
EXPECTED = {
    "c-loop": [True, True, True],
    "fma": [True, False, False],
    "regrouped": [False, False, False],
}


def compiler() -> str:
    cc = shutil.which("cc")
    if cc is None:
        message = "no C compiler: `cc` is not on PATH"
        if os.environ.get("CI"):
            pytest.fail(f"{message}, and CI is set, so this test may not skip")
        pytest.skip(message)
    return cc


def build(tmp_path: Path, variant: str):
    """Compile ``wave.c`` with the variant's update line into ``tmp_path``."""
    text = SOURCE.read_text()
    assert text.count(UPDATE) == 1
    src = tmp_path / f"{variant}.c"
    src.write_text(text.replace(UPDATE, VARIANTS[variant]))
    lib = tmp_path / f"{variant}.so"
    subprocess.run([compiler(), "-O2", "-ffp-contract=off", "-shared", "-fPIC",
                    "-o", str(lib), str(src), "-lm"], check=True)
    wave = ctypes.CDLL(str(lib)).wave
    wave.restype = None
    wave.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_double, ctypes.c_double,
                     ctypes.c_double, ctypes.POINTER(ctypes.c_double),
                     ctypes.POINTER(ctypes.c_double)]
    return wave


def c_field(wave, g, c) -> bytes:
    sample = scheme._sample_space(default_problem().u0, g, "u0")
    u0 = (ctypes.c_double * (g.i_max + 1))(*sample)
    field = (ctypes.c_double * ((g.i_max + 1) * (g.k_max + 1)))()
    wave(g.i_max, g.k_max, g.dx, g.dt, c, u0, field)
    return bytes(field)


@pytest.mark.parametrize("variant", VARIANTS)
def test_compiled_c_loop_equals_the_binary64_march(tmp_path, variant):
    wave = build(tmp_path, variant)
    prob = default_problem()
    matches = []
    for i_max, k_max in GRIDS:
        g = build_grid(0, 1, 1, i_max, k_max)
        run = solve(prob, g)
        matches.append(c_field(wave, g, float(prob.c)) == b"".join(map(bytes, run.columns)))
    assert matches == EXPECTED[variant]
