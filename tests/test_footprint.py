"""The memory it takes to compile each teneig module."""

import platform
import sys
import tracemalloc
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "teneig"
COMPILE_PEAK_MB = 2.0


@pytest.mark.skipif(platform.python_implementation() != "CPython"
                    or sys.version_info[:2] != (3, 11),
                    reason="compile peaks are pinned on CPython 3.11")
def test_every_module_compiles_within_the_peak_bound():
    # perfbench runs without bytecode caches, so every run compiles every
    # module, and its `peak_rss_mb` follows the largest module's compile
    # peak, not the work done (CHANGES.md, the FOUND line on
    # `peak_rss_mb`).  Keeping the old polynomial ring in exact.py next to
    # the integer determinant raised `commands` `peak_rss_mb` by about
    # 0.3 MB, three times the benchmark's bound.
    peaks = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks[path.name] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    assert len(peaks) >= 10
    over = {name: round(mb, 3) for name, mb in peaks.items() if mb > COMPILE_PEAK_MB}
    assert not over, over
