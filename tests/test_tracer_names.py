"""The benchmark tracer patches program functions by name; each must exist."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer

        t = tracer.Tracer()
        try:
            t.install()
        finally:
            t.restore()
    finally:
        sys.path.remove(str(PERFBENCH))
