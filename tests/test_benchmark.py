import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes():
    """The benchmark's tracer binds names inside memxl (``memxl.model.encode_offsets``
    and the fields of what it returns), so a change under src/ that breaks those
    bindings fails here. Each workload runs a few steps, traced and untraced."""
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
