import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_benchmark_self_test_passes():
    # the benchmark's output gate imports the package's public names
    # (PulseSchedule, periodic_schedule, controlled_gamma, ...): a change to
    # them fails here, not only when the benchmark runs
    result = subprocess.run([sys.executable, str(RUN), "--self-test"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "self-test: passed" in result.stdout
