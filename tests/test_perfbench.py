import json
import subprocess
import sys
from pathlib import Path

from conftest import _run_python

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
PROBE = RUN.with_name("probe.py")


def test_benchmark_self_test_passes():
    # the benchmark's output gate imports the package's public names
    # (PulseSchedule, periodic_schedule, controlled_gamma, ...): a change to
    # them fails here, not only when the benchmark runs
    result = subprocess.run([sys.executable, str(RUN), "--self-test"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "self-test: passed" in result.stdout


def test_traced_benchmark_finds_every_function(tmp_path):
    # the traced run wraps functions by module and name
    # (spectral.oscillatory_quad, pulses.controlled_gamma_oracle, ...): a
    # rename shows here as a missing name
    result = _run_python(
        [str(PROBE), "cli", "--trace", "decoherence", "--s", "1.3", "--dt", "0.3",
         "--horizon", "2", "--time-step", "0.5", "--oracle", "--output", "out.csv"], tmp_path)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert (report["status"], report["missing"]) == (0, [])
    # one quadrature per oracle value, each inside its oracle call
    spans = json.loads((tmp_path / "spans.json").read_text())
    oracle = {span[0] for span in spans if span[1] == "pulses.controlled_gamma_oracle"}
    quad = [span[4] for span in spans if span[1] == "spectral.oscillatory_quad"]
    assert oracle and sorted(quad) == sorted(oracle)
