"""``examples/serving_workload.py --metrics`` reports the run's slowest query.

The example keeps every trace of the run in a ``CollectingTraceSink`` and
prints the slowest one beside the Prometheus text of ``stats().flat()``.  A
sink smaller than the number of requests served evicts the oldest traces —
the cold first miss among them — and the report then names a warm hit as
the slowest query.  The trace's wall time and the service's own latency
maximum time the same request, so they must agree.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_metrics_report_names_the_slowest_request_the_service_timed():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "serving_workload.py"), "--metrics", "--scale", "0.02"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    slowest = re.search(r"slowest query: .* ([0-9.]+)ms$", run.stdout, re.MULTILINE)
    service_max = re.search(r"repro_service_latency_ms_all_max_ms ([0-9.eE+-]+)$", run.stdout, re.MULTILINE)
    assert slowest is not None and service_max is not None, run.stdout
    traced, timed = float(slowest.group(1)), float(service_max.group(1))
    assert abs(traced - timed) <= 0.05 * timed, (traced, timed)
