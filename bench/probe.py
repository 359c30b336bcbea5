"""Fresh-interpreter set-up probe: time ``import remest`` and one scenario load.

Usage: ``python3 bench/probe.py SCENARIO TRACE`` where SCENARIO is a YAML
path or ``bundled`` and TRACE is 0 or 1.  Prints one JSON object with the
two times, the loaded sizes and, when TRACE is 1, the spans of the load with
times relative to the start of the import.  ``run.py`` starts it with the
package's ``src`` directory on ``PYTHONPATH``.
"""

import json
import sys
import time

from tracing import Tracer

scenario_arg, trace = sys.argv[1], sys.argv[2] == "1"
t0 = time.perf_counter()
import remest  # noqa: E402  (the import is what this probe times)

t1 = time.perf_counter()
tracer = Tracer("probe")
if trace:
    tracer.install()
t2 = time.perf_counter()
if scenario_arg == "bundled":
    loaded = remest.load_bundled_scenario()
else:
    loaded = remest.load_scenario(scenario_arg)
t3 = time.perf_counter()
tracer.uninstall()
spans = [[s[0], s[1], s[2], s[3], s[4] - t0, s[5] - t0] for s in tracer.spans]
print(
    json.dumps(
        {
            "import_s": t1 - t0,
            "load_s": t3 - t2,
            "load_start": t2 - t0,
            "states": loaded.scenario.chain.num_states,
            "processes": loaded.scenario.num_sensors,
            "spans": spans,
        }
    )
)
