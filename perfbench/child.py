"""One measured CLI call, in a fresh interpreter.

Usage: child.py ROOT RESULT TRACE -- ARGV...

Imports ``spellvar.cli`` from ``ROOT/src``, records the clock when the import
has finished, calls ``spellvar.cli.main(ARGV)`` (wrapped by the tracer when
TRACE is 1) and writes a JSON result to RESULT.  Only ``sys`` and ``time``
are imported before the program, so the set-up time the parent derives from
the recorded clock is the interpreter's start-up plus the program's import.
"""

import sys
import time

root, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
argv = sys.argv[5:]
sys.path.insert(0, root + "/src")

import spellvar.cli  # noqa: E402

ready = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

expected = os.path.realpath(os.path.join(root, "src", "spellvar", "cli.py"))
if os.path.realpath(spellvar.cli.__file__) != expected:
    sys.exit(f"child: imported {spellvar.cli.__file__}, not {expected}")

recorder = None
if trace:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer

    recorder = tracer.install()

start = time.perf_counter()
code = spellvar.cli.main(argv)
end = time.perf_counter()

result = {
    "code": code,
    "ready": ready,
    "run_s": end - start,
    "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}
if recorder is not None:
    result["spans"] = recorder.spans
    result["counts"] = recorder.counts
with open(result_path, "w", encoding="utf-8") as handle:
    json.dump(result, handle)
