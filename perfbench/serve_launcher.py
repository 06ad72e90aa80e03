"""Start a ``repro serve`` daemon for the benchmark, optionally traced.

Usage: ``python3 perfbench/serve_launcher.py --socket PATH --cache-dir DIR
[--trace-dir DIR --spans FILE]``.  The daemon's request log goes to
``/dev/null``.  With ``--trace-dir`` the launcher installs the same
span wrappers as the in-process workloads and answers two extra
``stats`` prefixes: ``perfbench.trace.on`` starts recording, and
``perfbench.trace.off`` stops it and writes the span summary, with the
program's counter growth, to ``trace.json`` in that directory and every
span to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--spans")
    args = parser.parse_args()

    from repro.obs.metrics import METRICS
    from repro.serve.daemon import ArtifactServer, run_server

    import tracing
    from workloads import metrics_delta

    with open(os.devnull, "w", encoding="utf-8") as log:
        app = ArtifactServer(cache_dir=args.cache_dir, log=log)
        if args.trace_dir:
            recorder = tracing.Recorder()
            tracing.install(recorder)
            stats = app.stats
            before = {}

            def traced_stats(prefix=None):
                if prefix == "perfbench.trace.on":
                    before.update(METRICS.snapshot())
                    recorder.reset()
                    recorder.enabled = True
                elif prefix == "perfbench.trace.off":
                    recorder.enabled = False
                    summary = recorder.summary()
                    summary["metrics"] = metrics_delta(before, METRICS.snapshot())
                    recorder.write(args.spans)
                    path = os.path.join(args.trace_dir, "trace.json")
                    with open(path + ".tmp", "w", encoding="utf-8") as handle:
                        json.dump(summary, handle)
                    os.replace(path + ".tmp", path)
                return stats(prefix)

            app.stats = traced_stats
        return run_server(app, socket_path=args.socket)


if __name__ == "__main__":
    sys.exit(main())
