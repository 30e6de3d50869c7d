"""One measurement in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py setup
        Time importing engelcf.cli and building its parser.
    python3 perfbench/child.py run '{"argv": [...], "lift_limit": true, "trace": false}'
        Time one engelcf.cli.main(argv) call with stdout captured, and
        report its exit code, the sha256 of its stdout and the peak RSS.

run.py starts this with PYTHONPATH pointing at the checkout's src/; the
child refuses an engelcf imported from anywhere else.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _check_origin(module):
    want = os.path.join(ROOT, "src", "engelcf")
    got = os.path.dirname(os.path.abspath(module.__file__))
    if got != want:
        sys.exit(f"engelcf was imported from {got}, not from {want}")


def setup():
    t0 = time.perf_counter()
    import engelcf.cli

    engelcf.cli.build_parser()
    elapsed = time.perf_counter() - t0

    import json
    import platform

    import mpmath.libmp

    _check_origin(engelcf)
    print(json.dumps({
        "setup_s": elapsed,
        "python": platform.python_version(),
        "backend": mpmath.libmp.BACKEND,
        "default_int_max_str_digits": sys.get_int_max_str_digits(),
    }))


def run(spec: dict):
    import contextlib
    import hashlib
    import io
    import json
    import resource

    import engelcf.cli

    _check_origin(engelcf)
    if spec["lift_limit"]:
        sys.set_int_max_str_digits(0)
    main = engelcf.cli.main
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        main = tracer.install(sys.modules)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = main(spec["argv"])
        wall = time.perf_counter() - t0
    out = buf.getvalue().encode()
    result = {
        "exit": code,
        "sha256": hashlib.sha256(out).hexdigest(),
        "output_bytes": len(out),
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup()
    elif sys.argv[1:2] == ["run"] and len(sys.argv) == 3:
        import json

        run(json.loads(sys.argv[2]))
    else:
        sys.exit(__doc__)
