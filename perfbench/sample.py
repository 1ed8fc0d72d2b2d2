"""One benchmark sample: a fresh interpreter that runs one shjlab pipeline.

Usage: python3 perfbench/sample.py '<request json>'

The request holds ``pipeline``, ``config`` (ExperimentConfig fields),
``seed`` (added to both config seeds), ``out``, ``setup_only`` and
``trace`` (a path for the span file, or null).  The sample imports
shjlab, builds the config, prints nothing until the run is over, and
ends with one JSON line on stdout:

- ``ready``: ``time.monotonic()`` once shjlab is imported and the config
  built; the parent subtracts its spawn time to get the set-up time;
- ``wall_s``, ``exit_code``, ``checks``: the ``shjlab.cli.run`` call;
- ``peak_rss_mb``: this process's peak resident set;
- ``layers``: per-layer totals, when traced.
"""

import json
import sys
import time


def _blas_record(np):
    """OpenBLAS version string and thread count, read through ctypes."""
    import ctypes
    import glob
    import os
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "libscipy_openblas*.so"))
    if not libs:
        return {"blas_config": None, "blas_threads": None}
    lib = ctypes.CDLL(libs[0])
    get_config = getattr(lib, "scipy_openblas_get_config64_", None)
    get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    rec = {"blas_config": None, "blas_threads": None}
    if get_config is not None:
        get_config.restype = ctypes.c_char_p
        get_config.argtypes = []
        rec["blas_config"] = get_config().decode()
    if get_threads is not None:
        get_threads.restype = ctypes.c_int
        get_threads.argtypes = []
        rec["blas_threads"] = int(get_threads())
    return rec


def main(argv):
    req = json.loads(argv[1])
    import dataclasses

    import shjlab.cli
    from shjlab.cli import ExperimentConfig

    cfg = ExperimentConfig(**req["config"])
    cfg = dataclasses.replace(cfg, seed_w=cfg.seed_w + req["seed"],
                              seed_b=cfg.seed_b + req["seed"])
    ready = time.monotonic()
    result = {"ready": ready, "shjlab_file": shjlab.__file__}
    if req["setup_only"]:
        import numpy
        import scipy
        result.update(python=sys.version.split()[0], numpy=numpy.__version__,
                      scipy=scipy.__version__, **_blas_record(numpy))
        print(json.dumps(result))
        return 0

    tracer = None
    if req["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    # looked up at call time so the traced run goes through the wrapper
    code, checks = shjlab.cli.run(cfg, req["pipeline"], req["out"])
    wall = time.perf_counter() - t0

    import resource
    result.update(
        wall_s=wall, exit_code=code,
        checks={k: bool(v) if not isinstance(v, str) else v
                for k, v in checks.items()},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        from spans import layer_totals
        tracer.uninstall()
        result["layers"] = layer_totals(tracer.spans)
        with open(req["trace"], "w") as fh:
            json.dump([s.as_dict() for s in tracer.spans], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
