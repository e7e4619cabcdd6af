"""Set-up cost as a user pays it: a fresh interpreter imports and prepares.

Usage: python3 setup_probe.py <src dir> <config JSON document>

Prints one JSON object: ``import_s`` (``import vqabench.cli``, which pulls
in the whole package), ``prepare_context_s`` (``prepare_context(cfg)``) and
``brute_force_minimum_s`` (the part of the latter spent finding the QUBO's
minimizers).
"""

import json
import sys
import time


def main() -> None:
    src, cfg_doc = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import vqabench.cli  # noqa: F401
    t1 = time.perf_counter()
    from vqabench import harness

    cfg = harness.ExperimentConfig.from_dict(cfg_doc)
    brute_force_minimum = harness.brute_force_minimum
    spent = []

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return brute_force_minimum(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - started)

    harness.brute_force_minimum = timed
    t2 = time.perf_counter()
    harness.prepare_context(cfg)
    t3 = time.perf_counter()
    print(json.dumps({
        "import_s": t1 - t0,
        "prepare_context_s": t3 - t2,
        "brute_force_minimum_s": sum(spent),
    }))


if __name__ == "__main__":
    main()
