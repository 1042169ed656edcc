"""Record the outputs that the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Runs every workload once per input variant, at full and smoke sizes, on the
checkout it sits in, and writes `perfbench/reference.json`. The committed
file was recorded on the commit that introduced the benchmark; record again
only when a change is meant to alter the outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main():
    if not run.prepare():
        return 2
    import workloads as W

    refs = {}
    for mode, sizes in (("smoke", W.SMOKE), ("full", W.FULL)):
        for name, cls in W.WORKLOADS.items():
            for variant in range(W.VARIANTS):
                wl = cls(run.ROOT, variant, sizes, os.path.join(run.HERE, "out", "work", name))
                wl.setup()
                ctx = run.Ctx(None)
                for p in range(wl.min_passes):
                    ctx.pass_index = p
                    wl.run_pass(ctx)
                problems = wl.check(None) + ctx.failures
                if problems:
                    print(f"{mode} {name} variant {variant}: {problems}", file=sys.stderr)
                    return 1
                refs.setdefault(mode, {}).setdefault(name, {})[str(variant)] = wl.observed
                print(f"{mode} {name} variant {variant}: {wl.observed}", flush=True)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
