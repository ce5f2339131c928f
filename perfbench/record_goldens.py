#!/usr/bin/env python3
"""Record golden output hashes for perfbench at the current commit.

    python3 perfbench/record_goldens.py --size full --seeds 0-31

Each workload runs once per seed; the exit code and sha256 of every
command's output are added to goldens.json.  Goldens pin the bytes of
the commit they were recorded at, so record them only where the outputs
are known good, never to make a failing run pass: an output that fails
its command's check is refused, and so is an entry that would change a
recorded one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import OUT_DIR, Gate, import_sdlab, run_pass
from workloads import GOLDENS_PATH, SIZES, WORKLOADS, commands, load_goldens


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", choices=SIZES, default="full")
    p.add_argument("--seeds", type=_seeds, default=_seeds("1"),
                   help="seed or inclusive range, e.g. 0-31")
    args = p.parse_args(argv)

    cli = import_sdlab()
    goldens = load_goldens()
    tmp = os.path.join(OUT_DIR, f"record-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        for workload in WORKLOADS:
            cmds = commands(workload, args.size)
            for seed in args.seeds:
                gate = Gate(None)
                run_pass(cli, cmds, seed, tmp, gate, "record")
                if gate.failures:
                    sys.exit(f"{workload} seed {seed}: {gate.failures}")
                entry = {name: {"exit": h["exit"], "sha256": h["sha256"]}
                         for name, h in gate.hashes().items()}
                slot = goldens.setdefault(args.size, {}).setdefault(workload, {})
                old = slot.get(str(seed))
                if old is not None and old != entry:
                    sys.exit(f"{workload} seed {seed}: differs from the recorded "
                             "golden; refusing to overwrite it")
                slot[str(seed)] = entry
                print(f"{args.size} {workload} seed {seed}: recorded", flush=True)
                with open(GOLDENS_PATH, "w", encoding="utf-8") as fh:
                    json.dump(goldens, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
