"""Per-call cost of `fourwise_rademacher` on a parent tree and a change tree.

Both trees' `distmeantest` packages are loaded side by side in one process.
For each sign count b in B, each number is the cost of one
`fourwise_rademacher(seed, b)` call: seven calls on one `PublicSeed` (its
construction included, as a trial's seven transforms share one seed), best
of 5 `timeit` repeats of 2,000, divided by 7.  Each b is timed in three
rounds, the side timed first alternating.  The result is written under
`pieces` in the output JSON; its other keys are kept.

    python3 tools/sign_pieces.py --parent ../parent --change . --out BENCH_new.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import timeit
from pathlib import Path

import numpy as np

B = (2, 8, 32, 4096)
SIDES = ("parent", "change")
CALLS, NUMBER, REPEAT, ROUNDS = 7, 2000, 5, 3


def load(name: str, tree: Path):
    """The `distmeantest` package of `tree`, imported under `name`."""
    package = tree / "src" / "distmeantest"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def per_call_us(package, bits: np.ndarray, b: int) -> float:
    def seven():
        seed = package.PublicSeed(bits)
        for _ in range(CALLS):
            package.fourwise_rademacher(seed, b)
    return min(timeit.repeat(seven, number=NUMBER, repeat=REPEAT)) / NUMBER / CALLS * 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent commit's tree")
    parser.add_argument("--change", type=Path, required=True, help="changed tree")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    packages = {side: load(f"distmeantest_{side}", getattr(args, side)) for side in SIDES}
    rng = np.random.default_rng(2929)
    timed = {}
    for b in B:
        bits = rng.integers(0, 2, 4 * (b.bit_length() - 1) * CALLS, dtype=np.uint8)
        for package in packages.values():  # build the cached sign maps untimed
            package.fourwise_rademacher(package.PublicSeed(bits), b)
        timed[f"b{b}"] = {side: [] for side in SIDES}
        for round_ in range(ROUNDS):
            for side in SIDES if round_ % 2 == 0 else SIDES[::-1]:
                timed[f"b{b}"][side].append(round(per_call_us(packages[side], bits, b), 2))
        print(b, timed[f"b{b}"], flush=True)
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out["pieces"] = {"method": __doc__.split("\n\n")[1].replace("\n", " "),
                     "fourwise_rademacher_us": timed}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
