"""Write search_refs.json: the reference hits of every search configuration.

    python3 perfbench/make_refs.py

Runs each search configuration of the workloads once, at the largest bound
it draws, and keeps the solution records without their ``bounds`` field.
The self-tests check the pair references against ``oracle_search`` and the
published solution sets; rerun this only when a workload's configurations
change, never to make a failing job pass.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import ballab.cli  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    refs = {}
    for configs in WORKLOADS.values():
        for config in configs:
            if config.argv[0] != "search":
                continue
            argv = [*config.argv, config.bound_flag, str(config.hi)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = ballab.cli.main(argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            lines = out.getvalue().splitlines()[:-1]
            records = [{k: v for k, v in json.loads(line).items() if k != "bounds"}
                       for line in lines]
            refs[config.name] = {"argv": list(config.argv), "max_index": config.hi,
                                 "records": records}
            print(f"{config.name}: {len(records)} hits up to {config.hi}", file=sys.stderr)
    with open(reference.SEARCH_REFS_PATH, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
