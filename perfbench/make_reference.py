"""Regenerate the committed reference records for the default seed.

    python3 perfbench/make_reference.py [--workload NAME ...]

Each workload's grid runs serially in one suite with every validator on; the records,
minus their wall-clock fields, are written sorted by cell id to
``reference/<workload>.jsonl``.  Pool runs of the benchmark are compared
against these serial records.  Regenerate them only when a change is meant
to alter records, and say so in the change.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    run._ensure_program()
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        units, _ = run.run_units(workload, [workload.spec(DEFAULT_SEED, validate=True)], 1, [0])
        failed = [unit.spec.name for unit in units if unit.error]
        if failed:
            raise SystemExit("reference run failed in {}".format(failed))
        records = sorted(
            (json.loads(run.canonical(r)) for unit in units for r in unit.records),
            key=lambda record: record["cell"],
        )
        path = os.path.join(run.REFERENCE_DIR, "{}.jsonl".format(name))
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        print("{}: {} records -> {}".format(name, len(records), path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
