"""Record the digests that the benchmark's exact gates compare against.

Run from the repository root, only at a commit whose outputs are known to
be right (the digests in golden.json were recorded at the seed commit):

    python3 perfbench/record_golden.py

It writes perfbench/golden.json: stdout digests of every fixed CLI call in
the workloads, of ``expect`` for every canonical pattern in each format, and
of the ``waiting_time_table`` rows.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coinwait import table  # noqa: E402

import workloads as w  # noqa: E402


def main() -> None:
    golden = {
        "cli": {" ".join(a): w.digest(w.run_cli(a).stdout) for a in w.FAR_CLI + w.WIDE_CLI},
        "expect": {
            text: [w.digest(w.run_cli(w.expect_argv(text, f)).stdout) for f in w.FORMATS]
            for text in w.canonical_patterns(w.EXPECT_MAX_LEN)
        },
        "api": {w.WIDE_TABLE_KEY: w.table_digest(table.waiting_time_table(w.WIDE_TABLE_LENGTHS))},
    }
    # One entry per line keeps the file small and its diffs readable.
    sections = []
    for name, entries in golden.items():
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
        sections.append(f"{json.dumps(name)}: {{\n{body}\n}}")
    w.GOLDEN_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n")


if __name__ == "__main__":
    main()
