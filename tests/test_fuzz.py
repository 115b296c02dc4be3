"""Seeded fuzzing of the document grammar through `cli.main`, in process.

Each case mutates a corpus document (deletes keys or list items, adds unknown
keys, replaces values from a fixed pool of awkward values) and runs every
subcommand on it, in text and --json. Whatever the input, a command exits 0, 1
or 2 and raises nothing; a failed command writes no stdout and exactly one
`error:` line to stderr.
"""
from __future__ import annotations

import json
import random

from cases import POOL, invoke, mutate
from conftest import CORPUS_DIR

SEED = 27
CASES = 1000

COMMANDS = (
    ("validate",),
    ("analyze",),
    *(
        ("lcp", action, *flags)
        for action in ("detect", "max-flat", "from-triple", "char-bound")
        for flags in ((), ("--json",))
    ),
    *(("lattice", action, *flags) for action in ("snf", "index", "lemma51") for flags in ((), ("--json",))),
)


def test_mutated_corpus_documents_give_an_exit_code_and_at_most_one_error_line(tmp_path):
    rng = random.Random(SEED)
    corpus = [
        json.loads(path.read_text(encoding="utf-8")) for path in sorted(CORPUS_DIR.glob("*.json"))
    ]
    path = tmp_path / "doc.json"
    for case in range(CASES):
        path.write_text(json.dumps(mutate(rng, rng.choice(corpus))), encoding="utf-8")
        candidate = json.dumps(rng.choice(POOL))
        for command in COMMANDS:
            argv = [*command, str(path)]
            if command[1:2] == ("char-bound",) and rng.random() < 0.5:
                argv.append(f"--candidate={candidate}")
            code, out, err = invoke(argv).values()
            assert code in (0, 1, 2), (case, argv)
            if err:
                assert out == "" and code != 0, (case, argv)
            if code and not out:
                assert err.startswith("error: ") and err.count("\n") == 1, (case, argv, err)
            else:
                assert err == "", (case, argv, err)
