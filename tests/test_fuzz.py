"""Seeded fuzzing of the document grammar through `cli.main`, in process.

Each case mutates a corpus document (deletes keys or list items, adds unknown
keys, replaces values from a fixed pool of awkward values) and runs every
subcommand on it, in text and --json. Whatever the input, a command exits 0, 1
or 2 and raises nothing; a failed command writes no stdout and exactly one
`error:` line to stderr.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import random

from lcplie.cli import main

from conftest import CORPUS_DIR

SEED = 27
CASES = 1000

POOL = (
    True,
    False,
    None,
    0.5,
    -1e300,
    0,
    -3,
    "",
    "x",
    "1/0",
    "١",
    "0",
    "2",
    "-1/2",
    "7/3",
    1,
    "1" * 5000 + "/7",
    [],
    [[]],
    [["1", "0"], ["0"]],
    [[["1"]]],
    {},
    {"i": 0, "j": 1, "c": {"0": "1"}},
)

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


def nodes(tree, parent=None, key=None):
    """Every (container, key) slot of the JSON tree, the root as (None, None)."""
    yield parent, key
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from nodes(v, tree, k)
    elif isinstance(tree, list):
        for k, v in enumerate(tree):
            yield from nodes(v, tree, k)


def mutate(rng: random.Random, doc):
    """doc after one or two random deletions, unknown keys or pool values."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        parent, key = rng.choice(list(nodes(doc)))
        kind = rng.choice(("delete", "add", "replace"))
        if parent is None:
            doc = copy.deepcopy(rng.choice(POOL)) if kind == "replace" else doc
        elif kind == "delete":
            del parent[key]
        elif kind == "add" and isinstance(parent, dict):
            parent[f"unknown{rng.randrange(3)}"] = copy.deepcopy(rng.choice(POOL))
        else:
            parent[key] = copy.deepcopy(rng.choice(POOL))
    return doc


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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
            code, out, err = invoke(argv)
            assert code in (0, 1, 2), (case, argv)
            if err:
                assert out == "" and code != 0, (case, argv)
            if code and not out:
                assert err.startswith("error: ") and err.count("\n") == 1, (case, argv, err)
            else:
                assert err == "", (case, argv, err)
