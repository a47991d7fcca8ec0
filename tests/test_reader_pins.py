"""Pinned reader results: what each phase reader makes of about a hundred
hand-edited documents of each kind.

`tests/data/reader_pins.json` holds, for each of the `.pl0+lex`,
`.pl0+sin`, `.pl0+sem` and `.p+` documents, edits of the documents that
the corpus programs and the progen programs of seeds 1000-1003 are
written as: the program, the offset, the text the edit replaced and the
text it put there, with what `reader_diff.outcome` gave for the edited
document when the pins were taken, which is the digest of the records
read, or the exception's class and text.  The edits were drawn with
`test_fuzz.mutate`, but the file keeps the edits themselves, so
replaying them does not depend on Hypothesis.  A reader that reports
another fault first, words a message otherwise, or reads other records
fails here.

    PYTHONPATH=src python tests/test_reader_pins.py [--count N]

takes the pins again, with the readers of the `src/` on the path: do
that only where a reader's result is meant to change.

    PYTHONPATH=src python tests/test_reader_pins.py --replay

keeps the stored edits and gives each the outcome those readers give
now.  Per kind, it prints how many outcomes changed and how many of
those were or became an `error`, so a change meant to move only what
documents read shows that it moved nothing else.
"""

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import reader_diff

PINS = Path(__file__).resolve().parent / "data" / "reader_pins.json"
KINDS = (".pl0+lex", ".pl0+sin", ".pl0+sem", ".p+")
SEEDS = range(1000, 1004)
MAX_EDIT = 600  # characters replaced and put in, together


@lru_cache(maxsize=None)
def documents() -> dict:
    """Each kind's document of each program, by kind and program name."""
    programs = reader_diff.sources(SEEDS)
    docs = reader_diff.documents(programs)
    return {kind: dict(zip(programs, docs[kind])) for kind in KINDS}


def edited(kind: str, program: str, offset: int, old: str, new: str) -> str:
    """The program's `kind` document with `old` at `offset` made `new`."""
    text = documents()[kind][program]
    assert text[offset:offset + len(old)] == old, (program, offset)
    return text[:offset] + new + text[offset + len(old):]


@lru_cache(maxsize=None)
def pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def replayed(kind: str) -> list:
    """The stored edits of `kind`, each with the outcome the readers on
    the path give for it."""
    return [[*key, reader_diff.outcome(kind, edited(kind, *key))]
            for *key, _ in pins()[kind]]


@pytest.mark.parametrize("kind", KINDS)
def test_reader_results_are_pinned(kind):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))  # repr recurses over trees
    try:
        wrong = [(pin[:4], pin[4], found[4]) for pin, found
                 in zip(pins()[kind], replayed(kind)) if pin != found]
    finally:
        sys.setrecursionlimit(limit)
    assert not wrong, "\n".join(map(repr, wrong[:5]))
    assert len(pins()[kind]) >= 90


def edit(before: str, after: str) -> tuple[int, str, str]:
    """The one span that turns `before` into `after`: its offset, the text
    it holds in `before` and the text it holds in `after`."""
    start = 0
    while start < min(len(before), len(after)) \
            and before[start] == after[start]:
        start += 1
    end = 0
    while end < min(len(before), len(after)) - start \
            and before[-1 - end] == after[-1 - end]:
        end += 1
    return (start, before[start:len(before) - end],
            after[start:len(after) - end])


def take(count: int) -> dict:
    """`count` distinct edits per kind, each with its outcome."""
    from hypothesis import HealthCheck, Phase, given, settings
    from hypothesis import seed as fixed_seed
    from hypothesis import strategies as st
    from test_fuzz import mutate

    taken = {}
    for seed, kind in enumerate(KINDS):
        named = list(documents()[kind].items())
        edits = {}

        @fixed_seed(seed)
        @settings(max_examples=count * 4, database=None, deadline=None,
                  phases=[Phase.generate],
                  suppress_health_check=list(HealthCheck))
        @given(st.data())
        def draw(data):
            program, text = data.draw(st.sampled_from(named))
            offset, old, new = edit(text, mutate(data, text))
            if len(edits) < count and old != new \
                    and len(old) + len(new) <= MAX_EDIT:
                edits[program, offset, old, new] = None

        draw()
        taken[kind] = [[*key, reader_diff.outcome(kind, edited(kind, *key))]
                       for key in edits]
    return taken


def replay() -> dict:
    """Every kind's stored edits with their outcomes now, after printing
    per kind how many changed and how many of those an `error` is in."""
    taken = {}
    for kind in KINDS:
        taken[kind] = replayed(kind)
        changed = [(pin[4][0], now[4][0]) for pin, now
                   in zip(pins()[kind], taken[kind]) if pin != now]
        errors = sum("error" in pair for pair in changed)
        print(f"{kind}: {len(changed)} of {len(taken[kind])} outcomes "
              f"changed, {errors} of them to or from an error")
    return taken


if __name__ == "__main__":
    sys.setrecursionlimit(20000)
    arguments = sys.argv[1:]
    if arguments == ["--replay"]:
        taken = replay()
    elif not arguments or len(arguments) == 2 and arguments[0] == "--count":
        taken = take(int(arguments[1]) if arguments else 100)
    else:  # an unknown argument rewrites nothing
        sys.exit(__doc__)
    PINS.write_text(json.dumps(taken, ensure_ascii=False, indent=1)
                    + "\n", encoding="utf-8")
