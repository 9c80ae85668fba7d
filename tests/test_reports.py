"""Every command of the report-digest corpus gives its recorded exit code,
stderr text and report digest (see ``regenerate_reports``)."""

import json

import pytest

from regenerate_reports import COMMANDS, CORPUS, run

ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_the_corpus_lists_the_commands():
    assert [(e["prog"], e["argv"]) for e in ENTRIES] == [(prog, argv) for prog, argv in COMMANDS]


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join([e["prog"], *e["argv"]]))
def test_command_matches_its_entry(tmp_path, entry):
    assert run(entry["prog"], entry["argv"], tmp_path) == entry
