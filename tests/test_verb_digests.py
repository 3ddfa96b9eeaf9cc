"""Each example verb keeps its exit code and the bytes it writes.

`tests/golden/verb_digests.json` maps each invocation of the five example
verbs on kp1-2 k = 1, 2, quintic i = 1..4 and hypercube k = 1..3 to
[exit code, SHA-256 of stdout, SHA-256 of stderr].
"""

import hashlib
import json
import pathlib

import pytest

from tropdeg.cli import main

TABLE = json.loads((pathlib.Path(__file__).resolve().parent / "golden" / "verb_digests.json").read_text())


def test_the_table_covers_five_verbs_on_nine_examples():
    verbs = {case.split()[0] for case in TABLE}
    examples = {tuple(case.split()[1:]) for case in TABLE}
    assert verbs == {"example", "check-simple", "embed-check", "lg-truncate", "render"}
    assert len(examples) == 9 and len(TABLE) == 45


@pytest.mark.parametrize("case", sorted(TABLE))
def test_example_verb_output_is_unchanged(capsys, case):
    code = main(case.split())
    out, err = capsys.readouterr()
    assert [code, *(hashlib.sha256(s.encode()).hexdigest() for s in (out, err))] == TABLE[case]
