"""Orientation gate: a composition stored under any per-key orientation
gives byte-identical reports.

Each antisymmetric composition entry may be stored as given, flipped
with its coefficient negated, or in both orientations with consistent
values. Every `check lie|colie|bialgebra|four-pairs` report and every
`family` report, in text and JSON, and `family`'s emitted document must
then be the same as for the document as given.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import bialgebra_forge as bf
from bialgebra_forge.cli import main

import gln

COMMANDS = (
    ["check", "lie"],
    ["check", "colie"],
    ["check", "bialgebra", "mu_100", "delta_010"],
    ["check", "bialgebra", "mu_001", "delta_001"],
    ["check", "four-pairs"],
    ["family"],
)


def _sources() -> dict:
    out = {"@corrected": bf.load_bundled("corrected").to_dict()}
    for n in (2, 3):
        r0 = gln.cartan_r(n, {(0, 1): 3})
        out[f"gl{n}"] = gln.document(n, gln.four_pairs(n, r0))
    return out


SOURCES = _sources()


def _flipped(entry, kind) -> dict:
    """The same constant stored under the other orientation."""
    side = "lower" if kind == "bracket" else "upper"
    return {**entry, side: entry[side][::-1], "coeff": f"-({entry['coeff']})"}


def _reoriented(data, choices) -> dict:
    """data with entry number k of each composition stored as given
    ("o"), flipped ("f") or both ("b"), reading choices in turn."""
    data = copy.deepcopy(data)
    choice = iter(choices)
    for comp in data["compositions"].values():
        entries = []
        for entry in comp["entries"]:
            how = next(choice)
            if how in "ob":
                entries.append(entry)
            if how in "fb":
                entries.append(_flipped(entry, comp["kind"]))
        comp["entries"] = entries
    return data


def _reports(data) -> list:
    """Exit code, stdout and stderr of every command in both formats, with
    the document that `family` emits."""
    out = []
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "doc.json"
        path.write_text(json.dumps(data))
        emitted = Path(scratch) / "family.json"
        for command in COMMANDS:
            for fmt in ("text", "json"):
                argv = [*command, str(path), "--format", fmt]
                if command == ["family"]:
                    argv += ["--output", str(emitted)]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                out.append((" ".join(command), fmt, code, stdout.getvalue(),
                            stderr.getvalue()))
        out.append(("family --output", emitted.read_text()))
    return out


REFERENCE = {name: _reports(data) for name, data in SOURCES.items()}


def _entry_count(data) -> int:
    return sum(len(comp["entries"]) for comp in data["compositions"].values())


@settings(max_examples=24, derandomize=True, deadline=None)
@given(data=st.data(), source=st.sampled_from(sorted(SOURCES)))
def test_reports_do_not_depend_on_stored_orientation(data, source):
    original = SOURCES[source]
    count = _entry_count(original)
    choices = data.draw(st.lists(st.sampled_from("ofb"), min_size=count, max_size=count))
    assert _reports(_reoriented(original, choices)) == REFERENCE[source]


def test_every_orientation_at_once():
    """Each source flipped throughout, and stored in both orientations
    throughout."""
    for source, original in SOURCES.items():
        for how in "fb":
            again = _reoriented(original, how * _entry_count(original))
            assert _reports(again) == REFERENCE[source], (source, how)
