"""Invariants of the gate table (``repro.bench.GATES``).

Every gate command is one :class:`~repro.bench.cellrunner.Gate` row served
by one driver, so the per-row checks live here once: ids, selection, what
the executor calls, the committed baseline, and the CLI surface the row's
sub-parser exposes (hard-coded: a row edit must not add or drop a flag).
"""

import argparse
import json
import os

import pytest

from repro.bench import GATES
from repro.bench.cellrunner import get_family, load_baseline
from repro.bench.regression import CADENCE_METRICS
from repro.cli import build_parser

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXECUTOR = {"--jobs", "--no-cache", "--timings"}
BASELINED = {"--update-baseline", "--baseline", "--rtol", "--out",
             "--cell", "--list-cells", "--quiet"} | EXECUTOR
OPTION_STRINGS = {
    "regress": BASELINED | {"--perturb"},
    "scale": BASELINED,
    "overlap": {"--procs", "--cycles", "--machine", "--out", "--quiet"}
    | EXECUTOR,
}


def _subparser(parser, words):
    for word in words:
        (action,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
        parser = action.choices[word]
    return parser


def test_the_table_has_exactly_the_three_gates():
    assert list(GATES) == ["regress", "scale", "overlap"]


def test_bench_serves_timings_only():
    """The insights smoke family is gone: each regress record carries its
    own diagnosis, so ``bench insights`` is a usage error."""
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["bench", "insights"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", sorted(OPTION_STRINGS))
class TestEveryRow:
    def test_family_resolves_and_ids_are_unique(self, name):
        """The row is everything the executor needs, in workers too."""
        gate = GATES[name]
        assert get_family(name) is gate and gate.family == name
        assert all(callable(f) for f in (gate.run, gate.spec, gate.describe))
        ids = [c.id for c in gate.matrix]
        assert len(ids) == len(set(ids))
        for cell in gate.matrix:
            assert gate.describe(cell)  # the progress line
            json.dumps(gate.spec(cell, {}))  # the cache identity

    def test_select_none_is_the_matrix(self, name):
        gate = GATES[name]
        assert gate.select(None) == list(gate.matrix)
        assert gate.select([]) == list(gate.matrix)

    def test_trends_read_matrix_cells(self, name):
        gate = GATES[name]
        ids = {c.id for c in gate.matrix}
        for t in gate.trends:
            assert set(t.cells) <= ids, t.id

    def test_committed_baseline_covers_the_row(self, name):
        gate = GATES[name]
        if gate.baseline is None:
            assert gate.check is not None, "a gate must diff or check"
            return
        payload = load_baseline(gate, os.path.join(REPO_ROOT, gate.baseline))
        assert set(payload["cells"]) == {c.id for c in gate.matrix}
        assert {t["id"] for t in payload["trends"]} == {t.id
                                                        for t in gate.trends}
        for record in payload["cells"].values():
            for metric in gate.exact_metrics + gate.banded_metrics:
                # cadence counters exist on cadence cells only
                assert metric in record or metric in CADENCE_METRICS, metric

    def test_subparser_exposes_exactly_the_parents_options(self, name):
        sub = _subparser(build_parser(), [name])
        flags = {s for a in sub._actions for s in a.option_strings}
        assert flags - {"-h", "--help"} == OPTION_STRINGS[name]
