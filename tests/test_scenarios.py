"""Tests for the scenario ingestion layer (repro.scenarios).

Covers the two parameter-file dialects (parsing quirks, normalization
rules, malformed-input rejection), the hypothesis round-trip property
(emit -> parse -> normalize is a fixed point on normalized scenarios),
the registry, the workload builders' fresh-hierarchy contract, the CLI
error paths, and partition invariance of the gated scenarios.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import build_initial_workload, build_workload
from repro.core import trace_filesystem
from repro.enzo import RankState, hierarchies_equivalent
from repro.iostack import registry
from repro.mpi import run_spmd
from repro.scenarios import (
    Scenario,
    ScenarioError,
    build_hierarchy,
    emit_enzo,
    emit_nyx,
    load_param_file,
    normalize_enzo,
    normalize_nyx,
    parse_enzo,
    parse_nyx,
    sniff_dialect,
)
from repro.scenarios import registry as scenario_registry

from .conftest import make_machine

FOGGIE_EXAMPLE = "examples/scenarios/foggie_25Mpc_DM_256-L2.enzo"
NYX_EXAMPLE = "examples/scenarios/nyx_lya_low_mem_long_time.inputs"


class TestEnzoParser:
    def test_comments_tabs_and_trailing_slashes(self):
        raw = parse_enzo(
            "# full-line comment\n"
            "ProblemType = 30 // trailing comment\n"
            "dtDataDump \t = 10\n"
            "StopCycle=100000\n"
        )
        assert raw["ProblemType"] == "30"
        assert raw["dtDataDump"] == "10"
        assert raw["StopCycle"] == "100000"

    def test_later_assignment_wins(self):
        raw = parse_enzo("StopCycle = 1\nStopCycle = 7\n")
        assert raw["StopCycle"] == "7"

    def test_indexed_keys(self):
        raw = parse_enzo("CosmologyOutputRedshift[0] = 99.0\n")
        assert raw["CosmologyOutputRedshift[0]"] == "99.0"

    def test_bare_token_is_empty_value(self):
        assert parse_enzo("NumberOfOutputsBeforeExit\n") == {
            "NumberOfOutputsBeforeExit": ""
        }

    def test_multi_token_without_equals_rejected(self):
        with pytest.raises(ScenarioError, match="no '='"):
            parse_enzo("this is not an assignment\n")

    def test_bad_key_rejected(self):
        with pytest.raises(ScenarioError, match="bad parameter key"):
            parse_enzo("3bad = 1\n")


class TestNyxParser:
    def test_dotted_keys_and_quoted_values(self):
        raw = parse_nyx(
            'amr.probin_file = ""\n'
            "amr.plot_file = 1/plt\n"
            "geometry.is_periodic = 1 1 1\n"
        )
        assert raw["amr.probin_file"] == '""'
        assert raw["amr.plot_file"] == "1/plt"

    def test_truncated_final_bare_key(self):
        raw = parse_nyx("nyx.h_species = .76\nnyx.he_species\n")
        assert raw["nyx.he_species"] == ""

    def test_multi_token_without_equals_rejected(self):
        with pytest.raises(ScenarioError, match="no '='"):
            parse_nyx("stray tokens here\n")


class TestNormalization:
    def test_foggie_example_file(self):
        s = load_param_file(FOGGIE_EXAMPLE)
        assert s.source_dialect == "enzo"
        assert s.root_dims == (256, 256, 256)
        # The example's nested-grid quadruples are commented out.
        assert s.nested_grids == ()
        assert len(s.must_refine) == 1
        assert s.must_refine[0].level == 2
        assert s.checkpoint_every == 1  # dtDataDump = 10
        assert s.ncycles == 4  # StopCycle = 100000, clamped
        assert s.output_redshifts == (99.0,)
        assert s.initial_redshift == 99.0 and s.final_redshift == 0.0

    def test_nyx_example_file(self):
        s = load_param_file(NYX_EXAMPLE)
        assert s.source_dialect == "nyx"
        assert s.root_dims == (256, 256, 256)
        assert s.max_level == 0
        assert s.max_grid_size == 128
        assert s.ncycles == 4  # max_step = 600, clamped
        # checkpoint_files_output = 0: the checkpoint stream is off.
        assert s.checkpoint_every == 0
        assert s.plot_every == 1
        assert s.plot_fields == ("density",)
        # analysis_z_values filtered to [final_z, initial_z], descending.
        assert s.output_redshifts == (7.0, 6.0, 5.0, 4.0, 3.0, 2.0)

    def test_nyx_cadence_ratio_preserved(self):
        s = normalize_nyx(
            parse_nyx("amr.n_cell = 16 16 16\n"
                      "amr.plot_int = 10\namr.check_int = 100\n"),
            name="t",
        )
        assert s.plot_every == 1
        assert s.checkpoint_every == 10

    def test_sniff_dialect(self):
        assert sniff_dialect("amr.n_cell = 8 8 8\n") == "nyx"
        assert sniff_dialect("TopGridDimensions = 8 8 8\n") == "enzo"

    def test_downscaled_keeps_geometry(self):
        s = load_param_file(FOGGIE_EXAMPLE).downscaled(8)
        assert s.root_dims == (32, 32, 32)
        assert s.name.endswith("/8")
        assert s.must_refine == load_param_file(FOGGIE_EXAMPLE).must_refine


class TestMalformedInputs:
    def test_missing_root_dims(self):
        with pytest.raises(ScenarioError, match="TopGridDimensions"):
            normalize_enzo({}, name="t")
        with pytest.raises(ScenarioError, match="amr.n_cell"):
            normalize_nyx({}, name="t")

    def test_non_numeric_dims(self):
        with pytest.raises(ScenarioError, match="expected integers"):
            normalize_enzo(
                parse_enzo("TopGridDimensions = a b c\n"), name="t"
            )
        with pytest.raises(ScenarioError, match="expected integers"):
            normalize_nyx(parse_nyx("amr.n_cell = 16 sixteen 16\n"), name="t")

    def test_wrong_rank_rejected(self):
        with pytest.raises(ScenarioError, match="TopGridRank"):
            normalize_enzo(
                parse_enzo("TopGridRank = 2\nTopGridDimensions = 8 8\n"),
                name="t",
            )

    def test_tiny_max_grid_size_rejected(self):
        with pytest.raises(ScenarioError, match="max_grid_size"):
            normalize_nyx(
                parse_nyx("amr.n_cell = 16 16 16\namr.max_grid_size = 4\n"),
                name="t",
            )

    def test_tiny_root_dims_rejected(self):
        with pytest.raises(ScenarioError):
            normalize_enzo(
                parse_enzo("TopGridDimensions = 4 4 4\n"), name="t"
            )

    def test_incomplete_nested_grid_rejected(self):
        text = (
            "TopGridDimensions = 16 16 16\n"
            "CosmologySimulationGridDimension[1] = 8 8 8\n"
            "CosmologySimulationGridLevel[1] = 1\n"
        )
        with pytest.raises(ScenarioError, match="nested grid 1"):
            normalize_enzo(parse_enzo(text), name="t")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field",
        ["particles_per_cell", "refine_threshold", "init_refine_threshold"],
    )
    def test_non_finite_number_rejected(self, field, value):
        # validate() alone: a build that accepted a -inf threshold would
        # refine every cell to max_level before anything noticed.
        scenario = replace(scenario_registry.get("AMR16"), **{field: value})
        with pytest.raises(ScenarioError, match=f"AMR16: {field} must be finite"):
            scenario.validate()

    def test_non_finite_threshold_is_an_error_not_a_root_only_hierarchy(self):
        nan = float("nan")
        with pytest.raises(ScenarioError, match="refine_threshold"):
            build_workload(
                replace(scenario_registry.get("AMR16"), refine_threshold=nan))
        with pytest.raises(ScenarioError, match="init_refine_threshold"):
            build_initial_workload(
                replace(scenario_registry.get("AMR16"), init_refine_threshold=nan))
        with pytest.raises(ScenarioError, match="particles_per_cell"):
            build_workload(
                replace(scenario_registry.get("AMR16"), particles_per_cell=nan))

    def test_param_file_not_found_and_directory(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_param_file(str(tmp_path / "nope.enzo"))
        with pytest.raises(ScenarioError, match="directory"):
            load_param_file(str(tmp_path))


@st.composite
def enzo_texts(draw):
    """Random Enzo-dialect files whose normalization is well-defined."""
    dim = draw(st.sampled_from([8, 16, 32]))
    lines = [
        "TopGridRank                = 3",
        f"TopGridDimensions          = {dim} {dim} {dim}",
        f"MaximumRefinementLevel     = {draw(st.integers(0, 6))}",
    ]
    for i in range(1, draw(st.integers(0, 2)) + 1):
        # Cell-aligned level-1 boxes on a power-of-two root: the edge
        # fractions are binary-exact, so emit/parse cannot drift.
        a = draw(st.integers(0, dim - 4))
        w = draw(st.integers(2, dim - a))
        lines += [
            f"CosmologySimulationGridDimension[{i}] = {2*w} {2*w} {2*w}",
            f"CosmologySimulationGridLeftEdge[{i}] = "
            f"{a/dim} {a/dim} {a/dim}",
            f"CosmologySimulationGridRightEdge[{i}] = "
            f"{(a+w)/dim} {(a+w)/dim} {(a+w)/dim}",
            f"CosmologySimulationGridLevel[{i}] = 1",
        ]
    if draw(st.booleans()):
        lines += [
            "MustRefineParticlesCreateParticles = 3",
            f"MustRefineParticlesRefineToLevel = {draw(st.integers(1, 3))}",
        ]
    lines.append(f"dtDataDump = {draw(st.sampled_from([0, 10]))}")
    lines.append(f"StopCycle = {draw(st.integers(1, 9))}")
    if draw(st.booleans()):
        lines += [
            "CosmologyInitialRedshift = 99",
            "CosmologyFinalRedshift = 0",
        ]
        zs = draw(st.lists(st.integers(1, 98), max_size=3, unique=True))
        for j, z in enumerate(sorted(zs, reverse=True)):
            lines.append(f"CosmologyOutputRedshift[{j}] = {z}.0")
    return "\n".join(lines) + "\n"


@st.composite
def nyx_texts(draw):
    """Random Nyx-dialect files whose normalization is well-defined."""
    dim = draw(st.sampled_from([8, 16, 32]))
    lines = [
        f"amr.n_cell = {dim} {dim} {dim}",
        f"amr.max_level = {draw(st.integers(0, 4))}",
        f"max_step = {draw(st.integers(1, 9))}",
    ]
    mgs = draw(st.sampled_from([0, 8, 16, 64]))
    if mgs:
        lines.append(f"amr.max_grid_size = {mgs}")
    lines += [
        f"amr.plot_files_output = {int(draw(st.booleans()))}",
        f"amr.plot_int = {draw(st.integers(1, 5))}",
        f"amr.checkpoint_files_output = {int(draw(st.booleans()))}",
        f"amr.check_int = {draw(st.integers(1, 5))}",
    ]
    vars_spec = draw(st.sampled_from(
        ["", "density", "density temperature", "ALL", "NONE"]
    ))
    if vars_spec:
        lines.append(f"amr.plot_vars = {vars_spec}")
    if draw(st.booleans()):
        lines += [
            "nyx.initial_z = 200.0",
            "nyx.final_z = 1.0",
            "nyx.analysis_z_values = 7.0 5.0 2.0",
        ]
    return "\n".join(lines) + "\n"


class TestRoundTrip:
    """emit -> parse -> normalize is a fixed point on normalized scenarios."""

    @settings(max_examples=50, deadline=None)
    @given(text=enzo_texts())
    def test_enzo_round_trip(self, text):
        s0 = normalize_enzo(parse_enzo(text), name="rt")
        s1 = normalize_enzo(parse_enzo(emit_enzo(s0)), name="rt")
        assert s1 == s0

    @settings(max_examples=50, deadline=None)
    @given(text=nyx_texts())
    def test_nyx_round_trip(self, text):
        s0 = normalize_nyx(parse_nyx(text), name="rt")
        s1 = normalize_nyx(parse_nyx(emit_nyx(s0)), name="rt")
        assert s1 == s0

    def test_builtin_gated_scenarios_round_trip(self):
        foggie = scenario_registry.get("foggie-nested")
        rt = normalize_enzo(
            parse_enzo(emit_enzo(foggie)), name=foggie.name
        )
        # deep_levels/description are registry annotations, not part of
        # the dialect; everything the dialect expresses must survive.
        assert rt.root_dims == foggie.root_dims
        assert rt.nested_grids == foggie.nested_grids
        assert rt.must_refine == foggie.must_refine
        assert rt.max_level == foggie.max_level
        nyx = scenario_registry.get("nyx-plotfile")
        rt = normalize_nyx(parse_nyx(emit_nyx(nyx)), name=nyx.name)
        assert rt.root_dims == nyx.root_dims
        assert rt.plot_every == nyx.plot_every
        assert rt.checkpoint_every == nyx.checkpoint_every
        assert rt.output_redshifts == nyx.output_redshifts


class TestRegistry:
    def test_names_and_get(self):
        names = scenario_registry.names()
        for expected in ("AMR64", "foggie-nested", "nyx-plotfile",
                         "flashx-particles"):
            assert expected in names

    def test_unknown_name_message_shape(self):
        with pytest.raises(ScenarioError, match="choose from"):
            scenario_registry.get("AMR1024")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            scenario_registry.register(scenario_registry.get("AMR16"))

    def test_gated_scenarios_build(self):
        foggie = build_workload("foggie-nested")
        assert foggie.max_level == 5  # deep zoom reaches the cap
        nyx = build_workload("nyx-plotfile")
        assert nyx.max_level == 1  # amr.max_level = 1
        flash = build_workload("flashx-particles")
        amr32 = build_workload("AMR32")
        assert flash.total_particles() > 4 * amr32.total_particles()


class TestDefensiveCopies:
    def test_mutating_a_workload_cannot_poison_the_cache(self):
        pristine = build_workload("AMR16")
        victim = build_workload("AMR16")
        victim.root.fields["density"][:] = -1.0
        again = build_workload("AMR16")
        assert again.equal(pristine)
        assert not again.equal(victim)

    def test_initial_workload_also_copies(self):
        a = build_initial_workload("AMR16")
        b = build_initial_workload("AMR16")
        assert a is not b and a.equal(b)

    def test_two_cached_runs_produce_identical_digests(self):
        """Two consecutive runs of the same workload are bit-equal even
        when the first run's caller mutates its hierarchy."""
        digests = []
        for _ in range(2):
            machine = make_machine(2)
            hierarchy = build_workload("AMR16")
            trace = trace_filesystem(machine.fs, include_meta=True)

            def program(comm, h=hierarchy):
                state = RankState.from_hierarchy(h, comm.rank, comm.size)
                registry.create("mpi-io").write_checkpoint(comm, state, "ckpt")

            run_spmd(machine, program)
            trace.detach()
            digests.append(trace.digest())
            # Poison this run's hierarchy; a builder that aliased it would
            # leak it into the next build_workload call.
            hierarchy.root.fields["density"][:] = 1e9
        assert digests[0] == digests[1]


class TestCLIErrors:
    def test_unknown_scenario_exits_2(self, capsys):
        from repro.cli import main

        rc = main(["simulate", "--scenario", "no-such-scenario"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "choose from" in err

    def test_unknown_problem_exits_2_same_shape(self, capsys):
        from repro.cli import main

        rc = main(["analyze", "--problem", "AMRBOGUS"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "choose from" in err

    def test_config_root_dims_raises_choose_from(self):
        from repro.enzo import EnzoConfig

        with pytest.raises(ValueError, match="choose from"):
            EnzoConfig(problem="AMRBOGUS").scenario()

    def test_missing_param_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["analyze", "--param-file", str(tmp_path / "nope.enzo")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_scenarios_listing(self, capsys):
        from repro.cli import main

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("AMR64", "foggie-nested", "nyx-plotfile",
                     "flashx-particles"):
            assert name in out


@pytest.mark.parametrize(
    "name", ["foggie-nested", "nyx-plotfile", "flashx-particles"]
)
def test_partition_invariant_restart(name):
    """Each gated scenario's checkpoint restarts bit-identically at P and
    2P (the restart read redistributes whole subgrids, so the rebuilt
    hierarchy must not depend on the reader's processor count)."""
    hierarchy = build_workload(name)
    machine = make_machine(2)

    def write_program(comm):
        state = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        registry.create("mpi-io").write_checkpoint(comm, state, "ckpt")

    run_spmd(machine, write_program)
    for nprocs in (2, 4):
        reader = make_machine(nprocs, fs=machine.fs)

        def read_program(comm):
            state, _stats = registry.create("mpi-io").read_checkpoint(comm, "ckpt")
            return state

        res = run_spmd(reader, read_program)
        rebuilt = RankState.collect(res.results)
        assert hierarchies_equivalent(rebuilt, hierarchy), f"P={nprocs}"
