import copy
import math
import time
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml

from remest import (
    NonConvergentError,
    ProcessModel,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    SemiMarkovChannelModel,
)
from remest import sim
from remest.cli import main
from remest.scenario import (
    _FIELD_PATHS,
    AxisSpec,
    SweepSpec,
    bundled_scenario_path,
    load_bundled_scenario,
    load_scenario,
    parse_scenario_dict,
)
from remest.stability import StabilityReport, verdict_for
from remest.sweep import (
    apply_axes,
    compare_csi,
    sweep_simulated,
    sweep_stability,
    write_simulated_csv,
    write_sweep_csv,
)

from conftest import long_holding_scenario
from oracles import cascaded_index, per_cell_simulated_sweep, per_cell_sweep_factors


def bundled_dict():
    with open(bundled_scenario_path(), "rb") as fh:
        return yaml.safe_load(fh)


def per_cascade_sweep_scenario():
    """Bundled scenario with a per-cascaded-state drop table and two state axes."""
    data = bundled_dict()
    data["drops"] = {
        "per_cascade": [[0.1 * (k % 5) + 0.05, 0.9 - 0.1 * k] for k in range(8)]
    }
    data["sweep"]["axes"] = [
        {"state": 1, "frequency": 1, "min": 0.0, "max": 1.0},
        {"state": 6, "frequency": 2, "min": 0.2, "max": 0.7},
    ]
    return parse_scenario_dict(data)


class TestLoadScenario:
    def test_bundled_example_dimensions(self):
        loaded = load_bundled_scenario()
        s = loaded.scenario
        assert s.num_sensors == 3
        assert s.num_frequencies == 2
        assert s.channel.num_quality_states == 4
        assert s.channel.max_holding == 2
        assert s.chain.num_states == 8
        assert loaded.sweep is not None and loaded.sim is not None
        assert loaded.sweep.grid == (101, 101)
        assert len(loaded.sha256) == 64

    def test_bundled_notes_mention_row_correction(self):
        loaded = load_bundled_scenario()
        assert "row 4" in loaded.notes.lower()

    def test_bad_row_sum_names_the_row(self):
        data = bundled_dict()
        data["channel"]["transition"][3] = [0.3, 0.1, 0.4, 0.3]  # sums to 1.1
        with pytest.raises(ScenarioValidationError, match=r"channel\.transition\[3\]"):
            parse_scenario_dict(data)

    def test_single_holding_degenerates_to_quality_chain(self, tmp_path):
        data = bundled_dict()
        data["channel"]["holding_pmf"] = [1.0]
        data["channel"]["max_holding"] = 1
        loaded = parse_scenario_dict(data)
        np.testing.assert_array_equal(
            loaded.scenario.chain.transition, np.asarray(data["channel"]["transition"])
        )

    def test_too_many_frequencies_rejected(self):
        data = bundled_dict()
        data["processes"] = data["processes"][:2]
        with pytest.raises(ScenarioValidationError, match="fewer frequencies"):
            parse_scenario_dict(data)

    def test_missing_section(self):
        data = bundled_dict()
        del data["drops"]
        with pytest.raises(ScenarioValidationError, match="drops"):
            parse_scenario_dict(data)

    def test_unknown_field_rejected(self):
        data = bundled_dict()
        data["channel"]["fading"] = "rayleigh"
        with pytest.raises(ScenarioValidationError, match="unknown field"):
            parse_scenario_dict(data)

    def test_ragged_matrix_rejected(self):
        data = bundled_dict()
        data["processes"][0]["A"] = [[1.0, 0.0], [1.0]]
        with pytest.raises(ScenarioValidationError, match="rectangular"):
            parse_scenario_dict(data)

    def test_axis_requires_matching_granularity(self):
        data = bundled_dict()
        data["sweep"]["axes"][0] = {"state": 0, "frequency": 1, "min": 0.0, "max": 1.0}
        with pytest.raises(ScenarioValidationError, match="per_cascade"):
            parse_scenario_dict(data)

    def test_yaml_syntax_error_reports_location(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("processes:\n  - A: [[1.0]\n")
        with pytest.raises(ScenarioParseError, match="line"):
            load_scenario(bad)

    def test_holding_pmf_matrix_form(self):
        data = bundled_dict()
        data["channel"]["holding_pmf"] = [[0.5, 0.5]] * 4
        loaded = parse_scenario_dict(data)
        assert loaded.scenario.channel.max_holding == 2

    def test_per_cascade_drop_table(self):
        data = bundled_dict()
        del data["sweep"]
        data["drops"] = {"per_cascade": [[0.1, 0.2]] * 8}
        loaded = parse_scenario_dict(data)
        np.testing.assert_allclose(loaded.scenario.chain.drops, [[0.1, 0.2]] * 8)

    @pytest.mark.parametrize("policy", ["mdp-optimal", ["round-robin"], {"name": "round-robin"}])
    def test_bad_policy_name(self, policy):
        data = bundled_dict()
        data["sim"]["policy"] = policy
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario_dict(data)
        assert exc.value.path == "sim.policy"

    def test_axis_frequency_out_of_range(self):
        data = bundled_dict()
        data["sweep"]["axes"][0]["frequency"] = 3
        with pytest.raises(ScenarioValidationError, match="out of range"):
            parse_scenario_dict(data)

    def test_axis_level_out_of_range(self):
        data = bundled_dict()
        data["sweep"]["axes"][0]["level"] = 5
        with pytest.raises(ScenarioValidationError, match="out of range"):
            parse_scenario_dict(data)

    def test_duplicate_axes_rejected(self):
        data = bundled_dict()
        data["sweep"]["axes"][1] = dict(data["sweep"]["axes"][0])
        with pytest.raises(ScenarioValidationError, match="distinct"):
            parse_scenario_dict(data)


# One fault per model check: (keys to the replaced node, new value, expected path).
# The paths are a contract: error messages may change, paths may not.
MODEL_FAULTS = {
    "transition-shape": (("channel", "transition"), [[0.2, 0.3, 0.5]] * 3, "channel.transition"),
    "transition-row-sum": (
        ("channel", "transition", 1), [0.3, 0.1, 0.4, 0.3], "channel.transition[1]"
    ),
    "transition-negative": (
        ("channel", "transition", 2), [1.1, -0.1, 0.0, 0.0], "channel.transition[2]"
    ),
    "holding-row-count": (("channel", "holding_pmf"), [[0.5, 0.5]] * 3, "channel.holding_pmf"),
    "holding-shared-row": (("channel", "holding_pmf"), [0.5, 0.6], "channel.holding_pmf[0]"),
    "holding-state-row": (
        ("channel", "holding_pmf"),
        [[0.5, 0.5], [0.5, 0.5], [0.7, 0.5], [0.5, 0.5]],
        "channel.holding_pmf[2]",
    ),
    "per-level-rows": (("drops", "per_level"), [[0.5, 0.8]], "drops.per_level"),
    "per-level-row-length": (("drops", "per_level"), [[0.5, 0.8], [0.2]], "drops.per_level[1]"),
    "per-level-range": (("drops", "per_level"), [[0.5, 1.8], [0.2, 0.9]], "drops.per_level[0]"),
    "per-state-shape": (("drops",), {"per_state": [[0.1, 0.2]] * 3}, "drops.per_state"),
    "per-state-range": (
        ("drops",), {"per_state": [[0.1, 0.2]] * 3 + [[-0.1, 0.2]]}, "drops.per_state"
    ),
    "per-cascade-shape": (("drops",), {"per_cascade": [[0.1, 0.2]] * 5}, "drops.per_cascade"),
    "per-cascade-range": (
        ("drops",), {"per_cascade": [[0.1, 0.2]] * 7 + [[1.5, 0.2]]}, "drops.per_cascade"
    ),
    "A-shape": (("processes", 1, "A"), [[1.2, 0.0]], "processes[1].A"),
    "C-shape": (("processes", 0, "C"), [[1.0, 0.0]], "processes[0].C"),
    "W-shape": (("processes", 0, "W"), [[1.0, 0.0], [0.0, 1.0]], "processes[0].W"),
    "Z-shape": (("processes", 2, "Z"), [[1.0, 0.0], [0.0, 1.0]], "processes[2].Z"),
    "W-not-psd": (("processes", 0, "W"), [[-1.0]], "processes[0]"),
    "Z-not-pd": (("processes", 0, "Z"), [[0.0]], "processes[0]"),
    "transition-nan": (
        ("channel", "transition", 0), [math.nan, 0.2, 0.3, 0.4], "channel.transition"
    ),
    "holding-nan": (("channel", "holding_pmf"), [0.5, math.nan], "channel.holding_pmf[0]"),
    "per-level-nan": (("drops", "per_level"), [[math.nan, 0.8], [0.2, 0.9]], "drops.per_level[0]"),
    "W-inf": (("processes", 0, "W"), [[math.inf]], "processes[0].W"),
    "kalman-diverges": (("processes", 1, "C"), [[0.0]], "processes[1]"),
}


def replace_node(data, keys, value):
    """``data`` with its node at the key path ``keys`` set to ``value``, in place."""
    *head, last = keys
    node = data
    for k in head:
        node = node[k]
    node[last] = value
    return data


def faulty_dict(keys, value):
    data = bundled_dict()
    if keys[0] == "drops":
        del data["sweep"]  # its level axes would need a per_level table
    return replace_node(data, keys, value)


class TestPathContract:
    @pytest.mark.parametrize("keys, value, path", MODEL_FAULTS.values(), ids=MODEL_FAULTS)
    def test_model_error_reported_at_yaml_path(self, keys, value, path, tmp_path, capsys):
        data = faulty_dict(keys, value)
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario_dict(data)
        assert exc.value.path == path
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(data))
        assert main(["validate", "--scenario", str(p)]) == 2
        assert f"scenario error: {path}: " in capsys.readouterr().err

    def test_marginal_unobservable_plant_fails_fast_at_its_path(self, tmp_path, capsys):
        data = bundled_dict()
        # the second mode is invisible to the sensor and marginally stable
        a, eye = [[0.5, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]
        data["processes"][0] = {"A": a, "C": [[1.0, 0.0]], "W": eye, "Z": [[1.0]]}
        start = time.perf_counter()
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario_dict(data)
        assert exc.value.path == "processes[0]"
        p = tmp_path / "marginal.yaml"
        p.write_text(yaml.safe_dump(data))
        assert main(["validate", "--scenario", str(p)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "scenario error: processes[0]: Kalman" in capsys.readouterr().err

    def test_every_model_field_has_a_path(self):
        inputs = {f.name for model in (SemiMarkovChannelModel, ProcessModel) for f in fields(model)}
        assert inputs <= set(_FIELD_PATHS)


def node_paths(node, path=()):
    """Key paths of every mapping value and list entry below ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


class TestScenarioMutations:
    def test_every_field_replaced_loads_or_raises_a_scenario_error(self):
        """Each of the bundled document's 101 nodes, replaced by each of 17 values of every kind.

        A 1e308 noise or sensor entry overflows the Kalman step before the
        loader rejects it; only the exception type is checked here.
        """
        base = bundled_dict()
        rng = np.random.default_rng(26)
        outcomes = {"loads": 0, "rejected": 0}
        for path in list(node_paths(base)):
            x, k = float(rng.uniform(0.0, 3.0)), int(rng.integers(0, 5))
            for value in (
                None, "", "round-robin", [], [x], [[x, -x]], {}, {"a": k}, {"min": x},
                k, -x, x, True, False, math.nan, math.inf, 1e308,
            ):
                data = replace_node(copy.deepcopy(base), path, value)
                try:
                    with np.errstate(over="ignore"):
                        parse_scenario_dict(data)
                    outcomes["loads"] += 1
                except ScenarioError:
                    outcomes["rejected"] += 1
        assert sum(outcomes.values()) == 101 * 17 and min(outcomes.values()) >= 50, outcomes


class TestSweep:
    def test_apply_axes_only_touches_targets(self):
        loaded = load_bundled_scenario()
        chain = apply_axes(loaded.scenario, loaded.sweep.axes, (0.25, 0.75))
        np.testing.assert_array_equal(chain.transition, loaded.scenario.chain.transition)
        # frequency 1 drops move, frequency 2 stays
        assert chain.drops[0, 0] == 0.25  # level 1 of frequency 1 at quality (0, 0)
        assert chain.drops[cascaded_index(chain, 2, 1), 0] == 0.75  # level 2 states
        np.testing.assert_array_equal(chain.drops[:, 1], loaded.scenario.chain.drops[:, 1])

    # hand-built axis pairs that break the loader's axis rule, with the axis the error names
    BAD_AXES = {
        "frequency-and-level-out-of-range": (
            (AxisSpec("level", 5, 1, 0, 1), AxisSpec("level", 1, 9, 0, 1)),
            r"sweep\.axes\[0\]: frequency 5 out of range",
        ),
        "level-out-of-range": (
            (AxisSpec("level", 1, 1, 0, 1), AxisSpec("level", 2, 3, 0, 1)),
            r"sweep\.axes\[1\]: level 3 out of range",
        ),
        "level-zero": (
            (AxisSpec("level", 1, 0, 0, 1), AxisSpec("level", 2, 1, 0, 1)),
            r"sweep\.axes\[0\]: level 0 out of range",
        ),
        "state-out-of-range": (
            (AxisSpec("cascade", 1, 0, 0, 1), AxisSpec("cascade", 2, 8, 0, 1)),
            r"sweep\.axes\[1\]: state 8 out of range 0\.\.7",
        ),
        "negative-state": (
            (AxisSpec("cascade", 1, -1, 0, 1), AxisSpec("cascade", 2, 0, 0, 1)),
            r"sweep\.axes\[0\]: state -1 out of range",
        ),
        "same-level-entry": (
            (AxisSpec("level", 1, 2, 0, 1), AxisSpec("level", 1, 2, 0.5, 1)),
            r"sweep\.axes: axes must target distinct drop entries, both set d_f1_l2",
        ),
        "same-state-entry": (
            (AxisSpec("cascade", 2, 3, 0, 1), AxisSpec("cascade", 2, 3, 0, 1)),
            r"sweep\.axes: .*distinct.*d_s3_f2",
        ),
        "mixed-kinds": (
            (AxisSpec("level", 1, 1, 0, 1), AxisSpec("cascade", 2, 3, 0, 1)),
            r"sweep\.axes\[1\]: kind 'cascade' differs",
        ),
    }

    @pytest.mark.parametrize("case", sorted(BAD_AXES))
    def test_hand_built_axes_obey_the_loader_rule(self, case):
        # unchecked, the first pair swept a constant 3x3 grid and a shared entry let axis 2 win
        axes, match = self.BAD_AXES[case]
        loaded = load_bundled_scenario()
        bad = replace(loaded, sweep=SweepSpec(axes, (3, 3)))
        with pytest.raises(ScenarioValidationError, match=match):
            sweep_stability(bad)
        with pytest.raises(ScenarioValidationError, match=match):
            sweep_simulated(bad, horizon=10, seeds=(1,))
        with pytest.raises(ScenarioValidationError, match=match):
            apply_axes(loaded.scenario, axes, (0.5, 0.5))

    def test_verdicts_recomputable_from_recorded_values(self):
        loaded = load_bundled_scenario()
        res = sweep_stability(loaded, grid=(7, 7))
        recomputed = np.where(res.rho_max**2 * res.factor < 1.0, "stable", "unstable")
        mask = np.abs(res.rho_max**2 * res.factor - 1.0) > 1e-9
        np.testing.assert_array_equal(res.verdict[mask], recomputed[mask])

    def test_corner_cells(self):
        loaded = load_bundled_scenario()
        res = sweep_stability(loaded, grid=(2, 2))
        # axes at (0, 0): frequency 1 never drops, so the factor is 0
        assert res.factor[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert res.verdict[0, 0] == "stable"
        # axes at (1, 1): frequency 2 still offers 0.2/0.9, verdict from computation
        assert res.factor[1, 1] > 0.0

    def test_all_drops_one_corner(self):
        data = bundled_dict()
        data["drops"]["per_level"][1] = [1.0, 1.0]
        loaded = parse_scenario_dict(data)
        res = sweep_stability(loaded, grid=(2, 2))
        assert res.factor[1, 1] == pytest.approx(1.0, abs=1e-12)
        assert res.verdict[1, 1] == "unstable"

    def test_batched_sweep_matches_per_cell_oracle(self, tmp_path):
        loaded = load_bundled_scenario()
        # non-square grid, so a row/column transposition cannot pass
        res = sweep_stability(loaded, grid=(7, 5))
        assert np.array_equal(res.factor, per_cell_sweep_factors(loaded, (7, 5)))

        cascaded = per_cascade_sweep_scenario()
        res_c = sweep_stability(cascaded, grid=(6, 4))
        assert np.array_equal(res_c.factor, per_cell_sweep_factors(cascaded, (6, 4)))

        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(res, p1)
        write_sweep_csv(sweep_stability(loaded, grid=(7, 5)), p2)
        assert p1.read_bytes() == p2.read_bytes()

        # holding periods of 8 slots: the sweep and the single chain both
        # solve the kernel, so they agree bit for bit on that path too
        long = long_holding_scenario()
        res_l = sweep_stability(long, grid=(7, 5))
        want = per_cell_sweep_factors(long, (7, 5))
        assert np.array_equal(res_l.factor, want)
        assert np.array_equal(res_l.verdict, verdict_for(res_l.rho_max**2 * want))

    def test_kernel_cells_do_not_depend_on_the_grid(self):
        long = long_holding_scenario()
        coarse = sweep_stability(long, grid=(5, 5))
        fine = sweep_stability(long, grid=(9, 9))
        assert np.array_equal(coarse.factor, fine.factor[::2, ::2])
        assert coarse.factor[0, 0] == 0.0  # frequency 1 never drops at (0, 0)

    def test_kernel_cells_equal_their_own_chains_at_full_size(self):
        # 441 cells run in chunks of about a hundred: a cell that stopped on
        # its chunk's test instead of its own would differ in its last bits
        long = long_holding_scenario()
        res = sweep_stability(long, grid=(21, 21))
        assert np.array_equal(res.factor, per_cell_sweep_factors(long, (21, 21)))

    def test_kernel_failure_falls_back_to_dense(self, monkeypatch):
        long = long_holding_scenario()
        real_eig = np.linalg.eig

        def batched_fails(a):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eig(a)

        monkeypatch.setattr(np.linalg, "eig", batched_fails)
        res = sweep_stability(long, grid=(4, 3))
        assert np.array_equal(res.factor, per_cell_sweep_factors(long, (4, 3)))

    def test_eigensolve_failure_falls_back_per_cell(self, monkeypatch):
        loaded = load_bundled_scenario()
        real_eigvals = np.linalg.eigvals

        def batched_fails(a):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", batched_fails)
        res = sweep_stability(loaded, grid=(4, 3))
        assert np.array_equal(res.factor, per_cell_sweep_factors(loaded, (4, 3)))

        def always_fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", always_fails)
        with pytest.raises(NonConvergentError):
            sweep_stability(loaded, grid=(2, 2))

    def test_compare_csi_ordering(self):
        loaded = load_bundled_scenario()
        rows = compare_csi(loaded, l_max=2)
        assert all(isinstance(row, StabilityReport) for row in rows)
        lam = rows[0].factor
        assert rows[0].csi_mode == "current"
        for row in rows[1:]:
            assert row.csi_mode == "delayed"
            assert lam <= row.factor + 1e-9
            assert row.rho_max_threshold == pytest.approx(1.0 / np.sqrt(row.factor))

    def test_simulated_sweep_growth_ratios(self):
        data = bundled_dict()
        # single sensor so the serial policy is the analyzed construction
        data["processes"] = [data["processes"][0]]
        data["sweep"]["axes"][0]["min"] = 0.1
        data["sweep"]["axes"][0]["max"] = 0.2
        data["sweep"]["axes"][1]["min"] = 0.1
        data["sweep"]["axes"][1]["max"] = 0.2
        loaded = parse_scenario_dict(data)
        analytic, cells = sweep_simulated(
            loaded, grid=(2, 2), horizon=4000, seeds=(1, 2, 3)
        )
        assert len(cells) == 4
        for i, cell in enumerate(cells):
            # deeply stable cells: the running average has settled
            prod = analytic.product.ravel()[i]
            assert prod < 0.55
            ratios = np.array(cell.growth_ratios)
            assert np.all(ratios > 0.9) and np.all(ratios < 1.1)

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"horizon": 0}, "horizon"), ({"horizon": -3}, "horizon"), ({"seeds": ()}, "seed")],
        ids=["horizon-zero", "horizon-negative", "no-seeds"],
    )
    def test_simulated_sweep_rejects_empty_runs(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            sweep_simulated(load_bundled_scenario(), grid=(2, 2), **kwargs)

    @pytest.mark.parametrize("policy_name", ["persistent-serial", "round-robin", "greedy-topk"])
    @pytest.mark.parametrize("per_cascade", [False, True], ids=["bundled", "per-cascade"])
    @pytest.mark.parametrize("layout", ["default", "chunks", "blocks"])
    def test_simulated_sweep_matches_per_cell_runs(
        self, policy_name, per_cascade, layout, monkeypatch, tmp_path
    ):
        loaded = per_cascade_sweep_scenario() if per_cascade else load_bundled_scenario()
        grid, horizon, seeds = (4, 3), 300, (1, 2)
        if layout == "chunks":  # a chunk boundary inside each half of the run
            monkeypatch.setattr(sim, "_CHUNK", 113)
        elif layout == "blocks":  # 12 cells in blocks of 5, 5 and 2
            monkeypatch.setattr(sim, "_CELL_SLOTS", 5 * 2 * horizon)
        analytic, cells = sweep_simulated(loaded, grid, horizon, seeds, policy_name)
        want = per_cell_simulated_sweep(loaded, grid, horizon, seeds, policy_name)
        assert len(cells) == len(want) == 12
        for got, ref in zip(cells, want):
            assert (got.value1, got.value2) == (ref.value1, ref.value2)
            assert got.growth_ratios == ref.growth_ratios
            assert got.log10_final == ref.log10_final
        write_simulated_csv(analytic, cells, tmp_path / "a.csv")
        write_simulated_csv(analytic, want, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestCli:
    def test_validate_ok(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "processes=3" in out and "cascaded_states=8" in out

    def test_validate_bad_file_exits_2(self, tmp_path, capsys):
        data = bundled_dict()
        data["channel"]["transition"][3] = [0.3, 0.1, 0.4, 0.3]
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(data))
        assert main(["validate", "--scenario", str(p)]) == 2
        assert "channel.transition[3]" in capsys.readouterr().err

    def test_check_current(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "rho_max=1.5" in out
        assert "verdict=" in out

    def test_check_delayed_long_tuple_matches_single_step(self, capsys):
        # L = 3 spans 2^24 selection tuples on the 8-state chain; lambda_L = lambda_1
        def factor_line(el):
            assert main(["check", "--mode", "delayed", "--L", str(el)]) == 0
            return [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("factor=")]

        single = factor_line(1)
        assert len(single) == 1 and factor_line(3) == single

    def test_sweep_writes_deterministic_csv(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--out", str(out1), "--grid", "5x5"]) == 0
        assert main(["sweep", "--out", str(out2), "--grid", "5x5"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0].startswith("# remest")
        assert lines[1].startswith("# scenario sha256=")
        assert lines[2] == "d_f1_l1,d_f1_l2,lambda,product,verdict"
        assert len(lines) == 3 + 25

    def test_simulate_single_run(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(
            ["simulate", "--horizon", "500", "--seeds", "1,2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[2].startswith("seed,horizon,policy,J_total")
        assert len(lines) == 3 + 2

    def test_simulate_seed_is_a_prefix_of_seeds(self, tmp_path):
        outs = [tmp_path / "seed.csv", tmp_path / "seeds.csv"]
        for flag, out in zip(["--seed", "--seeds"], outs):
            assert main(["simulate", "--horizon", "300", flag, "7", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_simulate_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        code = main(
            ["simulate", "--horizon", "50", "--seed", "1",
             "--trace", str(trace), "--trace-slots", "10"]
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "slot,channel_state,actions,outcomes,aoi,cost"
        assert len(lines) == 1 + 10

    def test_simulate_full_physics_prints_buckets(self, tmp_path, capsys):
        data = bundled_dict()
        data["processes"] = [data["processes"][0]]
        data["drops"]["per_level"] = [[0.5, 0.5], [0.5, 0.5]]
        del data["sweep"]
        p = tmp_path / "one.yaml"
        p.write_text(yaml.safe_dump(data))
        code = main(
            ["simulate", "--scenario", str(p), "--horizon", "20000",
             "--seed", "3", "--full-physics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mse=" in out and "predicted=" in out
        assert "np.float64" not in out
        for line in out.splitlines():
            if "mse=" in line:
                fields = dict(f.split("=", 1) for f in line.split())
                float(fields["mse"]), float(fields["predicted"])

    def test_compare_csi_table(self, capsys):
        assert main(["compare-csi", "--L", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "csi_mode,L,factor,rho_max_threshold,product,verdict"
        assert out[1].startswith("current,")
        assert out[2].startswith("delayed,1,")

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare-csi", "--L", "2"],
            ["simulate", "--horizon", "300", "--seeds", "1,2"],
            ["simulate", "--horizon", "300", "--seeds", "4,5", "--policy", "greedy-topk"],
            ["simulate", "--horizon", "50", "--seed", str(2**64)],  # an object seed column
        ],
        ids=["compare-csi", "simulate", "simulate-greedy-topk", "simulate-seed-past-uint64"],
    )
    def test_stdout_table_is_out_csv_without_comments(self, argv, tmp_path, capsys):
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "table.csv"
        assert main([*argv, "--out", str(out)]) == 0
        comments = out.read_bytes().split(b"\n", 2)
        assert comments[0].startswith(b"# remest ") and comments[1].startswith(b"# scenario ")
        assert printed.encode() == comments[2]

    @pytest.mark.parametrize(
        "compute, argv",
        [
            ("evaluate_current_csi", ["check", "--scenario", "{missing}/s.yaml"]),
            ("compare_csi", ["compare-csi", "--out", "{missing}/x.csv"]),
            ("sweep_stability", ["sweep", "--grid", "2x2", "--out", "{missing}/x.csv"]),
            ("run", ["simulate", "--horizon", "50", "--seed", "1", "--trace", "{missing}/t.csv"]),
            ("run", ["simulate", "--horizon", "50", "--seed", "1", "--out", "{missing}/x.csv"]),
            (
                "sweep_simulated",
                ["simulate", "--sweep-grid", "2x2", "--horizon", "50", "--out", "{missing}/x.csv"],
            ),
            (
                "full_physics_run",
                ["simulate", "--full-physics", "--horizon", "50", "--out", "{missing}/x.csv"],
            ),
        ],
        ids=[
            "scenario", "compare-csi-out", "sweep-out", "trace",
            "simulate-out", "simulate-sweep-grid-out", "full-physics-out",
        ],
    )
    def test_file_errors_exit_2_naming_the_path(self, compute, argv, tmp_path, monkeypatch, capsys):
        """The error comes before any computation: the compute call must not run."""

        def never(*args, **kwargs):
            raise AssertionError(f"{compute} ran before its files were opened")

        monkeypatch.setattr(f"remest.cli.{compute}", never)
        missing = tmp_path / "nope"
        assert main([a.format(missing=missing) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and err.count("\n") == 1
        assert str(missing) in err

    def test_scenario_error_comes_before_output_error(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        argv = ["sweep", "--scenario", f"{missing}/s.yaml", "--out", f"{missing}/x.csv"]
        assert main(argv) == 2
        assert "s.yaml" in capsys.readouterr().err

    def test_simulate_sweep_grid(self, tmp_path):
        out = tmp_path / "simsweep.csv"
        code = main(
            ["simulate", "--sweep-grid", "2x2", "--horizon", "300",
             "--seeds", "1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3 + 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--mode", "delayed", "--L", "0"],
            ["compare-csi", "--L", "0"],
            ["compare-csi", "--L", "two"],
            ["simulate", "--horizon", "0"],
            ["simulate", "--horizon", "-5"],
            ["sweep", "--grid", "1x3", "--out", "unused.csv"],
            ["simulate", "--sweep-grid", "1x3", "--out", "unused.csv"],
            ["simulate", "--sweep-grid", "3x0", "--out", "unused.csv"],
            ["simulate", "--seed", "-1"],
            ["simulate", "--seeds", "1,-2"],
            ["simulate", "--trace-slots", "-3"],
        ],
    )
    def test_bad_integer_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_simulate_full_physics_rejects_trace(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("scenario loaded for --full-physics with --trace")

        monkeypatch.setattr("remest.cli.load_scenario", never)
        monkeypatch.setattr("remest.cli.load_bundled_scenario", never)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--full-physics", "--trace", "t.csv", "--horizon", "50"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--full-physics records no slot trace" in err
        assert list(tmp_path.iterdir()) == []

    def test_simulate_sweep_grid_requires_out_before_simulating(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("scenario loaded for --sweep-grid without --out")

        monkeypatch.setattr("remest.cli.load_scenario", never)
        monkeypatch.setattr("remest.cli.load_bundled_scenario", never)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--sweep-grid", "2x2", "--horizon", "300"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--out is required with --sweep-grid" in err

    @pytest.mark.parametrize("flag", [["--full-physics"], ["--trace", "t.csv"]])
    def test_simulate_sweep_grid_rejects_single_run_flags(
        self, flag, tmp_path, monkeypatch, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("sweep_simulated called with a single-run flag")

        monkeypatch.setattr("remest.cli.sweep_simulated", never)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--sweep-grid", "2x2", "--out", "o.csv", *flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--sweep-grid cannot be combined" in err
        assert list(tmp_path.iterdir()) == []
