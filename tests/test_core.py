"""Package namespace, core state, rate amplification, config validation, streams."""

import ast
import json
from dataclasses import fields
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from helpers import exchange_pair, genomes_with_values, linear_objective, receive

import trustopt
from trustopt import harness
from trustopt.cli import main

from trustopt import (
    AgentTemplate,
    ConfigError,
    CredibilityConfig,
    CredibilityState,
    TboConfig,
    agent_stream,
    config_from_dict,
    config_to_dict,
    derive_run_seed,
    dump_config,
    effective_rates,
    get_objective,
    init_population,
    load_config,
    load_preset,
    validate_config,
)


# --- package namespace ------------------------------------------------------

# every public name of ``import trustopt``: adding or dropping an export is
# an edit to this tuple
PUBLIC_NAMES = (
    "AgentTemplate", "ConfigError", "CredibilityConfig", "CredibilityState",
    "OBJECTIVE_NAMES", "ObjectiveSpec", "PRESET_NAMES", "SampleGroup", "TboConfig",
    "agent_stream", "compare_groups", "config_from_dict", "config_to_dict", "derive_run_seed",
    "dump_config", "dunn_holm", "effective_rates", "get_objective", "holm_adjust",
    "init_population", "kruskal_wallis", "load_config", "load_manifest", "load_preset",
    "run_manifest", "run_repetitions", "summarize", "validate_config", "write_plots",
    "write_stats_reports",
)


def test_package_namespace_is_pinned():
    # exports resolve on first access, so the pin reads dir(), not vars();
    # submodules are left out: importing one binds it on the package
    names = sorted(n for n in dir(trustopt)
                   if not n.startswith("_") and not isinstance(getattr(trustopt, n), ModuleType))
    assert tuple(names) == PUBLIC_NAMES
    # an unknown name is an AttributeError, so ``from trustopt import ea``
    # still imports the submodule
    with pytest.raises(AttributeError):
        trustopt.no_such_name
    from trustopt import ea

    assert isinstance(ea, ModuleType)


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency: no module of the package
    # imports scipy, at the top or inside a function
    for path in sorted(Path(trustopt.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), path


# every field of a run config and every manifest override name: adding a
# knob is an edit to these tuples
CONFIG_FIELDS = (
    "agent_count", "dimension", "objective", "epoch_length", "diversity_factor", "max_steps",
    "seed", "repetitions", "algorithm", "credibility", "per_agent", "objective_params",
    "eta_c", "eta_m",
)
OVERRIDE_NAMES = (
    "population_size", "offspring_size", "base_crossover_rate", "base_mutation_rate",
    "epoch_length", "diversity_factor", "eta_c", "eta_m",
)


def test_config_schema_is_pinned():
    assert tuple(f.name for f in fields(TboConfig)) == CONFIG_FIELDS
    assert harness._AGENT_OVERRIDES + harness._RUN_OVERRIDES == OVERRIDE_NAMES


# --- effective rates --------------------------------------------------------


def test_effective_rates_index_zero_keeps_base():
    assert effective_rates(0.005, 0.0005, 0, 1.3) == (0.005, 0.0005)


def test_effective_rates_amplification():
    pc, pm = effective_rates(0.005, 0.0005, 2, 1.3)
    assert pc == pytest.approx(0.018, rel=1e-12)
    assert pm == pytest.approx(0.0018, rel=1e-12)


def test_effective_rates_clamp_to_one():
    assert effective_rates(0.5, 0.5, 19, 2.0) == (1.0, 1.0)


def test_effective_rates_reject_negative_arguments():
    with pytest.raises(ValueError):
        effective_rates(0.1, 0.1, -1, 1.0)
    with pytest.raises(ValueError):
        effective_rates(0.1, 0.1, 0, -0.5)


# --- population -------------------------------------------------------------


def test_init_population_degenerate_interval():
    spec = linear_objective(2, bound=0.0)
    genes = init_population(5, spec, np.random.default_rng(0))
    assert genes.shape == (5, 2)
    assert np.all(genes == 0.0)


def test_init_population_in_bounds_and_deterministic():
    spec = get_objective("sphere", 50)
    a = init_population(3, spec, np.random.default_rng(11))
    b = init_population(3, spec, np.random.default_rng(11))
    assert a.shape == (3, 50)
    assert np.all(a >= -100.0)
    assert np.all(a <= 100.0)
    assert np.array_equal(a, b)


def test_init_population_rejects_zero_size():
    with pytest.raises(ValueError):
        init_population(0, linear_objective(), np.random.default_rng(0))


def test_mean_fitness_values():
    # an exchange reports its recipient's mean fitness before the step
    sender = genomes_with_values([0.0])
    assert exchange_pair(genomes_with_values([4.0]), sender).record.mean_before == 4.0
    sender = genomes_with_values([0.0, 0.0])
    assert exchange_pair(genomes_with_values([2.0, 6.0]), sender).record.mean_before == 4.0


def test_mean_fitness_matches_oracle(rng):
    spec = get_objective("sphere", 5)
    recipient = init_population(5, spec, rng)
    expected = sum(float(spec.base(g)) for g in recipient) / 5.0
    out, _, _ = receive(recipient, init_population(5, spec, rng), 3, 3, spec, rng)
    assert out.mean_before == pytest.approx(expected, rel=1e-12)


def test_evaluate_rows_gives_each_owner_its_row():
    # an (owners, k, D) stack evaluates to (owners, k): row i holds owner
    # i's genomes in order, and a noise-free objective needs no stream
    spec = linear_objective()
    genes = np.stack([genomes_with_values([3.0, 8.0]), genomes_with_values([-1.0, 0.5])])
    fitness = spec.evaluate_rows(genes, [None, None])
    assert np.array_equal(fitness, [[3.0, 8.0], [-1.0, 0.5]])
    assert spec.evaluate_rows(genes[:, :0], [None, None]).shape == (2, 0)


# --- credibility state ------------------------------------------------------


def test_initial_credibility_tables():
    t = CredibilityState.initial("trust", 4, 25, 1, 50)
    assert t.table.shape == (4, 4)
    assert np.all(t.table == 25)
    r = CredibilityState.initial("reputation", 3, 40, 1, 50)
    assert np.array_equal(r.table, [40, 40, 40])


def test_credibility_role_mapping_trust():
    state = CredibilityState.initial("trust", 3, 10, 1, 50)
    state.table[1, 2] = 33  # sender 1's trust in recipient 2
    state.table[2, 1] = 7   # recipient 2's trust in sender 1
    assert state.share_and_depth(1, 2) == (33, 7)
    # index arrays read one (share, depth) pair per (sender, recipient)
    share, depth = state.share_and_depth(np.array([1, 2]), np.array([2, 1]))
    assert share.tolist() == [33, 7] and depth.tolist() == [7, 33]


def test_credibility_role_mapping_reputation():
    state = CredibilityState.initial("reputation", 3, 10, 1, 50)
    state.table[1] = 44  # sender's public score
    state.table[2] = 5   # recipient's public score
    assert state.share_and_depth(1, 2) == (5, 44)
    share, depth = state.share_and_depth(np.array([1, 2]), np.array([2, 1]))
    assert share.tolist() == [5, 44] and depth.tolist() == [44, 5]


def test_credibility_state_validation():
    with pytest.raises(ValueError):
        CredibilityState.initial("trust", 3, 0, 1, 50)  # start below min
    with pytest.raises(ValueError):
        CredibilityState("reputation", 1, 50, np.ones((3, 3), dtype=np.int64))  # a matrix
    with pytest.raises(ValueError):
        CredibilityState("trust", 1, 50, np.ones(3, dtype=np.int64))  # a vector
    with pytest.raises(ValueError):
        CredibilityState.initial("karma", 3, 10, 1, 50)


def test_sc_crossover_config_validation():
    # an agent's interaction crossover: its genome intensity and gene operator
    with pytest.raises(ConfigError, match="genome_intensity must be one of"):
        validate_config(_valid_cfg(per_agent=AgentTemplate(genome_intensity="mild")))
    with pytest.raises(ConfigError, match="gene_op must be one of"):
        validate_config(_valid_cfg(per_agent=AgentTemplate(gene_op="merge")))


# --- config validation ------------------------------------------------------


def _valid_cfg(**kw):
    base = dict(agent_count=4, dimension=10, objective="sphere", epoch_length=25,
                diversity_factor=1.3, max_steps=100, seed=1)
    base.update(kw)
    return TboConfig(**base)


def test_validate_accepts_shipped_preset():
    cfg = load_preset("small_society")
    validate_config(cfg)  # must not raise
    assert cfg.agent_count == 5
    assert cfg.credibility.kind == "trust"
    assert cfg.credibility.start_value == 5


def test_validate_rejects_single_agent():
    with pytest.raises(ConfigError, match="agent_count must be >= 2"):
        validate_config(_valid_cfg(agent_count=1))


def test_validate_rejects_start_below_min():
    cred = CredibilityConfig(kind="trust", start_value=0, min_value=1, max_value=50)
    with pytest.raises(ConfigError, match="start below min"):
        validate_config(_valid_cfg(credibility=cred))


def test_validate_collects_every_violation():
    cfg = _valid_cfg(agent_count=0, dimension=0, epoch_length=0, max_steps=0)
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert len(err.value.violations) >= 4


def test_validate_rejects_unknown_objective():
    with pytest.raises(ConfigError, match="warp_field"):
        validate_config(_valid_cfg(objective="warp_field"))


def test_validate_tbo_needs_credibility():
    with pytest.raises(ConfigError, match="credibility"):
        validate_config(_valid_cfg(credibility=None))
    # the baseline does not
    validate_config(_valid_cfg(algorithm="island_model", credibility=None))


def test_validate_per_agent_count_and_fields():
    # per_agent is one template for every agent: a tuple of templates, even
    # of one, is not a template
    for value in ((AgentTemplate(),), [AgentTemplate()] * 4, {}):
        with pytest.raises(ConfigError, match="^per_agent must be one AgentTemplate"):
            validate_config(_valid_cfg(per_agent=value))
    bad = AgentTemplate(base_crossover_rate=1.5)
    with pytest.raises(ConfigError, match="per_agent: base_crossover_rate"):
        validate_config(_valid_cfg(per_agent=bad))


def test_validate_rejects_heterogeneous_epochs(tmp_path, capsys):
    # the epoch clock is run-wide: a per-agent epoch_length is not a field,
    # whatever its value
    for value in (10, 25):
        d = config_to_dict(_valid_cfg())
        d["per_agent"]["epoch_length"] = value
        with pytest.raises(ConfigError, match="unknown per_agent field: epoch_length"):
            config_from_dict(d)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert main(["validate", "--config", str(path)]) == 2
        assert "unknown per_agent field: epoch_length" in capsys.readouterr().err


# --- JSON round trip --------------------------------------------------------


def test_config_round_trips_through_dict():
    cfg = load_preset("large_society")
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_config_rejects_unknown_fields():
    d = config_to_dict(load_preset("exploration"))
    d["warp"] = 9
    with pytest.raises(ConfigError, match="warp"):
        config_from_dict(d)
    d.pop("warp")
    d["per_agent"]["mystery"] = 1
    with pytest.raises(ConfigError, match="mystery"):
        config_from_dict(d)


def test_config_file_round_trip(tmp_path):
    cfg = load_preset("small_society")
    path = tmp_path / "cfg.json"
    dump_config(cfg, path)
    assert load_config(path) == cfg


def test_island_model_config_omits_credibility(tmp_path):
    cfg = load_preset("island_model")
    assert cfg.credibility is None
    d = config_to_dict(cfg)
    assert "credibility" not in d
    assert config_from_dict(d).credibility is None


# --- preset table -----------------------------------------------------------

PRESET_TABLE = {
    # name: (N, epoch, kind, start, intensity, gene_op, d_f)
    "strong_leadership": (10, 25, "reputation", 50, "moderate", "swap", 1.3),
    "exploration": (10, 25, "trust", 25, "strong", "average", 1.3),
    "small_society": (5, 25, "trust", 5, "strong", "swap", 1.3),
    "large_society": (20, 50, "reputation", 30, "weak", "swap", 1.3),
    "high_diversity": (10, 25, "reputation", 40, "moderate", "swap", 2.0),
}


@pytest.mark.parametrize("name", sorted(PRESET_TABLE))
def test_society_preset_parameters(name):
    n, epoch, kind, start, intensity, gene_op, d_f = PRESET_TABLE[name]
    cfg = load_preset(name)
    tpl = cfg.per_agent
    assert cfg.algorithm == "tbo"
    assert cfg.agent_count == n
    assert cfg.epoch_length == epoch
    assert cfg.credibility.kind == kind
    assert cfg.credibility.start_value == start
    assert tpl.genome_intensity == intensity
    assert tpl.gene_op == gene_op
    assert cfg.diversity_factor == d_f


@pytest.mark.parametrize("name", sorted(PRESET_TABLE) + ["island_model"])
def test_every_preset_shares_ea_constants(name):
    cfg = load_preset(name)
    tpl = cfg.per_agent
    assert tpl.population_size == 5
    assert tpl.offspring_size == 15
    assert tpl.base_crossover_rate == 0.005
    assert tpl.base_mutation_rate == 0.0005
    assert cfg.eta_m == 40.0


def test_baseline_preset_has_no_credibility():
    cfg = load_preset("island_model")
    assert cfg.algorithm == "island_model"
    assert cfg.credibility is None


def test_preset_accepts_display_names():
    assert load_preset("Strong leadership") == load_preset("strong_leadership")
    with pytest.raises(KeyError):
        load_preset("anarchy")


# --- stream derivation ------------------------------------------------------


def test_agent_stream_is_deterministic():
    a = agent_stream(99, 2, 3).random(8)
    b = agent_stream(99, 2, 3).random(8)
    assert np.array_equal(a, b)


def test_agent_streams_differ_across_slots():
    draws = {
        (rep, idx): tuple(agent_stream(5, rep, idx).random(4))
        for rep in range(3)
        for idx in range(3)
    }
    assert len(set(draws.values())) == 9


def test_agent_stream_rejects_negative_slots():
    with pytest.raises(ValueError):
        agent_stream(1, -1, 0)


def test_derive_run_seed_is_stable_and_label_sensitive():
    s = derive_run_seed(42, "sphere", 50, "tbo")
    assert s == derive_run_seed(42, "sphere", 50, "tbo")
    assert s != derive_run_seed(42, "sphere", 50, "island_model")
    assert s != derive_run_seed(42, "griewank", 50, "tbo")
    assert s != derive_run_seed(43, "sphere", 50, "tbo")
    assert 0 <= s < 2**64
