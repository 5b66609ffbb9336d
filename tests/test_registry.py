"""Tests for the translation-mechanism component table and its specs.

Covers the spec grammar, the identity guarantee (empty spec ==
``BASELINE_CONFIG``), the zoo matrix resolved from
:data:`ZOO_SPECS`, the table's own invariants, and every typed error
path: malformed token, unknown dimension/component, duplicate
assignment, and validation conflicts — all must surface as
:class:`ConfigError` (exit code 3) naming the offending token.
"""

import dataclasses

import pytest

from repro.arch.config import (
    BASELINE_CONFIG,
    CompressionKind,
    GPUConfig,
    L1TLBMode,
    ReplacementKind,
    TBSchedulerKind,
)
from repro.engine.errors import ConfigError
from repro.experiments.configs import (
    COMPONENTS,
    ZOO_SPECS,
    describe_components,
    resolve_spec,
)
from repro.translation.uvm import AllocationPolicy

#: the fully spelled-out all-defaults spec
DEFAULT_SPEC = ",".join(
    f"{dim}={next(iter(table))}" for dim, table in COMPONENTS.items()
)


class TestTable:
    def test_first_component_is_default_and_sets_nothing(self):
        for dim, table in COMPONENTS.items():
            name, (summary, overrides) = next(iter(table.items()))
            assert summary, dim
            assert overrides == {}, f"{dim}={name} is a default"

    def test_no_field_set_by_two_dimensions(self):
        owner = {}
        fields = {f.name for f in dataclasses.fields(GPUConfig)}
        for dim, table in COMPONENTS.items():
            for _summary, overrides in table.values():
                for fname in overrides:
                    assert fname in fields, fname
                    assert owner.setdefault(fname, dim) == dim, (
                        f"{fname} set by {owner[fname]} and {dim}"
                    )


class TestParsing:
    def test_empty_spec_fills_defaults(self):
        defaults = {dim: next(iter(t)) for dim, t in COMPONENTS.items()}
        assert defaults["tlb"] == "shared"
        assert defaults["repl"] == "lru"
        assert defaults["protect"] == "none"
        assert resolve_spec(DEFAULT_SPEC) == resolve_spec("")

    def test_whitespace_and_empty_tokens_tolerated(self):
        assert resolve_spec(" compress=contiguity , ,sched=tlb_aware ") == \
            resolve_spec("compress=contiguity,sched=tlb_aware")

    def test_token_order_does_not_matter(self):
        assert resolve_spec("sched=tlb_aware,compress=stride") == \
            resolve_spec("compress=stride,sched=tlb_aware")


class TestErrorPaths:
    """Every user mistake is a ConfigError naming the offending token."""

    @pytest.mark.parametrize("spec,needle", [
        ("garbage", "garbage"),                  # malformed (no '=')
        ("=lru", "'=lru'"),                      # empty dimension
        ("repl=", "'repl='"),                    # empty component
        ("bogus=lru", "bogus=lru"),              # unknown dimension
        ("compress=bogus", "compress=bogus"),    # unknown component
        ("repl=lru,repl=fifo", "repl=fifo"),     # dimension assigned twice
    ])
    def test_parse_errors_name_offending_token(self, spec, needle):
        with pytest.raises(ConfigError) as excinfo:
            resolve_spec(spec)
        assert needle in str(excinfo.value)
        assert excinfo.value.exit_code == 3
        assert excinfo.value.field  # token recorded for machine handling

    def test_conflicting_combination_names_both_tokens(self):
        # dead-entry bypass and compressed entries both own the fill
        # path; GPUConfig rejects the pair and resolve_spec re-raises
        # with the responsible token
        with pytest.raises(ConfigError, match="protect=deadentry"):
            resolve_spec("protect=deadentry,compress=contiguity")

    def test_mosaic_requires_base_pages(self):
        with pytest.raises(ConfigError, match="pagesize="):
            resolve_spec("pagesize=mosaic,pagesize=2m")

    def test_unknown_dimension_listing(self):
        with pytest.raises(ConfigError, match="bogus") as excinfo:
            resolve_spec("bogus=lru")
        for dim in COMPONENTS:
            assert repr(dim) in str(excinfo.value)


class TestResolution:
    def test_empty_spec_is_baseline_identity(self):
        # not merely equal: the very same object, identity by construction
        assert resolve_spec("") is BASELINE_CONFIG

    def test_all_defaults_spelled_out_is_baseline(self):
        assert resolve_spec(DEFAULT_SPEC) == BASELINE_CONFIG

    def test_single_component_overrides_apply(self):
        cfg = resolve_spec("compress=contiguity")
        assert cfg.l1_tlb_compression
        assert cfg.compression_kind is CompressionKind.CONTIGUITY
        assert cfg.l1_tlb_mode is BASELINE_CONFIG.l1_tlb_mode

    def test_multi_component_composition(self):
        cfg = resolve_spec(
            "tlb=partitioned_sharing,sched=tlb_aware,repl=fifo"
        )
        assert cfg.l1_tlb_mode is L1TLBMode.PARTITIONED_SHARING
        assert cfg.tb_scheduler is TBSchedulerKind.TLB_AWARE
        assert cfg.l1_tlb_replacement is ReplacementKind.FIFO

    def test_mosaic_component(self):
        cfg = resolve_spec("pagesize=mosaic")
        assert cfg.allocation_policy is AllocationPolicy.MOSAIC

    def test_zoo_matrix_generated_from_specs(self):
        matrix = {name: resolve_spec(spec) for name, spec in ZOO_SPECS.items()}
        assert matrix["zoo_baseline"] is BASELINE_CONFIG
        assert matrix["zoo_dead_entry"].l1_tlb_dead_entry
        assert (matrix["zoo_mosaic"].allocation_policy
                is AllocationPolicy.MOSAIC)

    def test_describe_lists_every_component(self):
        lines = "\n".join(describe_components())
        for dim, table in COMPONENTS.items():
            for name in table:
                assert f"{dim}={name}" in lines
