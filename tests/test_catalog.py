"""Catalog construction, entry verification, and file round trips."""

from __future__ import annotations

import importlib
from dataclasses import replace
from fractions import Fraction as F

import pytest

from kcof import GameInstance, load_instance, write_instance
from kcof.catalog import (
    MNE,
    NEAR_OPT,
    NOT_EQUILIBRIUM,
    PNE,
    catalog,
    catalog_entry,
    verify_entry,
)

catalog_mod = importlib.import_module("kcof.catalog")  # the package's `catalog` is the function


class TestApplicability:
    def test_k1_entries(self):
        names = [e.name for e in catalog(1)]
        assert names == [
            "intro_triple",
            "two_pne_quad",
            "no_pne_gadget",
            "pos_chain",
            "poa_chain",
            "mpoa_chain",
        ]

    def test_k2_entries(self):
        names = [e.name for e in catalog(2)]
        assert names == ["no_pne_gadget", "pos_quad", "poa_blocks", "mpoa_blocks"]

    @pytest.mark.parametrize("k", [3, 5])
    def test_k_large_entries(self, k):
        names = [e.name for e in catalog(k)]
        assert names == ["no_pne_gadget", "pos_star", "poa_blocks", "mpoa_blocks"]

    def test_entry_lookup(self):
        entry = catalog_entry("pos_star", k=4)
        assert entry.instance.n == 5
        with pytest.raises(KeyError):
            catalog_entry("pos_star", k=1)


class TestParameterDomains:
    @pytest.mark.parametrize("lam", [0, 1, 2, F(-1, 2)])
    def test_lambda_domain(self, lam):
        with pytest.raises(ValueError):
            catalog(1, lam=lam)

    @pytest.mark.parametrize("eps", [0, F(1, 4), F(1, 2)])
    def test_epsilon_domain(self, eps):
        with pytest.raises(ValueError):
            catalog(1, eps=eps)

    def test_string_parameters_accepted(self):
        entries = catalog(1, lam="1/2", eps="1/8")
        assert entries[0].name == "intro_triple"


class TestVerification:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_defaults_verify(self, k):
        for entry in catalog(k):
            verify_entry(entry)  # raises on any mismatch

    def test_small_lambda_verifies(self):
        for k in (1, 3):
            for entry in catalog(k, lam=F(1, 100)):
                verify_entry(entry)

    @pytest.mark.parametrize("lam", [F(3, 4), F(4, 5), F(99, 100)])
    def test_large_lambda_verifies(self, lam):
        # pos_chain's near_opt cost changes form at lam = 2/3 and 4/5
        for entry in catalog(1, lam=lam):
            verify_entry(entry)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_catalog_only_builds(self, k, monkeypatch):
        def forbidden(*args):
            raise AssertionError("catalog() re-derived a reference")

        monkeypatch.setattr(catalog_mod, "recompute", forbidden)
        assert catalog(k)
        with pytest.raises(AssertionError, match="re-derived"):
            verify_entry(catalog(k)[-1])

    def test_expected_values_parameterized(self):
        lam = F(1, 5)
        entry = catalog_entry("poa_blocks", k=4, lam=lam)
        eq = entry.references[0]
        assert eq.verdict == PNE
        assert eq.expected_cost == (8 + lam) * 5
        near = entry.references[1]
        assert near.verdict == NEAR_OPT
        assert near.expected_cost == 8 + 2 * lam

    def test_mixed_reference_tags(self):
        entry = catalog_entry("mpoa_blocks", k=2)
        ref = entry.references[0]
        assert ref.verdict == MNE
        assert ref.expected_cost == 8 * 2 + 16 - F(1, 2)

    def test_gadget_beliefs(self):
        entry = catalog_entry("no_pne_gadget", k=3, eps=F(1, 8))
        assert entry.instance.beliefs == (0, 0, 0, F(7, 8), 2, 2, 2)


def _with_reference(name: str, tag: str, **changes):
    """The k=1 entry ``name`` holding only its reference ``tag``, changed as given."""
    entry = catalog_entry(name, k=1)
    ref = next(r for r in entry.references if r.tag == tag)
    return replace(entry, references=(replace(ref, **changes),))


class TestVerificationFails:
    def test_wrong_cost(self):
        entry = _with_reference("intro_triple", "equilibrium", expected_cost=F(17, 2) + 1)
        with pytest.raises(AssertionError, match="intro_triple/equilibrium"):
            verify_entry(entry)

    def test_wrong_pure_verdict(self):
        entry = _with_reference("intro_triple", "equilibrium", verdict=NOT_EQUILIBRIUM)
        with pytest.raises(AssertionError, match="intro_triple/equilibrium"):
            verify_entry(entry)

    def test_mixed_reference_claiming_pne(self):
        entry = _with_reference("mpoa_chain", "mixed_equilibrium", verdict=PNE)
        with pytest.raises(AssertionError, match="mpoa_chain/mixed_equilibrium"):
            verify_entry(entry)


class TestRoundTrip:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_reference_round_trips(self, k, tmp_path):
        for entry in catalog(k):
            path = tmp_path / f"{entry.name}.json"
            write_instance(path, entry.instance)
            doc = load_instance(path)
            assert doc.instance == entry.instance
            for ref in entry.references:
                rpath = tmp_path / f"{entry.name}__{ref.tag}.json"
                write_instance(rpath, entry.instance, opinions=ref.opinions, mixed=ref.mixed)
                rdoc = load_instance(rpath)
                assert rdoc.instance == entry.instance
                assert rdoc.opinions == ref.opinions
                assert rdoc.mixed == ref.mixed
