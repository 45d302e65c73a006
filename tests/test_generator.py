from __future__ import annotations

import pytest

from nulldecomp import GeneratorSpec, classify, generate_unicyclic
from nulldecomp.errors import BiasUnsatisfied, SpecInvalid
from nulldecomp.unicyclic import TYPE1, TYPE2


def test_forced_c4():
    g = generate_unicyclic(GeneratorSpec(n=4, cycle_length=4, seed=0))
    assert g.n == 4 and g.edge_count == 4
    assert classify(g).cycle.length == 4


def test_deterministic_under_seed():
    a = generate_unicyclic(GeneratorSpec(n=8, seed=1))
    b = generate_unicyclic(GeneratorSpec(n=8, seed=1))
    assert a == b and a.to_edge_list() == b.to_edge_list()
    c = generate_unicyclic(GeneratorSpec(n=8, seed=2))
    assert a != c


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        generate_unicyclic(GeneratorSpec(n=3, cycle_length=5))
    with pytest.raises(SpecInvalid):
        generate_unicyclic(GeneratorSpec(n=2))
    with pytest.raises(SpecInvalid):
        generate_unicyclic(GeneratorSpec(n=6, class_bias="bogus"))


def test_generated_graphs_are_unicyclic():
    for seed in range(30):
        g = generate_unicyclic(GeneratorSpec(n=9, seed=seed))
        assert g.is_unicyclic()
        assert g.n == 9 and g.edge_count == 9


def test_cycle_length_respected():
    for length in (3, 5, 8):
        g = generate_unicyclic(GeneratorSpec(n=10, cycle_length=length, seed=3))
        assert classify(g).cycle.length == length


def test_class_bias():
    g1 = generate_unicyclic(GeneratorSpec(n=10, seed=5, class_bias=TYPE1))
    assert classify(g1).tag == "type1"
    g2 = generate_unicyclic(GeneratorSpec(n=10, seed=5, class_bias=TYPE2))
    assert classify(g2).tag == "type2"


def test_an_unsatisfiable_bias_gives_up():
    # A triangle is always Type II, so every attempt fails the bias.
    with pytest.raises(BiasUnsatisfied, match="^no force-type1 graph found in 512 attempts for n=3, seed=0$"):
        generate_unicyclic(GeneratorSpec(n=3, class_bias=TYPE1))
