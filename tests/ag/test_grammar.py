"""AG framework: declaration validation."""

import pytest

from repro.ag import AttributeGrammar, compile_grammar
from repro.ag.grammar import GrammarError


def _minimal() -> AttributeGrammar:
    ag = AttributeGrammar("g")
    ag.add_nonterminal("E", synthesized=("value",))
    ag.production(
        name="Num",
        lhs="E",
        terminals=("n",),
        synthesized={"value": lambda o: o.n},
    )
    return ag


class TestDeclaration:
    def test_minimal_grammar_validates(self):
        _minimal().validate()

    def test_duplicate_nonterminal(self):
        ag = AttributeGrammar("g")
        ag.add_nonterminal("E")
        with pytest.raises(GrammarError):
            ag.add_nonterminal("E")

    def test_duplicate_production(self):
        ag = _minimal()
        with pytest.raises(GrammarError):
            ag.production(
                name="Num",
                lhs="E",
                terminals=("n",),
                synthesized={"value": lambda o: o.n},
            )

    def test_attribute_cannot_be_both_kinds(self):
        ag = AttributeGrammar("g")
        with pytest.raises(GrammarError):
            ag.add_nonterminal("E", synthesized=("a",), inherited=("a",))

    def test_empty_grammar_invalid(self):
        ag = AttributeGrammar("g")
        ag.add_nonterminal("E")
        with pytest.raises(GrammarError):
            ag.validate()


class TestValidation:
    def test_unknown_lhs(self):
        ag = _minimal()
        ag.production(
            name="Bad", lhs="GHOST", synthesized={"value": lambda o: 0}
        )
        with pytest.raises(GrammarError, match="unknown lhs"):
            ag.validate()

    def test_unknown_child_nonterminal(self):
        ag = _minimal()
        ag.production(
            name="Wrap",
            lhs="E",
            children={"inner": "GHOST"},
            synthesized={"value": lambda o: o.inner.value()},
        )
        with pytest.raises(GrammarError, match="unknown nonterminal"):
            ag.validate()

    def test_missing_synthesized_equation(self):
        ag = AttributeGrammar("g")
        ag.add_nonterminal("E", synthesized=("value",))
        ag.production(name="Num", lhs="E", terminals=("n",))
        with pytest.raises(GrammarError, match="missing equation"):
            ag.validate()

    def test_extraneous_synthesized_equation(self):
        ag = _minimal()
        ag.production(
            name="Extra",
            lhs="E",
            terminals=("n",),
            synthesized={"value": lambda o: o.n, "ghost": lambda o: 0},
        )
        with pytest.raises(GrammarError, match="not a synthesized attribute"):
            ag.validate()

    def test_missing_inherited_equation(self):
        ag = AttributeGrammar("g")
        ag.add_nonterminal("E", synthesized=("value",), inherited=("env",))
        ag.production(
            name="Wrap",
            lhs="E",
            children={"inner": "E"},
            synthesized={"value": lambda o: o.inner.value()},
            # missing: inherited env equation for the child
        )
        with pytest.raises(GrammarError, match="missing equation for"):
            ag.validate()

    def test_extraneous_inherited_equation(self):
        ag = _minimal()
        ag.production(
            name="Wrap",
            lhs="E",
            children={"inner": "E"},
            synthesized={"value": lambda o: o.inner.value()},
            inherited={"env": lambda o, c: None},  # E has no inherited env
        )
        with pytest.raises(GrammarError, match="no child declares"):
            ag.validate()

    def test_duplicate_field_names(self):
        ag = _minimal()
        ag.production(
            name="Dup",
            lhs="E",
            children={"n": "E"},
            terminals=("n",),
            synthesized={"value": lambda o: 0},
        )
        with pytest.raises(GrammarError, match="duplicate field"):
            ag.validate()

    def test_reserved_field_name(self):
        ag = _minimal()
        ag.production(
            name="Res",
            lhs="E",
            terminals=("parent",),
            synthesized={"value": lambda o: 0},
        )
        with pytest.raises(GrammarError, match="reserved"):
            ag.validate()

    @pytest.mark.parametrize("field", ["value", "env", "scope"])
    def test_field_named_like_an_attribute(self, field):
        """The compiled class binds the lhs's synthesized and inherited
        attributes and the production's inherited equations as maintained
        methods, so a field of the same name could never be read."""
        ag = AttributeGrammar("g")
        ag.add_nonterminal("E", synthesized=("value",), inherited=("env",))
        ag.add_nonterminal("B", synthesized=("value",), inherited=("scope",))
        ag.production(
            name="Lit",
            lhs="B",
            terminals=("n",),
            synthesized={"value": lambda o: o.n},
        )
        ag.production(
            name="Wrap",
            lhs="E",
            children={"inner": "B"},
            terminals=(field,),
            synthesized={"value": lambda o: o.inner.value()},
            inherited={"scope": lambda o, c: None},
        )
        with pytest.raises(GrammarError, match=f"Wrap: field '{field}'"):
            ag.validate()
        with pytest.raises(GrammarError, match=f"Wrap: field '{field}'"):
            compile_grammar(ag)

    def test_productions_of(self):
        ag = _minimal()
        assert [p.name for p in ag.productions_of("E")] == ["Num"]
        assert ag.productions_of("GHOST") == []
