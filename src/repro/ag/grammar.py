"""Attribute-grammar definitions (paper Section 7.1).

"Attribute grammars are defined in terms of a context free grammar.  For
each nonterminal in a given production, equations are used to define
attributes as a function of other attributes of other nonterminals of
the production."

An :class:`AttributeGrammar` declares:

* nonterminals, each with named *synthesized* attributes (computed on the
  production instance itself) and *inherited* attributes (computed by the
  parent production for a given child);
* productions, each with a left-hand-side nonterminal, named right-hand
  side nonterminal children, terminal fields, and equations.

Equations are plain Python callables over production instances, written
in exactly the style the paper's translation produces::

    value:  lambda o: o.exp1.value() + o.exp2.value()      # synthesized
    env:    lambda o, c: o.parent.env(o)                   # inherited

The translator (:mod:`repro.ag.translate`) turns a validated grammar
into TrackedObject subclasses whose attribute methods are maintained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..core.errors import AlphonseError

SynEquation = Callable[[Any], Any]
InhEquation = Callable[[Any, Any], Any]


class GrammarError(AlphonseError):
    """An ill-formed attribute grammar (missing equation, bad child, ...)."""


@dataclass
class Nonterminal:
    """A nonterminal symbol with its attribute signature."""

    name: str
    synthesized: Tuple[str, ...] = ()
    inherited: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        overlap = set(self.synthesized) & set(self.inherited)
        if overlap:
            raise GrammarError(
                f"nonterminal {self.name}: attributes {sorted(overlap)} "
                f"declared both synthesized and inherited"
            )


@dataclass
class Production:
    """One production: ``lhs ::= children... terminals...`` plus equations.

    ``children`` maps field name -> nonterminal name (the paper's
    "pointers to objects of the types representing each right hand side
    nonterminal"); ``terminals`` lists the value fields ("fields
    representing the values of right hand side terminal symbols").

    ``synthesized`` maps each synthesized attribute of the lhs to its
    equation ``f(o)``.  ``inherited`` maps each inherited attribute name
    (of any child's nonterminal) to its equation ``f(o, c)``, where the
    equation performs the paper's case analysis on which child ``c`` is.
    """

    name: str
    lhs: str
    children: Dict[str, str] = field(default_factory=dict)
    terminals: Tuple[str, ...] = ()
    synthesized: Dict[str, SynEquation] = field(default_factory=dict)
    inherited: Dict[str, InhEquation] = field(default_factory=dict)


class AttributeGrammar:
    """A named collection of nonterminals and productions, validated.

    Usage::

        ag = AttributeGrammar("expr")
        ag.add_nonterminal("EXP", synthesized=("value",), inherited=("env",))
        ag.add_production(Production(
            name="PlusExp", lhs="EXP",
            children={"exp1": "EXP", "exp2": "EXP"},
            synthesized={"value": lambda o: o.exp1.value() + o.exp2.value()},
            inherited={"env": lambda o, c: o.parent.env(o)},
        ))
        classes = compile_grammar(ag)
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.nonterminals: Dict[str, Nonterminal] = {}
        self.productions: Dict[str, Production] = {}

    def add_nonterminal(
        self,
        name: str,
        synthesized: Sequence[str] = (),
        inherited: Sequence[str] = (),
    ) -> Nonterminal:
        if name in self.nonterminals:
            raise GrammarError(f"duplicate nonterminal {name!r}")
        nt = Nonterminal(name, tuple(synthesized), tuple(inherited))
        self.nonterminals[name] = nt
        return nt

    def add_production(self, production: Production) -> Production:
        if production.name in self.productions:
            raise GrammarError(f"duplicate production {production.name!r}")
        self.productions[production.name] = production
        return production

    def production(self, **kwargs: Any) -> Production:
        """Shorthand: build and add a Production from keyword arguments."""
        return self.add_production(Production(**kwargs))

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check structural well-formedness; raises GrammarError.

        Ensures every production's lhs and child nonterminals exist,
        no child or terminal is named like an attribute its class binds,
        every synthesized attribute of the lhs has an equation, and every
        inherited attribute of every child's nonterminal has an equation
        in the parent production.
        """
        if not self.productions:
            raise GrammarError(f"grammar {self.name!r} has no productions")
        for prod in self.productions.values():
            lhs = self.nonterminals.get(prod.lhs)
            if lhs is None:
                raise GrammarError(
                    f"production {prod.name}: unknown lhs {prod.lhs!r}"
                )
            self._check_field_names(prod, lhs)
            for attr in lhs.synthesized:
                if attr not in prod.synthesized:
                    raise GrammarError(
                        f"production {prod.name}: missing equation for "
                        f"synthesized attribute {prod.lhs}.{attr}"
                    )
            for attr in prod.synthesized:
                if attr not in lhs.synthesized:
                    raise GrammarError(
                        f"production {prod.name}: equation for {attr!r} "
                        f"which is not a synthesized attribute of {prod.lhs}"
                    )
            needed_inherited = set()
            for child_field, child_nt_name in prod.children.items():
                child_nt = self.nonterminals.get(child_nt_name)
                if child_nt is None:
                    raise GrammarError(
                        f"production {prod.name}: child {child_field!r} has "
                        f"unknown nonterminal {child_nt_name!r}"
                    )
                needed_inherited.update(child_nt.inherited)
            for attr in needed_inherited:
                if attr not in prod.inherited:
                    raise GrammarError(
                        f"production {prod.name}: missing equation for "
                        f"inherited attribute {attr!r} of its children"
                    )
            for attr in prod.inherited:
                if attr not in needed_inherited:
                    raise GrammarError(
                        f"production {prod.name}: inherited equation for "
                        f"{attr!r} but no child declares that attribute"
                    )

    @staticmethod
    def _check_field_names(prod: Production, lhs: Nonterminal) -> None:
        names: List[str] = list(prod.children) + list(prod.terminals)
        if len(names) != len(set(names)):
            raise GrammarError(
                f"production {prod.name}: duplicate field names in {names}"
            )
        for reserved in ("parent",):
            if reserved in names:
                raise GrammarError(
                    f"production {prod.name}: field name {reserved!r} is "
                    f"reserved"
                )
        # The compiled class binds these names as maintained methods, so
        # a field named like one could never be read.
        methods = {*lhs.synthesized, *lhs.inherited, *prod.inherited}
        for name in names:
            if name in methods:
                raise GrammarError(
                    f"production {prod.name}: field {name!r} is named like "
                    f"the attribute {name!r} its class binds"
                )

    def productions_of(self, lhs: str) -> List[Production]:
        return [p for p in self.productions.values() if p.lhs == lhs]
