"""
Formulas, states, and two ways to evaluate them
===============================================

A state interprets the input and output tapes (plus any extra symbols)
as finite or cofinite subsets of the naturals. Sentences over such a
state can be decided two ways: over the whole infinite universe, by
probing a finite prefix whose size is computed from the formula, or
over an explicit finite surrogate universe. Past the computed bound
the two answers provably coincide on guarded sentences, and this
script shows the machinery that makes that claim testable.
"""

from gseqa import OMEGA, OrdinalSet, Signature, SymbolDecl, parse_formula
from gseqa.satisfaction import EvalDomain, sat, threshold_bound
from gseqa.states import State

# A signature with one extra constant h next to the built-in tapes.
sigma = Signature([SymbolDecl("h", "Constant")])

# In = {1, 3}, Out = everything except 0, h = 4.
state = State.make(
    OMEGA,
    {"h": 4, "In": OrdinalSet.finite({1, 3}), "Out": OrdinalSet.cofinite({0})},
)

sentences = [
    "exists x. (In(x) & x < h)",          # some input mark below h
    "forall x. (In(x) -> Out(x))",        # input contained in output
    "forall x. (h < x -> Out(x))",        # the output tape is full past h
    "exists x. (Out(x) & ~In(x) & ~(x = h))",
]

for text in sentences:
    f = parse_formula(text, sigma)
    verdict = sat(f, state, EvalDomain.omega())
    print(f"{text!r:50} -> {verdict}")

# The finite-evaluation bound depends on the formula's anchors and
# quantifier rank. Evaluating on any surrogate universe at least that
# large gives the same verdict as the infinite evaluation above.
f = parse_formula(sentences[2], sigma)
b = threshold_bound(f, state)
print(f"\nthreshold bound for {sentences[2]!r}: {b}")
for n in (b, b + 3, b + 8):
    print(f"  surrogate [0, {n}) agrees:", sat(f, state, EvalDomain.surrogate(n)))

# Below the bound the finite reading can genuinely differ: a surrogate
# of size 5 has no elements past h = 4 at all, so the tail claim holds
# vacuously there but says something substantive over the naturals.
tail = parse_formula("forall x. (h < x -> In(x))", sigma)
print("\ntail claim over the naturals: ", sat(tail, state, EvalDomain.omega()))
print("tail claim over [0, 5):       ", sat(tail, state, EvalDomain.surrogate(5)))
