"""Every public name resolves, and removed aliases stay removed."""

import importlib

import pytest

MODULES = ("qweyl", "qweyl.scalar", "qweyl.weyl", "qweyl.identities", "qweyl.reps", "qweyl.parser")

# thin aliases and second copies of a method, an operator or a constant; call the one that stays
REMOVED = {
    "qweyl.weyl": ("nf_of_word", "mul", "power", "grade", "substitute_params", "render"),
    "qweyl.reps": ("apply", "delta_rep_finite_difference"),
    "qweyl.scalar": ("scalar_arith", "RatFun1", "qnum_symbolic", "qnum_double_alpha"),
    "qweyl.identities": ("nf_poly_eval",),
}


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    for attr in module.__all__:
        assert hasattr(module, attr), "%s.%s" % (name, attr)
    removed = sum(REMOVED.values(), ()) if name == "qweyl" else REMOVED.get(name, ())
    for attr in removed:
        assert attr not in module.__all__ and not hasattr(module, attr), "%s.%s" % (name, attr)
