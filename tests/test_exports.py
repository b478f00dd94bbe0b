"""Every public name resolves, and removed aliases stay removed."""

import importlib

import pytest

import qweyl

SUBMODULES = ("qweyl.scalar", "qweyl.weyl", "qweyl.verdict", "qweyl.identities", "qweyl.reps", "qweyl.parser")
MODULES = ("qweyl",) + SUBMODULES

# thin aliases and second copies of a method, an operator or a constant; call the one that stays
REMOVED = {
    "qweyl.weyl": ("nf_of_word", "mul", "power", "grade", "substitute_params", "render"),
    "qweyl.reps": ("apply", "op_gen", "delta_rep_finite_difference", "xpow"),
    "qweyl.scalar": ("scalar_arith", "RatFun1", "qnum_symbolic", "qnum_double_alpha", "symbol"),
    "qweyl.identities": ("nf_poly_eval", "annihilation_check", "thm6_letter_swap_matches_thm5"),
    "qweyl.parser": ("print_canonical", "parse_script", "run_script"),
}


def test_removed_methods_stay_removed():
    assert not hasattr(qweyl.Scalar, "rename_variable")


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    for attr in module.__all__:
        assert hasattr(module, attr), "%s.%s" % (name, attr)
    removed = sum(REMOVED.values(), ()) if name == "qweyl" else REMOVED.get(name, ())
    for attr in removed:
        assert attr not in module.__all__ and not hasattr(module, attr), "%s.%s" % (name, attr)


def test_package_exports_each_submodule_all():
    names = ["__version__"]
    for name in SUBMODULES:
        module = importlib.import_module(name)
        names += module.__all__
        for attr in module.__all__:
            assert getattr(qweyl, attr) is getattr(module, attr), "%s.%s" % (name, attr)
    assert sorted(qweyl.__all__) == sorted(names)
