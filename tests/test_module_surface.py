"""The modules the solves call export only what the solve path, the CLI and
``checks`` use; the reference layer lives in ``checks`` and ``reference``."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import ferrojet
from ferrojet import checks, dno, operators, specfun, spectral

import reference

EXPORTS = {
    dno: ["RadialGrid", "greens_kernel", "SolutionOperator",
          "solve_flattened_bvp", "dn_oracle_apply"],
    specfun: ["besseli", "besselk", "f_ratio", "f_ratio_minus2", "SEAM_I",
              "SEAM_K"],
    operators: ["dn0_apply", "dn1_apply", "dn2_apply", "dn_expansion",
                "pressure_exact", "pressure_term", "kinetic_term",
                "kinetic_exact", "wave_residual", "ExtractionRecord",
                "extract_wnl_coefficients", "pressure_jacobian_fields",
                "pressure_jvp", "KineticLinearization"],
    spectral: ["SpectralGrid", "SpectralField", "CutoffSpec"],
}

# the kernel identities and modified Struve L, which only the oracles need
IN_CHECKS = ["_panels", "integral_abs_G", "integral_abs_H1", "integral_H3",
             "closed_form_H1_integral", "closed_form_H3_integral", "struvel",
             "struve_bessel_cross", "_lv_series", "_lv_minus_iv_asym",
             "SEAM_L", "_L_SERIES_TERMS"]
# helpers that only tests call
IN_REFERENCE = ["kinetic_term2_alt", "kinetic_term3_alt", "diff_matrix",
                "boundary_row"]


@pytest.mark.parametrize("module", list(EXPORTS), ids=lambda m: m.__name__)
def test_exports_are_pinned(module):
    assert module.__all__ == EXPORTS[module]
    for name in module.__all__:
        assert hasattr(module, name), name


def test_reference_layer_lives_in_checks_and_reference():
    for name in IN_CHECKS:
        assert hasattr(checks, name), name
    for name in IN_REFERENCE:
        assert callable(getattr(reference, name)), name
    for info in pkgutil.iter_modules(ferrojet.__path__):
        if info.name == "checks":
            continue
        module = importlib.import_module(f"ferrojet.{info.name}")
        for name in IN_CHECKS + IN_REFERENCE:
            assert not hasattr(module, name), f"ferrojet.{info.name}.{name}"
    assert not hasattr(dno.RadialGrid, "diff_matrix")
    assert not hasattr(dno.RadialGrid, "boundary_row")
    assert not hasattr(spectral.CutoffSpec, "chi")
    # one cached Gauss rule in the package
    assert not hasattr(checks, "_gauss_legendre")


def _imported_modules(module) -> set:
    """Every module an import statement in ``module``'s source names, at any
    depth (function-local imports included), relative ones by their last
    component."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import name
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.rsplit(".", 1)[-1])
    return names


def test_dno_does_not_import_operators():
    # the oracle completes k = 0 in closed form with K0's symbol from specfun,
    # not through the expansion it is meant to check
    imported = _imported_modules(dno)
    assert "specfun" in imported and "solver" in imported
    assert "operators" not in imported
