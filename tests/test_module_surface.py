"""The modules the solves call export only what the solve path, the CLI and
``checks`` use; the reference layer lives in ``checks`` and ``reference``."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import ferrojet
from ferrojet import checks, dispersion, dno, operators, solver, specfun, spectral

import reference

EXPORTS = {
    dno: ["RadialGrid", "greens_kernel", "SolutionOperator",
          "solve_flattened_bvp", "dn_oracle_apply"],
    specfun: ["besseli", "besselk", "f_ratio", "f_ratio_minus2", "f_prime",
              "f_second", "SEAM_I", "SEAM_K"],
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
                "boundary_row", "dn2_bilinear"]


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


def _names_imported_from(module, source: str) -> set:
    """The names ``module``'s source imports from module ``source``."""
    return {alias.name for node in ast.walk(ast.parse(inspect.getsource(module)))
            if isinstance(node, ast.ImportFrom) and node.module == source
            for alias in node.names}


def test_operator_build_is_one_chunk_loop():
    # the SolutionOperator build takes its factors from one source per chunk
    # (lattice or scaled Bessel values) and reads the boundary kernels from
    # the same values: no second build path and no flat-profile evaluation
    for name in ("_flat_profiles", "_lattice_chunks", "_scaled_chunks",
                 "_factor_values"):
        assert not hasattr(dno, name), name
    assert "_besseli_scaled" not in _names_imported_from(dno, "specfun")


def test_dno_does_not_import_operators():
    # the oracle completes k = 0 in closed form with K0's symbol from the
    # grid's table, not through the expansion it is meant to check
    imported = _imported_modules(dno)
    assert "specfun" in imported and "solver" in imported
    assert "operators" not in imported


def _names_read(module) -> set:
    """Every name and attribute ``module``'s source reads or imports."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_each_linear_symbol_has_one_owner():
    # f, f - 2, f' and f'' share specfun's one Taylor/Bessel split; K0, D and
    # D^2 are the grid's own tables
    for name in ("dn0_symbol", "_half_symbols"):
        assert not hasattr(operators, name), name
    assert "_cache" not in _names_read(operators)
    assert not ({"F_COEFFS", "F_SERIES_CUT", "_besseli_scaled"}
                & _names_imported_from(dispersion, "specfun"))
    assert not hasattr(dispersion, "_taylor_or_bessel")
    assert not hasattr(dispersion.DispersionProfile, "f")
    assert dispersion.f_prime is specfun.f_prime
    assert dispersion.f_second is specfun.f_second
    # solver imports operators as op: no op._name, and no private name imported
    private = {node.attr for node in ast.walk(ast.parse(inspect.getsource(solver)))
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "op" and node.attr.startswith("_")}
    private |= {name for name in _names_imported_from(solver, "operators")
                if name.startswith("_")}
    assert not private
    for info in pkgutil.iter_modules(ferrojet.__path__):
        if info.name != "specfun":
            module = importlib.import_module(f"ferrojet.{info.name}")
            assert "F_SERIES_CUT" not in _names_read(module), info.name


def _function_nodes(module) -> dict:
    """Every function definition in ``module``'s source, by name."""
    return {node.name: node for node in ast.walk(ast.parse(inspect.getsource(module)))
            if isinstance(node, ast.FunctionDef)}


def _calls(node) -> list:
    """The names of the functions ``node`` calls by a bare name."""
    return [call.func.id for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)]


def test_one_loop_sums_every_power_series():
    # the I, K and Struve series and the lattice's term count all go through
    # specfun._series, the one caller of the stopping test; none keeps a
    # term recurrence of its own
    callers = []
    for info in pkgutil.iter_modules(ferrojet.__path__):
        module = importlib.import_module(f"ferrojet.{info.name}")
        callers += [(info.name, name) for name, node in _function_nodes(module).items()
                    if "_converged" in _calls(node)]
    assert callers == [("specfun", "_series")]
    for module, name in ((specfun, "_series_terms"), (specfun, "_iv_series_scaled"),
                         (specfun, "_kv_series_scaled"), (checks, "_lv_series")):
        node = _function_nodes(module)[name]
        assert not [n for n in ast.walk(node) if isinstance(n, (ast.For, ast.While))], name
        assert "_series" in _calls(node), name
    assert not {"_converged", "_probe"} & _names_imported_from(checks, "specfun")


# parameters every caller left at one value, now module constants
REMOVED_PARAMETERS = [
    (dno.solve_flattened_bvp, "max_iter"),
    (solver.check_jacobian, "n_dirs"),
    (checks._panels, "n_inner"),
    (checks._panels, "n_outer"),
    (checks.bessel_i_quadrature, "m"),
    (specfun._f_series_fractions, "nterms"),
    (spectral.SpectralField, "parity"),
    (spectral.SpectralField, "check_parity"),
    (spectral.SpectralField.from_values, "parity"),
    (spectral.SpectralField.from_values, "check_parity"),
    (spectral.SpectralField.from_coeffs, "parity"),
]


def test_single_valued_parameters_are_constants():
    for fn, name in REMOVED_PARAMETERS:
        assert name not in inspect.signature(fn).parameters, (fn.__qualname__, name)
    # every suite runs on its own constants, and run_suite takes a name only
    assert list(inspect.signature(checks.run_suite).parameters) == ["name"]
    for suite in checks.SUITES.values():
        assert not inspect.signature(suite).parameters, suite.__name__


def test_spectral_field_carries_no_parity_tag():
    # the solvers' bases own the symmetric subspaces
    assert "parity" not in spectral.SpectralField.__slots__
    assert not hasattr(spectral.SpectralField, "from_function")
    assert not hasattr(spectral, "_parity_defect")
    # one derivative helper: SpectralGrid.deriv_values
    assert not hasattr(operators, "_dz")
