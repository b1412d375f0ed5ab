"""minicas: a small symbolic computation kernel.

Exact arithmetic (integers, rationals, arbitrary-precision floats,
complex values built from them), canonical immutable expression trees,
multivariate polynomial GCDs and normal forms, truncated Laurent
series, symbolic functions with deferred evaluation, exact linear
algebra, a statement shell, and a digest-checked benchmark harness.

The package namespace re-exports the working vocabulary; the modules
remain importable on their own for the internals each one documents.
`import minicas` loads none of them.  A re-exported name, or a module
read as an attribute (`minicas.poly`), imports its module on first use
(PEP 562's module `__getattr__`), so a session compiles only the layers
it touches; `minicas.numbers` imports mpmath with the first float.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the names the package re-exports from it
_EXPORTS = {
    "bench": "CSV_HEADER BenchRecord bench_run default_size fnv1a64 registered_ids",
    "errors": "DomainError NoUniqueSolutionError ParseError PoleError RegistrationError "
              "SeriesError ShapeError SingularMatrixError UnevaluatedDerivativeError "
              "UnsupportedPatternError",
    "expr": "Add Catalan Constant Eq Euler Expr ExprList FunctionApp I MatrixNode Mul Numeric "
            "Pi Power PSeriesNode Relational Symbol add apply_function compare diff evalf "
            "expand free_symbols lift mul power pseries rel sqrt subs symbols to_string",
    "functions": "FunctionDef cos exp factorial fn_lookup fn_register gamma log psi "
                 "registered_names sin zeta",
    "matrices": "hilbert identity mat_charpoly mat_det mat_inverse mat_mul matrix solve_linear",
    "numbers": "DEFAULT_DPS Number bernoulli from_decimal num num_to_float",
    "parser": "Command ParsedInput parse parse_expr",
    "poly": "coeff collect content_primpart degree exact_quotient heur_gcd lcm ldegree normal "
            "poly_gcd sr_gcd",
    "series": "ps_add ps_exp ps_mul ps_pow ps_to_expr series_coeff series_of",
    "shell": "Shell repl run_script",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*__all__, *_EXPORTS, *(k for k in globals() if k.startswith("__"))})
