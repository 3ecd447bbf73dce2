"""The option surface of the public API, pinned.

Every function exported by the package, and the __init__, classmethods,
staticmethods and public methods of every exported class, are listed with
the parameters that have a default.  Callables with none are left out, so
adding or removing an option is a one-line edit of OPTIONS.
"""

import inspect

import stablepgf

OPTIONS = {
    "BirthDeathRates.quadratic_death": ["scale"],
    "Measure.__init__": ["tail_bound"],
    "Measure.point_mass": ["shape"],
    "Measure.poisson": ["box"],
    "SiteSystem.__init__": ["birth_fn", "death_fn"],
    "StabilityCertificate.__init__": ["witness", "m", "tolerance_used", "note", "alternation"],
    "UniPoly.zero": ["exact"],
    "certify_tstable": ["m_max", "tail_bound"],
    "evolve": ["tol"],
    "evolve_grid": ["tol"],
    "is_real_rooted": ["coeff_perturb"],
    "is_stable_multi": ["budget"],
    "transition": ["tol"],
    "truncated_generator_evolve": ["box", "tol"],
}


def public_callables():
    for name, obj in sorted(vars(stablepgf).items()):
        if name.startswith("_") or not getattr(obj, "__module__", "").startswith("stablepgf"):
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_option_surface():
    found = {}
    for name, fn in public_callables():
        params = inspect.signature(fn).parameters.values()
        defaults = [p.name for p in params if p.default is not p.empty]
        if defaults:
            found[name] = defaults
    assert found == OPTIONS
