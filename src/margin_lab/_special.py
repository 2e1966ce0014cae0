"""The scipy.special ufuncs margin_lab calls, imported at the first read.

`import scipy.special` is most of a cold `import margin_lab` (0.3 s and
22 MB of 0.48 s and 56 MB on a 2-core Xeon with scipy 1.17.1), and only
the log loss's deriv and the gelu, silu and softplus blend bases call it.
The log loss's log_abs_deriv and second_deriv run on numpy alone
(losses._log_expit), so an adaptive log run never loads it. The first read
of ``erf`` or ``expit`` from this module imports scipy.special and binds
both here, so every later read is a plain module attribute lookup of the
ufunc itself: no import statement and no Python call. The ufuncs are
scipy's own objects, so every value keeps its bits.
"""

_NAMES = ("erf", "expit")


def __getattr__(name):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.special

    globals().update((n, getattr(scipy.special, n)) for n in _NAMES)
    return globals()[name]
