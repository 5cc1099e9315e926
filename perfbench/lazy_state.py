"""Imports every layer and builds the lazy state that CLI calls pay for.

Run as a script in a fresh interpreter, its wall time is the benchmark's
``setup_s``: importing ``pssurf.cli`` and the other layers, the example
catalog, the CH2 system in momentum form, and the first numeric flow
derivative (which builds the generator's expression table).
"""

from pssurf import chsym, classify, cli, forms, jetcalc, kernel, laxzoo, numgrid  # noqa: F401


def build() -> None:
    classify.catalog()
    chsym.ch2_system()
    chsym.flow_derivative(chsym.seed_state(0.75, 1.0))


if __name__ == "__main__":
    build()
