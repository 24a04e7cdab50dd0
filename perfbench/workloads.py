"""The benchmark's workloads: one fracstep study config per workload.

Each workload is a config template plus a small fixed menu of variants.  The
seed picks the variant (``seed % len(menu)``); variant 0 is the default
workload.  Every variant runs the same code paths with the same amount of
work, so run-to-run spread across seeds stays a measure of noise, not of
input size.  ``tiny`` shrinks each workload for the smoke check.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str  # fracstep CLI subcommand
    template: str  # INI text with {placeholders}
    base: dict  # default values of the size placeholders
    menu: tuple  # variant overrides, picked by seed
    tiny: dict  # size overrides for the smoke check
    why: str

    def variant(self, seed: int) -> int:
        return seed % len(self.menu)

    def config_text(self, variant: int, tiny: bool = False) -> str:
        values = dict(self.base)
        values.update(self.menu[variant])
        if tiny:
            values.update(self.tiny)
        return self.template.format(**values)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="fode-exact",
            subcommand="fode",
            # studies/two_term_alpha_tenth.ini [avg-orders], tau chain 2^-6..2^-9
            template="""[avg-orders]
kind = fode
problem = two_term_ml
alpha = 0.1
taus = {taus}
columns = 0 1 3 5
sigma_rule = {sigma_rule}
norms = avg
reference = exact
""",
            base={"taus": "2^-6 2^-7 2^-8 2^-9"},
            # exponent offsets as in the shipped [shifted-exponents] study;
            # same grids, so the same Mittag-Leffler and solver work
            menu=(
                {"sigma_rule": "(k+1)*alpha"},
                {"sigma_rule": "(k+1)*alpha+0.05"},
                {"sigma_rule": "(k+1)*alpha+0.1"},
            ),
            tiny={"taus": "2^-4 2^-5"},
            why="two-term Mittag-Leffler FODE with exact reference: specfun-bound, bypasses long histories",
        ),
        Workload(
            name="fode-long",
            subcommand="fode",
            template="""[fode-long]
kind = fode
problem = nonlinear_cubic
alphas = {alphas}
t_end = 10
taus = {taus}
columns = l1 trap 3
norms = max final avg
reference = {reference}
""",
            base={"taus": "2^-6 2^-7 2^-8 2^-9", "reference": "trapezoidal:2^-11"},
            menu=({"alphas": "0.2 0.1"}, {"alphas": "0.3 0.1"}, {"alphas": "0.2 0.05"}),
            tiny={"taus": "2^-2 2^-3", "reference": "trapezoidal:2^-4"},
            why="nonlinear cubic FODE, T=10, trapezoidal reference at 20480 steps: O(N^2) scalar history, no specfun",
        ),
        Workload(
            name="wave-selfref",
            subcommand="wave",
            # studies/wave_forced.ini [wave-forced], tau chain cut at 2^-8, ref 2^-9
            template="""[wave-forced]
kind = wave
case = forced
alpha = {alpha}
taus = {taus}
columns = 0 1 2 3
apply_to = all
sigma_rule = list: 2.0 2.5 3.0 3.5
norm = final
reference = {reference}
""",
            base={"taus": "2^-5 2^-6 2^-7 2^-8", "reference": "self:2^-9"},
            menu=({"alpha": "0.5"}, {"alpha": "0.4"}, {"alpha": "0.6"}),
            tiny={"taus": "2^-4 2^-5", "reference": "self:2^-6"},
            why="forced diffusion-wave with a self reference re-solved per cell: wave stepper, startup block, repeated solves",
        ),
        Workload(
            name="subdiff-avg",
            subcommand="subdiff",
            # studies/subdiffusion.ini [subdiffusion-forced], tau chain cut at 2^-9, ref 2^-11
            template="""[subdiffusion-forced]
kind = subdiff
taus = {taus}
columns = l1 1 2 3
sigma_rule = list: 0.75 1.0 1.25 1.5
norm = average
reference = {reference}
""",
            base={"reference": "self:2^-11"},
            # the chain start only adds cheap coarse cells; the per-column
            # references at 2^-11 dominate the cost
            menu=(
                {"taus": "2^-6 2^-7 2^-8 2^-9"},
                {"taus": "2^-5 2^-6 2^-7 2^-8 2^-9"},
                {"taus": "2^-4 2^-5 2^-6 2^-7 2^-8 2^-9"},
            ),
            tiny={"taus": "2^-4 2^-5", "reference": "self:2^-6"},
            why="two-term subdiffusion with time-averaged L2 norm: both subdiffusion loops and the averaged norm",
        ),
    ]
}
