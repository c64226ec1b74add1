"""Table II: the synthetic dataset catalog M1--M12.

The paper's table body is not reproduced in the text we work from; the
grid below is pinned by Section V-B's comparative statements:

* "comparing the two subfigures from the same row in the first and the
  third column, as well as the second and the fourth column ... a greater
  dt would reduce the intensity of disorder" — M1--M6 use ``dt = 50``,
  M7--M12 use ``dt = 10`` (and "in M7--M12 with dt = 10" says so
  directly);
* "comparing the results on M1 and M4 (and similarly M2 vs M5, M3 vs M6
  ...) increasing mu would intensify WA" — the second triple raises
  ``mu`` from 4 to 5;
* "the comparisons from M1 to M3 show that a larger sigma introduces more
  severe WA" — within a triple, ``sigma`` steps through 1.5, 1.75, 2
  (the values Figures 5 and 7 use).

All delays are lognormal, matching Section III/V-A.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..distributions import LogNormalDelay
from .dataset import TimeSeriesDataset
from .synthetic import generate_synthetic

__all__ = ["SyntheticSpec", "TABLE_II"]

#: Points per dataset in the paper ("for each dataset, there are 10
#: million tuples").  Experiments here default to a scaled-down count.
PAPER_POINTS = 10_000_000


@dataclass(frozen=True)
class SyntheticSpec:
    """One row of Table II."""

    name: str
    dt: float
    mu: float
    sigma: float

    def delay_distribution(self) -> LogNormalDelay:
        """The row's delay law."""
        return LogNormalDelay(mu=self.mu, sigma=self.sigma)

    def build(self, n_points: int, seed: int = 0) -> TimeSeriesDataset:
        """Materialise the dataset with ``n_points`` tuples."""
        data = generate_synthetic(
            n_points=n_points,
            dt=self.dt,
            delay=self.delay_distribution(),
            seed=seed,
            name=self.name,
        )
        data.metadata.update({"mu": self.mu, "sigma": self.sigma})
        return data


def _grid() -> dict[str, SyntheticSpec]:
    specs = {}
    index = 1
    for dt in (50.0, 10.0):
        for mu in (4.0, 5.0):
            for sigma in (1.5, 1.75, 2.0):
                name = f"M{index}"
                specs[name] = SyntheticSpec(name=name, dt=dt, mu=mu, sigma=sigma)
                index += 1
    return specs


#: Name -> spec for M1..M12.
TABLE_II: dict[str, SyntheticSpec] = _grid()
