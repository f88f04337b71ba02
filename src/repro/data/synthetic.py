"""Synthetic workload generators matching the paper's Section 5.2.

Four dataset families, with the exact parameter choices the paper describes:

* ``truncnorm`` - per group: mean ~ U[0, 100], variance from {4, 25, 64, 100}
  (std 2/5/8/10), values from the normal truncated to [0, 100];
* ``mixture`` - per group: 1-5 truncated-normal components, each with mean
  ~ U[0, 100] and variance ~ U[1, 10];
* ``bernoulli`` - per group: mean ~ U[0, 100], values in {0, 100} with the
  matching bias (the highest-variance bounded distribution);
* ``hard(gamma)`` - group i's mean is fixed at 40 + gamma*i with two-point
  values, so eta = gamma is controlled exactly (used in Fig. 5(b)).

Defaults follow the paper: k = 10 groups, 10M records total split equally,
values in [0, 100].  Datasets are *virtual* by default (distribution-backed
groups with analytic means - see :class:`~repro.data.population.VirtualGroup`,
including why that stand-in is unsound near exhaustion); pass
``materialize=True`` to draw the values into memory for small populations.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.data.distributions import Distribution, Mixture, TruncatedNormal, TwoPoint
from repro.data.population import Group, MaterializedGroup, Population, VirtualGroup

__all__ = [
    "make_truncnorm_dataset",
    "make_mixture_dataset",
    "make_bernoulli_dataset",
    "make_hard_dataset",
    "make_skewed_mixture_dataset",
    "SYNTHETIC_FAMILIES",
    "DEFAULT_C",
    "DEFAULT_K",
    "DEFAULT_TOTAL_SIZE",
]

DEFAULT_C = 100.0
DEFAULT_K = 10
DEFAULT_TOTAL_SIZE = 10_000_000

_TRUNCNORM_VARIANCES = (4.0, 25.0, 64.0, 100.0)

_MATERIALIZE_LIMIT = 50_000_000


def _build_group(name: str, dist: Distribution, size: int, materialize: bool, rng) -> Group:
    if materialize:
        if size > _MATERIALIZE_LIMIT:
            raise ValueError(
                f"refusing to materialize {size} values for group {name!r}; "
                f"use a virtual population above {_MATERIALIZE_LIMIT}"
            )
        return MaterializedGroup(name, dist.sample(rng, size))
    return VirtualGroup(name, dist, size)


def _equal_sizes(total_size: int, k: int) -> list[int]:
    base = total_size // k
    sizes = [base] * k
    for i in range(total_size - base * k):
        sizes[i] += 1
    return sizes


def make_truncnorm_dataset(
    k: int = DEFAULT_K,
    total_size: int = DEFAULT_TOTAL_SIZE,
    c: float = DEFAULT_C,
    seed: int | None = None,
    std: float | None = None,
    materialize: bool = False,
) -> Population:
    """The paper's "Truncated Normals" family.

    Args:
        std: fix every group's standard deviation (the Fig. 7(b)/(c) sweep);
            ``None`` draws the variance per group from {4, 25, 64, 100}.
    """
    rng = as_rng(seed)
    sizes = _equal_sizes(total_size, k)
    groups = []
    for i in range(k):
        mu = rng.uniform(0.0, c)
        sigma = std if std is not None else float(np.sqrt(rng.choice(_TRUNCNORM_VARIANCES)))
        dist = TruncatedNormal(mu, sigma, 0.0, c)
        groups.append(_build_group(f"g{i}", dist, sizes[i], materialize, rng))
    return Population(groups=groups, c=c, name=f"truncnorm(k={k},N={total_size})")


def make_mixture_dataset(
    k: int = DEFAULT_K,
    total_size: int = DEFAULT_TOTAL_SIZE,
    c: float = DEFAULT_C,
    seed: int | None = None,
    materialize: bool = False,
) -> Population:
    """The paper's "Mixture of Truncated Normals" family (the default
    workload for most synthetic experiments)."""
    rng = as_rng(seed)
    sizes = _equal_sizes(total_size, k)
    groups = []
    for i in range(k):
        n_comp = int(rng.integers(1, 6))
        comps = [
            TruncatedNormal(
                rng.uniform(0.0, c), float(np.sqrt(rng.uniform(1.0, 10.0))), 0.0, c
            )
            for _ in range(n_comp)
        ]
        dist = Mixture(comps)
        groups.append(_build_group(f"g{i}", dist, sizes[i], materialize, rng))
    return Population(groups=groups, c=c, name=f"mixture(k={k},N={total_size})")


def make_bernoulli_dataset(
    k: int = DEFAULT_K,
    total_size: int = DEFAULT_TOTAL_SIZE,
    c: float = DEFAULT_C,
    seed: int | None = None,
    materialize: bool = False,
) -> Population:
    """The paper's "Bernoulli" family: values in {0, c} with random bias."""
    rng = as_rng(seed)
    sizes = _equal_sizes(total_size, k)
    groups = []
    for i in range(k):
        p = rng.uniform(0.0, 1.0)
        dist = TwoPoint(p, 0.0, c)
        groups.append(_build_group(f"g{i}", dist, sizes[i], materialize, rng))
    return Population(groups=groups, c=c, name=f"bernoulli(k={k},N={total_size})")


def make_hard_dataset(
    k: int = DEFAULT_K,
    gamma: float = 0.1,
    group_size: int = DEFAULT_TOTAL_SIZE // DEFAULT_K,
    c: float = DEFAULT_C,
    seed: int | None = None,
    materialize: bool = False,
) -> Population:
    """The paper's "Hard Bernoulli" family: group i's mean is 40 + gamma*i.

    eta (the minimal distance between means) equals gamma exactly, so
    c^2/gamma^2 controls the instance difficulty (Fig. 5(b)).
    """
    if not 0.0 < gamma < 2.0:
        raise ValueError(f"gamma must be in (0, 2), got {gamma}")
    rng = as_rng(seed)
    groups = []
    for i in range(k):
        mean = 40.0 + gamma * (i + 1)
        dist = TwoPoint(mean / c, 0.0, c)
        groups.append(_build_group(f"g{i}", dist, group_size, materialize, rng))
    return Population(groups=groups, c=c, name=f"hard(k={k},gamma={gamma})")


def make_skewed_mixture_dataset(
    k: int = DEFAULT_K,
    total_size: int = 1_000_000,
    first_fraction: float = 0.5,
    c: float = DEFAULT_C,
    seed: int | None = None,
    materialize: bool = False,
) -> Population:
    """Mixture dataset where the first group holds ``first_fraction`` of the
    records and the rest share the remainder equally (Fig. 7(a) skew sweep)."""
    if not 0.0 < first_fraction < 1.0:
        raise ValueError(f"first_fraction must be in (0, 1), got {first_fraction}")
    if k < 2:
        raise ValueError("the skewed dataset needs at least 2 groups")
    rng = as_rng(seed)
    first = max(int(total_size * first_fraction), 1)
    rest = _equal_sizes(total_size - first, k - 1)
    sizes = [first] + rest
    groups = []
    for i in range(k):
        n_comp = int(rng.integers(1, 6))
        comps = [
            TruncatedNormal(
                rng.uniform(0.0, c), float(np.sqrt(rng.uniform(1.0, 10.0))), 0.0, c
            )
            for _ in range(n_comp)
        ]
        groups.append(_build_group(f"g{i}", Mixture(comps), sizes[i], materialize, rng))
    return Population(
        groups=groups, c=c, name=f"skewed-mixture(k={k},f={first_fraction})"
    )


#: Named generator families, so catalog sources and the CLI can refer to a
#: synthetic workload by string spec instead of importing factory functions:
#: ``SyntheticSource("mixture", k=10, total_size=10_000_000, seed=0)``.
SYNTHETIC_FAMILIES = {
    "truncnorm": make_truncnorm_dataset,
    "mixture": make_mixture_dataset,
    "bernoulli": make_bernoulli_dataset,
    "hard": make_hard_dataset,
    "skewed-mixture": make_skewed_mixture_dataset,
}
