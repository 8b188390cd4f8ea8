"""Model configurations for the Heterogeneous MPC simulator.

The paper's model (Section 2): one *large* machine with memory
``O(n polylog n)`` and ``K = m / n^gamma`` *small* machines with memory
``O(n^gamma polylog n)`` each, ``gamma in (0, 1)``.  Section 6 generalizes to
machines of memory ``n^{1+f(n)}``; Theorems 3.1 and 5.5 exploit a large
machine with superlinear memory, which we expose through
``large_memory_exponent = 1 + f``.

We also provide a pure *sublinear* configuration (no large machine) for the
baseline column of Table 1, and a *near-linear* configuration where every
machine has near-linear memory.

Capacities are ``constant * n^exponent * (log2 n)^polylog_power`` words.  At
the sizes a single-host simulation can reach, the polylog slack dominates
the asymptotics, so by default the simulator *records* capacity violations
in the ledger instead of raising; pass ``strict=True`` to hard-fail.

Every field is set the same way, through the constructor or a named
regime: ``ModelConfig.heterogeneous(n, m, strict=True,
throttle="enforce")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .throttle import MODES

__all__ = ["ModelConfig"]


@dataclass(frozen=True)
class ModelConfig:
    """Parameters of a (possibly heterogeneous) MPC deployment.

    Attributes:
        n: number of vertices of the input graph.
        m: number of edges of the input graph.
        gamma: memory exponent of the small machines.
        large_memory_exponent: memory exponent of the large machine(s);
            ``1.0`` is the paper's near-linear large machine, ``1 + f``
            models Theorems 3.1 / 5.5.
        num_large: number of large machines (0 for the sublinear regime,
            1 for the paper's Heterogeneous MPC model).
        num_small: number of small machines; defaults to
            ``max(2, ceil(m / n^gamma))`` as in the paper.
        polylog_power: exponent of the ``log^a n`` slack in every capacity.
        constant: leading constant of every capacity.
        strict: raise on capacity violations instead of recording them.
        throttle: the adaptive-throttling mode, one of ``"off"``,
            ``"advise"`` and ``"enforce"`` (see :mod:`repro.mpc.throttle`);
            the default ``"off"`` attaches no controller at all.
    """

    n: int
    m: int
    gamma: float = 0.5
    large_memory_exponent: float = 1.0
    num_large: int = 1
    num_small: int = 0
    polylog_power: int = 2
    constant: float = 4.0
    strict: bool = False
    throttle: str = "off"

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least 2 vertices")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.throttle not in MODES:
            raise ValueError(
                f"unknown throttle mode {self.throttle!r}; known: {MODES}"
            )
        if self.num_small <= 0:
            default = max(2, math.ceil(max(self.m, 1) / self.n**self.gamma))
            object.__setattr__(self, "num_small", default)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def _capacity(self, exponent: float) -> int:
        polylog = max(1.0, math.log2(self.n)) ** self.polylog_power
        return max(8, int(self.constant * self.n**exponent * polylog))

    @property
    def small_capacity(self) -> int:
        """Memory (and per-round bandwidth) of one small machine, in words."""
        return self._capacity(self.gamma)

    @property
    def large_capacity(self) -> int:
        """Memory (and per-round bandwidth) of one large machine, in words."""
        return self._capacity(self.large_memory_exponent)

    @property
    def f(self) -> float:
        """The superlinear-memory parameter ``f`` with large memory
        ``n^{1+f}`` (Theorem 3.1); ``f = 1/log n`` for a near-linear
        machine."""
        extra = self.large_memory_exponent - 1.0
        return max(extra, 1.0 / max(2.0, math.log2(self.n)))

    @property
    def tree_fanout(self) -> int:
        """Branching factor of aggregation/dissemination trees — ``n^gamma``
        as in the proofs of Claims 2 and 3."""
        return max(2, int(self.n**self.gamma))

    # ------------------------------------------------------------------
    # Named regimes
    # ------------------------------------------------------------------
    @classmethod
    def heterogeneous(cls, n: int, m: int, gamma: float = 0.5, **kw) -> "ModelConfig":
        """The paper's Heterogeneous MPC model: one near-linear machine plus
        ``m / n^gamma`` sublinear machines."""
        return cls(n=n, m=m, gamma=gamma, num_large=1, **kw)

    @classmethod
    def heterogeneous_superlinear(
        cls, n: int, m: int, f: float, gamma: float = 0.5, **kw
    ) -> "ModelConfig":
        """Heterogeneous MPC with a superlinear large machine of memory
        ``n^{1+f} polylog n`` (Theorems 3.1 and 5.5).  *f* must be finite,
        non-negative and small enough that the capacity is a float."""
        if not math.isfinite(f):
            raise ValueError(f"f must be finite, got {f}")
        if f < 0:
            raise ValueError("f must be non-negative")
        config = cls(
            n=n, m=m, gamma=gamma, num_large=1, large_memory_exponent=1.0 + f, **kw
        )
        try:
            config.large_capacity
        except OverflowError:
            raise ValueError(
                f"f={f} makes the large machine's capacity n^(1+f) overflow"
            ) from None
        return config

    @classmethod
    def general(
        cls,
        n: int,
        m: int,
        s_sub: int,
        s_lin: int = 0,
        s_sup: int = 0,
        gamma: float = 0.5,
        **kw,
    ) -> "ModelConfig":
        """The generalized ``(S_sub, S_lin, S_sup)``-Heterogeneous MPC model
        proposed in Section 6: total memories per machine class translate
        into machine counts (``S_sub / n^gamma`` small machines and
        ``S_lin / n`` near-linear or ``S_sup / n^{1+gamma}`` superlinear
        large machines).

        The paper's model is ``general(n, m, s_sub=m, s_lin=n)``.  Mixing
        near-linear *and* superlinear machines in one deployment is left
        open by the paper and unsupported here (raise).
        """
        if s_lin and s_sup:
            raise ValueError(
                "mixed near-linear + superlinear deployments are an open "
                "problem in the paper and not supported"
            )
        num_small = max(2, math.ceil(s_sub / n**gamma))
        if s_sup:
            exponent = 1.0 + gamma
            num_large = max(1, math.ceil(s_sup / n**exponent))
        elif s_lin:
            exponent = 1.0
            num_large = max(1, math.ceil(s_lin / n))
        else:
            exponent = 1.0
            num_large = 0
        return cls(
            n=n,
            m=m,
            gamma=gamma,
            num_small=num_small,
            num_large=num_large,
            large_memory_exponent=exponent,
            **kw,
        )

    @classmethod
    def sublinear(cls, n: int, m: int, gamma: float = 0.5, **kw) -> "ModelConfig":
        """The sublinear MPC regime: no large machine at all."""
        return cls(n=n, m=m, gamma=gamma, num_large=0, **kw)

    @classmethod
    def near_linear(cls, n: int, m: int, **kw) -> "ModelConfig":
        """The near-linear MPC regime: every machine has ``~n`` memory.

        Modelled as small machines whose exponent is pushed to (almost) 1;
        we keep one designated large machine so near-linear algorithms that
        centralize ``~n`` words run unchanged.
        """
        num_small = max(2, math.ceil(max(m, 1) / max(n, 2)))
        return cls(n=n, m=m, gamma=0.999999, num_large=1, num_small=num_small, **kw)
