"""Deterministic composition of defenses into a stack.

A :class:`DefenseStack` is an ordered list of :class:`~repro.defenses.base.Defense`
instances.  Hooks run strictly in stack order: query-hardening hooks each get
to mutate the outgoing query; validation hooks short-circuit on the first
rejection (and the stack records *which* defense rejected, so experiments can
attribute blocked attacks); pool/sample filters run in order over the shared
context.  Because composition is a plain ordered fold, two stacks built from
the same spec behave identically — which is what keeps the attack × defense
matrix byte-reproducible across worker counts.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Optional, Union

from .base import Defense, PoolAcceptContext, QueryContext, ResponseContext

if TYPE_CHECKING:
    from ..experiments.testbed import Testbed
    from ..ntp.query import TimeSample

#: What a stack can be built from: registry names and/or ready instances.
DefenseSpec = Sequence[Union[str, Defense]]


class DefenseStack:
    """An ordered, deterministically-composed set of defenses."""

    def __init__(self, defenses: Iterable[Defense] = ()) -> None:
        self.defenses: list[Defense] = list(defenses)
        #: defense name -> number of responses/samples it rejected.
        self.rejections: Counter = Counter()

    @classmethod
    def from_spec(cls, spec: DefenseSpec) -> DefenseStack:
        """Build a stack from registry names and/or defense instances."""
        from .registry import build_defense

        return cls(item if isinstance(item, Defense) else build_defense(item)
                   for item in spec)

    # -- introspection ---------------------------------------------------------
    def __iter__(self) -> Iterator[Defense]:
        return iter(self.defenses)

    def __len__(self) -> int:
        return len(self.defenses)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(defense.name for defense in self.defenses)

    def has(self, kind: type[Defense]) -> bool:
        """Whether any defense in the stack is a ``kind``."""
        return any(isinstance(defense, kind) for defense in self.defenses)

    # -- lifecycle dispatch -----------------------------------------------------
    def attach_testbed(self, testbed: Testbed) -> None:
        for defense in self.defenses:
            defense.attach_testbed(testbed)

    # -- resolver dispatch -------------------------------------------------------
    def on_outgoing_query(self, ctx: QueryContext) -> None:
        for defense in self.defenses:
            defense.on_outgoing_query(ctx)

    def on_incoming_response(self, ctx: ResponseContext) -> Optional[tuple[str, str]]:
        """First rejection wins; returns ``(defense name, reason)`` or None."""
        for defense in self.defenses:
            reason = defense.on_incoming_response(ctx)
            if reason is not None:
                self.rejections[defense.name] += 1
                return defense.name, reason
        return None

    # -- client dispatch -----------------------------------------------------------
    def on_pool_accept(self, ctx: PoolAcceptContext) -> PoolAcceptContext:
        for defense in self.defenses:
            defense.on_pool_accept(ctx)
            if ctx.rejected_by is not None:
                self.rejections[ctx.rejected_by] += 1
                break
        return ctx

    def on_ntp_sample(self, sample: TimeSample) -> bool:
        """Whether the sample survives every defense."""
        for defense in self.defenses:
            reason = defense.on_ntp_sample(sample)
            if reason is not None:
                self.rejections[defense.name] += 1
                return False
        return True


def defense_rejections(*stacks: DefenseStack) -> dict[str, int]:
    """Combined per-defense rejection counts across the given stacks.

    The resolver counts its own (response-side) rejections while the testbed
    stack counts pool-admission and NTP-sample vetoes; summing the two gives
    the full picture of *which* defense blocked an attack.
    """
    total: Counter = Counter()
    for stack in stacks:
        total.update(stack.rejections)
    return dict(sorted(total.items()))
