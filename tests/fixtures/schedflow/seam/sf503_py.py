"""Python side of the SF503 seam fixtures: the gated bailout target."""

_BUS = None


class PokeMachine:
    """A machine whose slow path is gated on the bus and the tracer."""

    def on_poke(self):
        """Bailout target: observes both runtime gates."""
        if _BUS.active:
            _BUS.emit("poke")
        if self.tracer is not None:
            self.tracer.on_poke(self)

    def on_nudge(self):
        """Bailout target whose only gate sits in a helper it calls."""
        self._observe()

    def _observe(self):
        if self.tracer is not None:
            self.tracer.on_nudge(self)
