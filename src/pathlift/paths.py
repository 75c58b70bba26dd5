"""Target paths gamma: [0, 1] -> R^n for the lift to follow."""

import numpy as np

from .errors import ConfigurationError, finite


class TargetPath:
    """Interface: gamma(s) and gamma_dot(s) on [0, 1].

    ``knots`` lists interior parameters where smoothness breaks; the
    solver restarts its diagnostics there.
    """

    knots = ()

    def gamma(self, s):
        raise NotImplementedError

    def gamma_dot(self, s):
        raise NotImplementedError

    def max_speed(self):
        """max |gamma_dot| over 201 uniform samples of [0, 1]."""
        return max(float(np.linalg.norm(self.gamma_dot(s)))
                   for s in np.linspace(0.0, 1.0, 201))


class LinePath(TargetPath):
    """Straight segment from start to end."""

    def __init__(self, start, end):
        self.start = finite(start, "line start")
        self.end = finite(end, "line end")
        if self.start.shape != self.end.shape or self.start.ndim != 1:
            raise ConfigurationError("line endpoints must be 1-d and match")

    def gamma(self, s):
        return (1.0 - s) * self.start + s * self.end

    def gamma_dot(self, s):
        return self.end - self.start

    def max_speed(self):
        return float(np.linalg.norm(self.end - self.start))


class PolylinePath(TargetPath):
    """Piecewise-linear path through waypoints, uniform in s per segment.

    C^2 smoothness is broken at the knots; they are exposed so the lift
    can restart eigenvector alignment and coefficient tracking there.
    """

    def __init__(self, waypoints):
        pts = finite(waypoints, "polyline waypoints")
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ConfigurationError("polyline needs >= 2 waypoints")
        self.points = pts
        self.nseg = pts.shape[0] - 1
        self.knots = tuple(k / self.nseg for k in range(1, self.nseg))

    def _segment(self, s):
        # right-continuous segment choice so gamma_dot(knot) is the
        # incoming slope of the next segment; s just outside [0, 1] (a
        # rounding) takes the end segment, not a wrapped-around one
        k = min(max(int(np.floor(s * self.nseg)), 0), self.nseg - 1)
        return k, s * self.nseg - k

    def gamma(self, s):
        k, t = self._segment(s)
        return (1.0 - t) * self.points[k] + t * self.points[k + 1]

    def gamma_dot(self, s):
        k, _ = self._segment(s)
        return (self.points[k + 1] - self.points[k]) * self.nseg

    def max_speed(self):
        # every slope, normed as gamma_dot is: samples can miss segments
        return max(float(np.linalg.norm(slope))
                   for slope in np.diff(self.points, axis=0) * self.nseg)


def line_to_target(oracle, u0, target):
    """Default path: straight line from F(u0) to the target point."""
    start = oracle.eval(np.asarray(u0, dtype=float))
    target = np.asarray(target, dtype=float)
    if target.shape != start.shape:
        raise ConfigurationError(
            f"target must have length {len(start)}, got {target.shape}")
    return LinePath(start, target)
