"""Target paths gamma: [0, 1] -> R^n for the lift to follow."""

from bisect import bisect_right

import numpy as np

from .errors import ConfigurationError, finite


class TargetPath:
    """Interface: gamma(s) and gamma_dot(s) on [0, 1].

    ``legs`` lists the path in order as ``(a, b, leg)``, each leg with its
    own ``gamma`` and ``gamma_dot``, smooth on [a, b]; the lift steps one
    leg at a time.  A smooth path is the one leg ``(0, 1, self)``.
    """

    @property
    def legs(self):
        return ((0.0, 1.0, self),)

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


class _Segment:
    """A polyline leg from p at s = a to q at s = b, exact at both ends."""

    def __init__(self, a, b, p, q, slope):
        self.a, self.b, self.p, self.q, self.slope = a, b, p, q, slope

    def gamma(self, s):
        t = (s - self.a) / (self.b - self.a)
        return (1.0 - t) * self.p + t * self.q

    def gamma_dot(self, s):
        return self.slope


class PolylinePath(TargetPath):
    """Piecewise-linear path through waypoints, one leg per segment, each
    uniform in s; C^2 smoothness breaks at the knots between legs."""

    def __init__(self, waypoints):
        pts = finite(waypoints, "polyline waypoints")
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ConfigurationError("polyline needs >= 2 waypoints")
        self.points = pts
        n = pts.shape[0] - 1
        self.slopes = np.diff(pts, axis=0) * n
        self._legs = tuple(
            (k / n, (k + 1) / n,
             _Segment(k / n, (k + 1) / n, pts[k], pts[k + 1], self.slopes[k]))
            for k in range(n))
        self._starts = [a for a, _, _ in self._legs]

    @property
    def legs(self):
        return self._legs

    def _segment(self, s):
        # the last leg starting at or before s, so a knot takes the next
        # leg; s a rounding below 0 takes the first leg
        k = max(bisect_right(self._starts, s) - 1, 0)
        return self._legs[k][2]

    def gamma(self, s):
        return self._segment(s).gamma(s)

    def gamma_dot(self, s):
        return self._segment(s).gamma_dot(s)

    def max_speed(self):
        # every slope, normed as gamma_dot is: samples can miss segments
        return max(float(np.linalg.norm(slope)) for slope in self.slopes)


def line_to_target(oracle, u0, target):
    """Default path: straight line from F(u0) to the target point."""
    return LinePath(oracle.eval(oracle._domain_vec(u0, "u0")),
                    oracle._codomain_vec(target, "target"))
