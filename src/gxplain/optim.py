"""Adam optimizer over lists of numpy parameter arrays."""

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam with bias correction, updating its parameter arrays in place.

    Each parameter gets two scratch arrays of its shape, made here, so a
    step allocates no array of the parameters' size.
    """

    def __init__(self, params: list[np.ndarray], learning_rate: float = 0.001):
        self.params = params
        self.learning_rate = learning_rate
        self.first_moment = [np.zeros_like(p) for p in params]
        self.second_moment = [np.zeros_like(p) for p in params]
        self._scratch = [
            (np.empty_like(p), np.empty_like(p)) for p in params
        ]
        self.step_count = 0

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(
                f"got {len(grads)} gradients for {len(self.params)} parameters"
            )
        self.step_count += 1
        correction1 = 1.0 - BETA1 ** self.step_count
        correction2 = 1.0 - BETA2 ** self.step_count
        for p, g, m, v, (t, s) in zip(
            self.params,
            grads,
            self.first_moment,
            self.second_moment,
            self._scratch,
        ):
            # in place, in the operation order of m += (1 - b1) * g,
            # v += (1 - b2) * g * g, p -= lr * (m / c1) / (sqrt(v / c2) + eps)
            np.multiply(1.0 - BETA1, g, out=t)
            m *= BETA1
            m += t
            np.multiply(1.0 - BETA2, g, out=t)
            t *= g
            v *= BETA2
            v += t
            np.divide(v, correction2, out=s)
            np.sqrt(s, out=s)
            s += EPSILON
            np.divide(m, correction1, out=t)
            t *= self.learning_rate
            t /= s
            p -= t
