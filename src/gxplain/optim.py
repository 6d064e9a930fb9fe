"""Adam optimizer over lists of numpy parameter arrays."""

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam with bias correction, updating its parameter arrays in place."""

    def __init__(self, params: list[np.ndarray], learning_rate: float = 0.001):
        self.params = params
        self.learning_rate = learning_rate
        self.first_moment = [np.zeros_like(p) for p in params]
        self.second_moment = [np.zeros_like(p) for p in params]
        self.step_count = 0

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(
                f"got {len(grads)} gradients for {len(self.params)} parameters"
            )
        self.step_count += 1
        correction1 = 1.0 - BETA1 ** self.step_count
        correction2 = 1.0 - BETA2 ** self.step_count
        for p, g, m, v in zip(
            self.params, grads, self.first_moment, self.second_moment
        ):
            # in place, in the operation order of m += (1 - b1) * g,
            # v += (1 - b2) * g * g, p -= lr * (m / c1) / (sqrt(v / c2) + eps)
            t = (1.0 - BETA1) * g
            m *= BETA1
            m += t
            np.multiply(1.0 - BETA2, g, out=t)
            t *= g
            v *= BETA2
            v += t
            s = np.sqrt(v / correction2)
            s += EPSILON
            np.divide(m, correction1, out=t)
            t *= self.learning_rate
            t /= s
            p -= t
