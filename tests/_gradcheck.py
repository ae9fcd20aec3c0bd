"""Central finite-difference gradient checking.

The networks contain max/min aggregators and relu kinks, so a single
fixed step can straddle a non-smooth point. For each coordinate several
step sizes are tried with central and second-order one-sided quotients
(one-sided stays on the smooth side of a nearby kink); a coordinate
passes if any quotient agrees with the analytic gradient.
"""

import numpy as np

STEPS = (1e-5, 1e-6, 1e-7, 1e-8)


def coordinate_ok(loss_fn, flat, k, analytic, rtol=1e-4, atol=1e-9):
    orig = flat[k]

    def at(delta):
        flat[k] = orig + delta
        value = loss_fn()
        flat[k] = orig
        return value

    f0 = at(0.0)
    for h in STEPS:
        up, up2 = at(h), at(2 * h)
        down, down2 = at(-h), at(-2 * h)
        quotients = (
            (up - down) / (2 * h),                    # central
            (-3 * f0 + 4 * up - up2) / (2 * h),       # forward, 2nd order
            (3 * f0 - 4 * down + down2) / (2 * h),    # backward, 2nd order
        )
        for fd in quotients:
            err = abs(analytic - fd)
            if err <= atol or err / max(abs(fd), abs(analytic), 1e-8) <= rtol:
                return True
    return False


def parameters(mlps):
    """Each weight and bias array of the MLPs with its gradient, in buffer order."""
    return [(a, g) for mlp in mlps for layer, grads in zip(mlp.layers, mlp.grads)
            for a, g in zip(layer[:2], grads)]


def check_params(loss_fn, params, rng, per_param=2, rtol=1e-4):
    """Spot-check random coordinates of every parameter array.

    `params` are (array, gradient) pairs, as `parameters` gives them;
    `loss_fn` recomputes the scalar loss from the arrays' current values,
    and the gradients must already be populated. Returns the number checked.
    """
    checked = 0
    for value, grad in params:
        flat = value.reshape(-1)
        grad = grad.reshape(-1)
        ks = rng.choice(flat.size, size=min(per_param, flat.size), replace=False)
        for k in ks:
            assert coordinate_ok(loss_fn, flat, int(k), grad[int(k)], rtol=rtol), \
                f"gradient mismatch at coordinate {k} of shape {value.shape}"
            checked += 1
    return checked
