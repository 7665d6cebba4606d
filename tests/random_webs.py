"""Random crossing-free webs for the confluence and gluing tests."""

from a2planar.web import Web, cupcap_web, identity_web, wgen_web


def random_reducible_web(rng, max_signs: int = 4, layers: int = 4) -> Web:
    """A random crossing-free web, typically containing redexes."""
    n = rng.randrange(2, max_signs + 1)
    sigma = "".join(rng.choice("+-") for _ in range(n))
    w = identity_web(sigma)
    for _ in range(rng.randrange(1, layers + 1)):
        i = rng.randrange(n - 1)
        if sigma[i] == sigma[i + 1]:
            gen = wgen_web(sigma, i)
        else:
            gen = cupcap_web(sigma, i)
        w = w.compose(gen)
    if rng.random() < 0.7:
        w = w.compose(w.star())
    return w
