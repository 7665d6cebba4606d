"""Random webs for the confluence, gluing and planar-map tests."""

from a2planar.oracle import read_strip
from a2planar.web import Web, cupcap_web, identity_web, wgen_web

STRIP_KINDS = ("CUP", "CAP", "FORK_IN", "FORK_OUT", "FORK_IN_INV", "FORK_OUT_INV")


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


def fitting_tokens(below: str, max_len: int = 8) -> list:
    """Every cup, cap and fork token that fits on the word ``below``
    (``oracle.read_strip``) and leaves a word of at most ``max_len`` signs."""
    out = []
    for kind in STRIP_KINDS:
        for i in range(1, len(below) + 2):
            for token in [(kind, i, "-"), (kind, i, "+")] if kind == "CAP" else [(kind, i)]:
                try:
                    top, _ = read_strip(token, below)
                except ValueError:
                    continue
                if len(top) <= max_len:
                    out.append(token)
    return out


def random_strip_word(rng, max_strips: int = 8, max_len: int = 8) -> list:
    """A random word of up to ``max_strips`` cup, cap and fork strips, top
    strip first, grown from the bottom up on the empty word: each strip is
    a kind drawn from those that fit the word below, at a position drawn
    from those where it fits.  Every word it passes through has at most
    ``max_len`` signs."""
    word, below = [], ""
    for _ in range(rng.randint(1, max_strips)):
        tokens = fitting_tokens(below, max_len)
        kind = rng.choice(sorted({t[0] for t in tokens}))
        token = rng.choice([t for t in tokens if t[0] == kind])
        below, _ = read_strip(token, below)
        word.insert(0, token)
    return word
