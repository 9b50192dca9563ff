"""Seeded fuzz helpers shared by the property and acceptance tests."""

import random

LOWER = "abcdefghijklmnopqrstuvwxyz"
UPPER = LOWER.upper()
DIGITS = "0123456789"
ALNUM = LOWER + UPPER + DIGITS


def random_label(rng: random.Random) -> bytes:
    roll = rng.random()
    if roll < 0.45:
        n = rng.randint(1, 15)
        return "".join(rng.choice(LOWER) for _ in range(n)).encode()
    if roll < 0.65:
        n = rng.randint(1, 12)
        return "".join(rng.choice(ALNUM) for _ in range(n)).encode()
    if roll < 0.75:
        n = rng.randint(1, 10)
        return "".join(rng.choice(ALNUM + "-_") for _ in range(n)).encode()
    if roll < 0.85:
        return str(rng.randrange(1, 10**9)).encode()
    n = rng.randint(1, 8)
    return bytes(rng.randrange(256) for _ in range(n))


def random_name(rng: random.Random, tld_sample: list) -> tuple[bytes, ...]:
    """A random parseable name's label tuple, biased to hit every taxonomy leaf."""
    roll = rng.random()
    if roll < 0.03:
        return ()
    if roll < 0.35:
        return (random_label(rng),)
    depth = rng.randint(2, 5)
    labels = [random_label(rng) for _ in range(depth - 1)]
    tld_roll = rng.random()
    if tld_roll < 0.35:
        tld = rng.choice(tld_sample)
        if rng.random() < 0.3:
            tld = tld.upper()
    elif tld_roll < 0.45:
        tld = b"appletalk"
    else:
        tld = random_label(rng)
    labels.append(tld)
    return tuple(labels)
