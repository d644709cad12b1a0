"""Permutations of {1..n} in one-line notation, as tuples.

Words multiply left to right: (w*v)(i) = v(w(i)), so the diagram of w*v is
the diagram of w stacked on top of the diagram of v.
"""

from itertools import permutations as _permutations, product

from .combinatorics import intervals

__all__ = [
    "identity", "all_perms", "compose", "inverse", "length", "sgen",
    "perm_from_word", "lex_least_word", "right_longer",
    "glue", "young_subgroup",
]


def identity(n):
    return tuple(range(1, n + 1))


def all_perms(n):
    return [tuple(p) for p in _permutations(range(1, n + 1))]


def compose(w, v):
    """Apply w first, then v."""
    return tuple(v[w[i] - 1] for i in range(len(w)))


def inverse(w):
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x - 1] = i + 1
    return tuple(out)


def length(w):
    """Number of inversions, i.e. Coxeter length."""
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
               if w[i] > w[j])


def sgen(n, i):
    """The adjacent transposition s_i as a permutation of {1..n}."""
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def perm_from_word(n, word):
    w = identity(n)
    for i in word:
        w = compose(w, sgen(n, i))
    return w


def lex_least_word(w):
    """Lexicographically least reduced word for w (letters apply left to
    right).  Greedy: repeatedly strip the smallest left descent."""
    w = list(w)
    word = []
    while True:
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                word.append(i + 1)
                w[i], w[i + 1] = w[i + 1], w[i]
                break
        else:
            return tuple(word)


def right_longer(w, i):
    """True if l(w * s_i) > l(w)."""
    wi = inverse(w)
    return wi[i - 1] < wi[i]


def glue(ws):
    """Permutations side by side: the k-th acts on the k-th box of the
    composition of their sizes."""
    boxes = intervals(tuple(map(len, ws)))
    return tuple([box[x - 1] for w, box in zip(ws, boxes) for x in w])


def young_subgroup(composition):
    """All permutations preserving the consecutive blocks of a composition,
    the first block most significant."""
    return [glue(ws) for ws in product(*map(all_perms, composition))]

