"""Built-in diagrams and the randomized test corpus."""

from __future__ import annotations

import random
import re

from .diagrams import BraidWord, OrientedDiagram, from_braid
from .errors import ParseError
from .ssr import SsrDiagram, _full_twist_letters, insert_twists, torus_word


def braid_unknot() -> BraidWord:
    return BraidWord(1, ())


def builtin_diagram(name: str) -> OrientedDiagram:
    """Resolve a built-in S^3 diagram name."""
    key = name.replace(" ", "")
    if key in ("unknot", "U", "U1", "U_1"):
        return from_braid(braid_unknot())
    m = re.fullmatch(r"U_?(\d+)", key)
    if m:
        return from_braid(BraidWord(int(m.group(1)), ()))
    if key in ("trefoil+", "trefoil"):
        return from_braid(BraidWord(2, (1, 1, 1)))
    if key == "trefoil-":
        return from_braid(BraidWord(2, (-1, -1, -1)))
    if key in ("figure8", "fig8", "4_1"):
        return from_braid(BraidWord(3, (1, -2, 1, -2)))
    if key in ("hopf+", "hopf"):
        return from_braid(BraidWord(2, (1, 1)))
    if key == "hopf-":
        return from_braid(BraidWord(2, (-1, -1)))
    m = re.fullmatch(r"T\((-?\d+),(-?\d+)\)", key)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        return from_braid(BraidWord(p, torus_word(p, q)))
    m = re.fullmatch(r"F_?(\d+)\((-?\d+)\)", key)
    if m:
        p, k = int(m.group(1)), int(m.group(2))
        return insert_twists(builtin_ssr(f"F_{p}"), (k,))
    m = re.fullmatch(r"F_?(\d+),(\d+)\((-?\d+)\)", key)
    if m:
        p, q, k = (int(m.group(i)) for i in (1, 2, 3))
        return insert_twists(builtin_ssr(f"F_{p},{q}"), (k,))
    m = re.fullmatch(r"C_?\((\d+),(-?\d+)\)\((-?\d+)\)", key)
    if m:
        p, q, k = (int(m.group(i)) for i in (1, 2, 3))
        return insert_twists(builtin_ssr(f"C_({p},{q})"), (k,))
    m = re.fullmatch(r"Wh\+\((.+),(-?\d+)\)", key)
    if m:
        companion = builtin_diagram(m.group(1))
        if companion.braid is None or companion.n_components != 1:
            raise ParseError("Wh+ companion must be a braid-built knot")
        return whitehead_double(companion.braid.letters,
                                companion.braid.strands, int(m.group(2)))
    raise ParseError(f"unknown builtin diagram {name!r}")


def builtin_ssr(name: str) -> SsrDiagram:
    """Resolve a built-in diagram of a link in #^r(S^1 x S^2)."""
    key = name.replace(" ", "")
    m = re.fullmatch(r"F_?(\d+)", key)
    if m:
        p = int(m.group(1))
        if p < 1:
            raise ParseError("F_p needs p >= 1")
        flags = (True,) * p + (False,) * p
        return SsrDiagram(BraidWord(2 * p, (), flags), ((1, 2 * p, 0),))
    m = re.fullmatch(r"F_?(\d+),(\d+)", key)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        if p + q < 1:
            raise ParseError("F_{p,q} needs p + q >= 1")
        flags = (True,) * p + (False,) * q
        return SsrDiagram(BraidWord(p + q, (), flags), ((1, p + q, 0),))
    m = re.fullmatch(r"C_?\((\d+),(-?\d+)\)", key)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        return SsrDiagram(BraidWord(p, torus_word(p, q)), ((1, p, 0),))
    if key in ("Wh+", "wh+"):
        return SsrDiagram(BraidWord(3, (-1, 2, ("e", 1)), (True, False, True)),
                          ((2, 3, 0),))
    if key in ("Wh-", "wh-"):
        return SsrDiagram(BraidWord(3, (1, -2, ("e", 1)), (True, False, True)),
                          ((2, 3, 0),))
    if key in ("DT(Wh+)", "dt(wh+)"):
        base = _full_twist_letters(2, 1, offset=1) + (-1, 2, ("e", 1))
        return SsrDiagram(BraidWord(3, base, (True, False, True)), ((2, 3, 0),))
    m = re.fullmatch(r"local\((.+)\)", key)
    if m:
        inner = builtin_diagram(m.group(1))
        if inner.braid is None:
            raise ParseError("local(...) needs a braid-built diagram")
        b = inner.braid
        return SsrDiagram(b, ((1, 0, 0),))
    raise ParseError(f"unknown builtin SSr diagram {name!r}")


def whitehead_double(letters, strands: int, t: int) -> OrientedDiagram:
    """The t-twisted positive Whitehead double of a braid closure knot.

    Column 1 carries the clasp loop; columns 2..2n+1 carry the antiparallel
    2-cable of the companion braid; the framing is corrected from the
    blackboard writhe to t.  Calibrated so the unknot companion gives the
    twist-knot family (t=0 unknot, t=1 figure-eight, t=-1 trefoil)."""
    letters = tuple(letters)
    w = sum(1 if x > 0 else -1 for x in letters)
    word = []
    for x in letters:
        if not isinstance(x, int):
            raise ParseError("whitehead_double needs a plain braid word")
        i = abs(x)
        s = 1 if x > 0 else -1
        mid = 2 * i + 1
        word += [s * mid, s * (mid - 1), s * (mid + 1), s * mid]
    k = t - w
    word += ([2, 2] * k if k >= 0 else [-2, -2] * (-k))
    word += [-1, 2, ("e", 1)]
    flags = tuple((j % 2 == 0) for j in range(2 * strands + 1))
    d = from_braid(BraidWord(2 * strands + 1, tuple(word), flags))
    if d.n_components != 1:
        raise ParseError("whitehead_double needs a knot companion")
    return d


BUILTIN_S3_NAMES = [
    "unknot", "U2", "U3", "trefoil+", "trefoil-", "figure8", "hopf+", "hopf-",
    "T(p,q)", "F_p(k)", "F_p,q(k)", "C_(p,q)(k)", "Wh+(trefoil+,t)",
]
BUILTIN_SSR_NAMES = ["F_p", "F_p,q", "C_(p,q)", "Wh+", "Wh-", "DT(Wh+)", "local(NAME)"]


# ---------------------------------------------------------------------------
# randomized corpus


def random_braid_word(rng: random.Random, max_strands=4, max_letters=8) -> BraidWord:
    n = rng.randint(2, max_strands)
    length = rng.randint(1, max_letters)
    letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
    return BraidWord(n, letters)


def random_pure_braid_word(rng: random.Random, strands: int, blocks: int) -> BraidWord:
    """Words in squares of generators: pure, so any orientation pattern is
    consistent on the closure."""
    letters = []
    for _ in range(blocks):
        i = rng.randint(1, strands - 1)
        s = rng.choice([1, -1])
        letters += [s * i, s * i]
    return BraidWord(strands, tuple(letters))


def random_oriented_pure_diagram(rng: random.Random, strands=3, blocks=2) -> OrientedDiagram:
    w = random_pure_braid_word(rng, strands, blocks)
    flags = tuple(rng.choice([True, False]) for _ in range(strands))
    return from_braid(BraidWord(w.strands, w.letters, flags))


def small_corpus():
    """>= 50 named diagrams with at most 10 crossings each."""
    diagrams = []

    def add(name, d):
        diagrams.append((name, d))

    add("unknot", from_braid(braid_unknot()))
    add("unknot-kink+", from_braid(BraidWord(2, (1,))))
    add("unknot-kink-", from_braid(BraidWord(2, (-1,))))
    add("U2", from_braid(BraidWord(2, ())))
    add("U3", from_braid(BraidWord(3, ())))
    add("hopf+", builtin_diagram("hopf+"))
    add("hopf-", builtin_diagram("hopf-"))
    add("trefoil+", builtin_diagram("trefoil+"))
    add("trefoil-", builtin_diagram("trefoil-"))
    add("figure8", builtin_diagram("figure8"))
    add("5_1", from_braid(BraidWord(2, (1,) * 5)))
    add("5_2", from_braid(BraidWord(3, (1, 1, 2, -1, 2))))
    add("6_1", from_braid(BraidWord(4, (1, 1, 2, -1, -3, 2, -3))))
    add("6_2", from_braid(BraidWord(3, (1, 1, 1, -2, 1, -2))))
    add("6_3", from_braid(BraidWord(3, (1, 1, -2, 1, -2, -2))))
    add("T(2,4)", from_braid(BraidWord(2, (1,) * 4)))
    add("T(2,6)", from_braid(BraidWord(2, (1,) * 6)))
    add("T(3,3)", from_braid(BraidWord(3, torus_word(3, 3))))
    add("T(3,4)", from_braid(BraidWord(3, torus_word(3, 4))))
    add("T(2,-4)", from_braid(BraidWord(2, (-1,) * 4)))
    add("F_1(1)", from_braid(BraidWord(2, (1, 1), (True, False))))
    add("F_1(2)", from_braid(BraidWord(2, (1, 1, 1, 1), (True, False))))
    add("Wh+D0", from_braid(BraidWord(3, (-1, 2, ("e", 1)), (True, False, True))))
    add("Wh+D1", builtin_wh_approx(1))
    add("Wh+D-1", builtin_wh_approx(-1))
    add("granny-braid", from_braid(BraidWord(3, (1, 1, 1, 2, 2, 2))))
    add("square-braid", from_braid(BraidWord(3, (1, 1, 1, -2, -2, -2))))
    rng = random.Random(20260810)
    seen = {d.braid.letters for _, d in diagrams if d.braid is not None}
    i = 0
    while len(diagrams) < 52:
        w = random_braid_word(rng, max_strands=4, max_letters=8)
        if w.letters in seen:
            continue
        seen.add(w.letters)
        d = from_braid(w)
        if d.n_crossings > 10:
            continue
        add(f"rand{i}", d)
        i += 1
    return diagrams


def builtin_wh_approx(k: int) -> OrientedDiagram:
    return insert_twists(builtin_ssr("Wh+"), (k,))


def random_braids(count=100, seed=20260811, max_letters=8):
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < count:
        w = random_braid_word(rng, max_strands=4, max_letters=max_letters)
        if w.letters in seen:
            continue
        seen.add(w.letters)
        out.append(w)
    return out
