"""format(x, ".9g") of whole float64 arrays, byte for byte, at numpy speed.

Each value becomes a fixed-width field of bytes whose unused bytes are 0, so
lines are assembled by concatenating fields and dropping the zeros.  dataio
imports this module on its first jsiv1 or curvev1 export: commands that
write neither do not compile it or build its tables.
"""

import itertools

import numpy as np

# Correctly rounded 10**k for -300 <= k <= 300, at index k + 300.
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 301)])

# format_block writes each cell into a 32-byte field of four little-endian
# words; the bytes a cell does not use stay 0 and are dropped when lines are
# assembled.  Byte positions: 0 sign, 1-5 the "0.000" before a small fixed
# number, 6 + 2k digit k (k = 0..8) and 7 + 2k a possible "." after it,
# 23 "e", 24 the exponent's sign, 25-27 its digits, 28 the separator.
_FIELD = 32
_SEPARATOR = 28


def _words(texts: list[bytes]) -> np.ndarray:
    """Each text NUL-padded to `_FIELD` bytes, as a (len(texts), 4) array of words."""
    data = b"".join(t.ljust(_FIELD, b"\0") for t in texts)
    return np.frombuffer(data, dtype="<i8").reshape(len(texts), _FIELD // 8)


def _layout_tables() -> tuple[np.ndarray, np.ndarray]:
    """Template and mask words for each layout code.

    code = (negative * 15 + kind) * 9 + digits - 1, where kind 0..12 is the
    fixed layout of decimal exponent kind - 4, 13 and 14 the exponent layout
    with 2 and 3 exponent digits, and `digits` the significant digits left
    once trailing zeros are stripped.  A field is (data & mask) | template.
    """
    templates, masks = [], []
    for negative, kind, ndigits in itertools.product(range(2), range(15), range(1, 10)):
        template, mask = bytearray(_FIELD), bytearray(_FIELD)
        template[0] = ord("-") if negative else 0
        exp10 = kind - 4
        if kind >= 13:
            keep, point = ndigits, 0
            template[23] = ord("e")
            mask[24:28] = b"\xff" * 4
        elif exp10 < 0:
            keep, point = ndigits, None
            template[1 : 2 - exp10] = b"0." + b"0" * (-exp10 - 1)
        else:
            keep, point = max(ndigits, exp10 + 1), exp10
        if point is not None and ndigits > point + 1:
            template[7 + 2 * point] = ord(".")
        for k in range(keep):
            mask[6 + 2 * k] = 0xFF
        templates.append(bytes(template))
        masks.append(bytes(mask))
    return _words(templates), _words(masks)


_TEMPLATES, _MASKS = _layout_tables()
# 0..9999 as four digits at bytes 0, 2, 4 and 6 of a word, and the number of
# trailing zeros among those four digits.
_PAIRS = [f"{k:02d}" for k in range(100)]
_SPREAD2 = np.array([ord(pair[0]) | ord(pair[1]) << 16 for pair in _PAIRS])
_SPREAD4 = (_SPREAD2[:, None] | _SPREAD2[None, :] << 32).ravel()
_TRAILING2 = np.array([len(pair) - len(pair.rstrip("0")) for pair in _PAIRS], dtype=np.uint8)
_TRAILING = np.where(_TRAILING2 == 2, 2 + _TRAILING2[:, None], _TRAILING2).ravel()  # [high, low]
# Exponent sign and digits of 10**k, -300 <= k <= 300, for word 3.
_EXP_WORDS = _words([f"{k:+03d}".encode() for k in range(-300, 301)])[:, 0]


def _format_one(x: float) -> bytes:
    return format(float(x), ".9g").encode("ascii")


def format_block(values: np.ndarray) -> np.ndarray:
    """format(x, ".9g") of each float64, as the (n, 4) words of its `_FIELD` bytes.

    Each |x| is scaled by a correctly rounded power of ten to r in [1e8, 1e9),
    with an error below 2.3e-7, and rounded to 9 digits.  That rounding is the
    exact one unless r lies within 1e-6 of a half-integer.  Such cells, and
    non-finite values or decimal exponents beyond +-290 (where the scale
    factor or x is subnormal), are formatted one by one.
    """
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    zero = a == 0.0
    fast = np.isfinite(a) & ~zero
    a = np.where(fast, a, 1.0)
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    fast &= np.abs(exp10) <= 290
    exp10[~fast] = 0
    a[~fast] = 1.0
    r = a * _POW10[308 - exp10]  # 10**(8 - exp10)
    # Next to a power of ten, log10 can miss the exponent by one and r leave
    # [1e8, 1e9); such cells fall back too.
    fast &= (r >= 1e8) & (r < 1e9) & (np.abs(r - np.floor(r) - 0.5) >= 1e-6)
    n = np.rint(r).astype(np.int64)
    carry = n == 1_000_000_000
    n[carry] //= 10
    exp10[carry] += 1
    n[zero] = 0  # exp10 is 0 already: "0" in the fixed layout

    first, high4, low4 = n // 100_000_000, n // 10000 % 10000, n % 10000
    trailing = np.where(low4 == 0, 4 + _TRAILING[high4], _TRAILING[low4])
    kind = np.where((exp10 >= -4) & (exp10 < 9), exp10 + 4,
                    np.where(np.abs(exp10) >= 100, 14, 13))
    code = (np.signbit(x) * 15 + kind) * 9 + np.maximum(8 - trailing, 0)
    words = np.empty((x.size, 4), dtype="<i8")
    words[:, 0] = (first + ord("0")) << 48
    words[:, 1] = _SPREAD4[high4]
    words[:, 2] = _SPREAD4[low4]
    words[:, 3] = _EXP_WORDS[exp10 + 300]
    words &= np.take(_MASKS, code, axis=0)  # np.take: several times faster than [code]
    words |= np.take(_TEMPLATES, code, axis=0)

    cells = words.view(np.uint8)
    for k in np.flatnonzero(~(fast | zero)):
        text = _format_one(x[k])
        cells[k] = 0
        cells[k, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return words


def csv_text(*cells: np.ndarray) -> str:
    """Newline-terminated lines joining the fields of equally long format_block
    outputs with commas."""
    table = np.concatenate(cells, axis=1).view(np.uint8)
    table = table.reshape(len(cells[0]), len(cells), _FIELD)
    table[:, :, _SEPARATOR] = ord(",")
    table[:, -1, _SEPARATOR] = ord("\n")
    return table.tobytes().translate(None, b"\0").decode("ascii")
