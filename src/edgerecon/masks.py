"""Camera-subset masks in their two forms.

At the API a mask is a tuple of 0/1 bits, one per camera; inside the
episode engine it is an integer with camera 0 in the most significant of
``n_cameras`` bits, so ``format(value, f"0{n}b")`` is the mask's bitstring.
"""

from __future__ import annotations

from itertools import product

Mask = tuple[int, ...]


def popcount(mask: Mask) -> int:
    return sum(mask)


def mask_to_str(mask: Mask) -> str:
    return "".join(str(b) for b in mask)


def mask_from_str(text: str) -> Mask:
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"mask string must be nonempty 0/1 characters, got {text!r}")
    return tuple(int(ch) for ch in text)


def mask_to_int(mask: Mask) -> int:
    value = 0
    for bit in mask:
        value = (value << 1) | bit
    return value


def mask_from_int(value: int, n_cameras: int) -> Mask:
    return tuple((value >> (n_cameras - 1 - i)) & 1 for i in range(n_cameras))


def subsets(n_cameras: int, k_min: int, k_max: int) -> list[Mask]:
    """Every mask with k_min..k_max cameras, in bitstring order."""
    return [mask for mask in product((0, 1), repeat=n_cameras) if k_min <= sum(mask) <= k_max]
