"""Group algebra convolution kernel.

Callers late-bind through this module (``_kernel.mul_terms(...)``), so a
test or a tracer can wrap the function in place.
"""


def mul_terms(a: dict, b: dict, max_len: int) -> dict:
    """Convolve two term maps {reduced word tuple: int coefficient}.

    Each product word is the free reduction of the concatenation; with
    ``max_len >= 0`` products longer than ``max_len`` are dropped.  Zero
    coefficients never survive.
    """
    out: dict = {}
    for wa, ca in a.items():
        la = len(wa)
        for wb, cb in b.items():
            i = la
            j = 0
            lb = len(wb)
            while i > 0 and j < lb and wa[i - 1] == -wb[j]:
                i -= 1
                j += 1
            if max_len >= 0 and i + lb - j > max_len:
                continue
            w = wa[:i] + wb[j:]
            c = out.get(w)
            if c is None:
                out[w] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    out[w] = c
                else:
                    del out[w]
    return out
